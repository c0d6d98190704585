// Minimal leveled logger. Disabled levels cost one branch.
#ifndef SRC_SIM_LOGGER_H_
#define SRC_SIM_LOGGER_H_

#include <sstream>
#include <string>

#include "src/common/units.h"

namespace cxlpool::sim {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

// Global minimum level; default kWarning so tests and benches stay quiet.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace log_internal {
void Emit(LogLevel level, const char* file, int line, const std::string& msg);

class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogLine() { Emit(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};
}  // namespace log_internal

}  // namespace cxlpool::sim

#define CXLPOOL_LOG(level)                                                    \
  if (::cxlpool::sim::LogLevel::k##level < ::cxlpool::sim::GetLogLevel()) {   \
  } else                                                                      \
    ::cxlpool::sim::log_internal::LogLine(::cxlpool::sim::LogLevel::k##level, \
                                          __FILE__, __LINE__)

#endif  // SRC_SIM_LOGGER_H_

#include "src/sim/logger.h"

#include <cstdio>
#include <cstring>

namespace cxlpool::sim {

namespace {
LogLevel g_level = LogLevel::kWarning;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kOff:
      return "?";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}
}  // namespace

LogLevel GetLogLevel() { return g_level; }
void SetLogLevel(LogLevel level) { g_level = level; }

namespace log_internal {
void Emit(LogLevel level, const char* file, int line, const std::string& msg) {
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), Basename(file), line,
               msg.c_str());
}
}  // namespace log_internal

}  // namespace cxlpool::sim

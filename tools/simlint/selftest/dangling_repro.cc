// Seeded reproductions for `python3 tools/simlint --self-test`. This
// file is NOT part of the build: it preserves, verbatim in shape, the
// bug classes PR 1 and PR 4 fixed at runtime under ASan, so the lint
// provably catches them. Do not "fix" these — the self-test asserts
// each annotated line is flagged, and ONLY those lines.
#include <array>
#include <cstdint>

#include "src/cxl/host_adapter.h"
#include "src/msg/wire.h"
#include "src/sim/task.h"

namespace cxlpool::repro {

class BuggyDoorbellSender {
 public:
  BuggyDoorbellSender(cxl::HostAdapter& host, uint64_t line_addr)
      : host_(host), addr_(line_addr) {}

  // The exact PR 1 bug: NOT a coroutine, so `buf` dies when this frame
  // returns — but the lazy StoreNt access still holds a span over it and
  // only reads the bytes when the caller finally awaits.
  cxl::HostAdapter::Access Ring(uint64_t value) {
    std::array<std::byte, 8> buf;
    msg::wire::PutU64(buf.data(), value);
    return host_.StoreNt(addr_, buf);  // simlint-expect: dangling-frame
  }

 private:
  cxl::HostAdapter& host_;
  uint64_t addr_;
};

// The companion bug class: an access dropped on the floor. Accesses start
// only when awaited, so this Flush never executes at all — the dirty lines
// silently stay unpublished.
inline void ForgetToAwait(cxl::HostAdapter& host, uint64_t addr) {
  host.Flush(addr, 64);  // simlint-expect: discarded-result
}

// Third bug class (PR 4): a periodic loop detached with no stop token.
// Nothing ever cancels it, so it keeps firing after Shutdown() against a
// rack that no longer exists. Every *Loop coroutine must thread a
// sim::StopToken&.
sim::Task<> WatchLoop(cxl::HostAdapter& host);

inline void StartUnsupervisedWatcher(cxl::HostAdapter& host) {
  sim::Spawn(WatchLoop(host));  // simlint-expect: unstoppable-loop
}

}  // namespace cxlpool::repro

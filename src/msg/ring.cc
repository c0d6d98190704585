#include "src/msg/ring.h"

#include <algorithm>
#include <array>
#include <coroutine>
#include <cstring>

#include "src/common/check.h"
#include "src/msg/wire.h"
#include "src/netsim/fault_plane.h"

namespace cxlpool::msg {

namespace {
constexpr uint64_t kSeqOffset = 0;
constexpr uint64_t kChunkLenOffset = 4;
constexpr uint64_t kMsgLenOffset = 6;
constexpr uint64_t kPayloadOffset = kSlotHeaderSize;

// Receiver burst-window cap: the most consecutive slots one fresh poll
// invalidates+loads at once. A published slot cannot be overwritten until
// the consumer cursor passes it, so the valid prefix of a window is
// immutable and safe to consume from cache without re-invalidating per
// message — this is what makes burst drain cheap (the CXL read pipelines
// extra lines at per_line_pipelined instead of paying the full first-line
// latency per slot). The actual window adapts between 1 and this cap: it
// widens while scans come back fully valid (burst) and collapses to 1 when
// the receiver is caught up, so ping-pong traffic never pays for
// speculative lines.
constexpr uint32_t kRecvWindow = 8;

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

RingSender::RingSender(cxl::HostAdapter& host, const RingConfig& config)
    : host_(host),
      config_(config),
      cursor_addr_(config.base + static_cast<uint64_t>(config.slots) * kSlotSize),
      backoff_(config.poll_min, config.poll_max) {
  CXLPOOL_CHECK(IsPowerOfTwo(config.slots));
  CXLPOOL_CHECK(config.base % kCachelineSize == 0);
}

sim::Task<Status> RingSender::WaitForSpace(uint32_t chunks_needed) {
  if (chunks_needed > config_.slots) {
    co_return InvalidArgument("message needs more chunks than the ring has slots");
  }
  Nanos give_up_at =
      config_.full_wait > 0 ? host_.loop().now() + config_.full_wait : 0;
  while (head_ + chunks_needed - cached_tail_ > config_.slots) {
    // Ring looks full: refresh the consumer cursor from the pool.
    cursor_refreshes_->Inc();
    std::array<std::byte, 8> buf;
    CO_RETURN_IF_ERROR(co_await host_.ReadFresh(cursor_addr_, buf));
    cached_tail_ = wire::GetU64(buf.data());
    if (head_ + chunks_needed - cached_tail_ <= config_.slots) {
      backoff_.Reset();
      break;
    }
    if (give_up_at != 0 && host_.loop().now() >= give_up_at) {
      full_rejects_->Inc();
      co_return Overloaded("ring full past full_wait");
    }
    co_await sim::Delay(host_.loop(), backoff_.NextDelay());
  }
  co_return OkStatus();
}

sim::Task<Status> RingSender::Send(std::span<const std::byte> payload) {
  if (payload.size() > kMaxMessageSize) {
    co_return InvalidArgument("message exceeds kMaxMessageSize");
  }
  uint32_t chunks = std::max<uint32_t>(
      1, static_cast<uint32_t>((payload.size() + kSlotPayload - 1) / kSlotPayload));
  CO_RETURN_IF_ERROR(co_await WaitForSpace(chunks));

  size_t offset = 0;
  for (uint32_t c = 0; c < chunks; ++c) {
    size_t chunk_len = std::min<size_t>(kSlotPayload, payload.size() - offset);
    std::array<std::byte, kSlotSize> line{};
    wire::PutU32(line.data() + kSeqOffset, static_cast<uint32_t>(head_ + 1));
    wire::PutU16(line.data() + kChunkLenOffset, static_cast<uint16_t>(chunk_len));
    wire::PutU16(line.data() + kMsgLenOffset, static_cast<uint16_t>(payload.size()));
    if (chunk_len > 0) {  // empty messages have a null payload pointer
      std::memcpy(line.data() + kPayloadOffset, payload.data() + offset,
                  chunk_len);
    }

    uint64_t slot_addr = config_.base + (head_ % config_.slots) * kSlotSize;
    // The whole line is published with one non-temporal store: payload and
    // the seq flag become visible atomically at cacheline granularity.
    CO_RETURN_IF_ERROR(co_await host_.StoreNt(slot_addr, line));
    nt_store_runs_->Inc();
    ++head_;
    offset += chunk_len;
  }
  co_return OkStatus();
}

namespace {
uint32_t ChunksFor(size_t payload_size) {
  return std::max<uint32_t>(
      1, static_cast<uint32_t>((payload_size + kSlotPayload - 1) / kSlotPayload));
}
}  // namespace

sim::Task<Status> RingSender::SendBatch(
    std::span<const std::span<const std::byte>> payloads) {
  if (payloads.empty()) {
    co_return OkStatus();
  }
  if (payloads.size() == 1) {
    co_return co_await Send(payloads[0]);
  }
  uint32_t total_chunks = 0;
  for (const auto& p : payloads) {
    if (p.size() > kMaxMessageSize) {
      co_return InvalidArgument("message exceeds kMaxMessageSize");
    }
    total_chunks += ChunksFor(p.size());
  }
  if (total_chunks > config_.slots) {
    // A batch bigger than the ring can never fit in one reservation;
    // degrade to sequential sends rather than reject.
    for (const auto& p : payloads) {
      CO_RETURN_IF_ERROR(co_await Send(p));
    }
    co_return OkStatus();
  }
  // One reservation for the whole batch: at most one cursor refresh
  // (amortized over every message) instead of one per Send.
  CO_RETURN_IF_ERROR(co_await WaitForSpace(total_chunks));
  batch_sends_->Inc();
  batched_messages_->Add(payloads.size());

  // Materialize every slot line up front, in publish order.
  std::vector<std::byte> lines(static_cast<size_t>(total_chunks) * kSlotSize,
                               std::byte{0});
  uint64_t seq_base = head_;
  size_t chunk_idx = 0;
  for (const auto& p : payloads) {
    size_t offset = 0;
    uint32_t chunks = ChunksFor(p.size());
    for (uint32_t c = 0; c < chunks; ++c, ++chunk_idx) {
      size_t chunk_len = std::min<size_t>(kSlotPayload, p.size() - offset);
      std::byte* line = lines.data() + chunk_idx * kSlotSize;
      wire::PutU32(line + kSeqOffset,
                   static_cast<uint32_t>(seq_base + chunk_idx + 1));
      wire::PutU16(line + kChunkLenOffset, static_cast<uint16_t>(chunk_len));
      wire::PutU16(line + kMsgLenOffset, static_cast<uint16_t>(p.size()));
      if (chunk_len > 0) {
        std::memcpy(line + kPayloadOffset, p.data() + offset, chunk_len);
      }
      offset += chunk_len;
    }
  }

  // Publish ring-contiguous runs with single multi-line non-temporal
  // stores (write combining): the CXL write pays its first-line latency
  // once per run and per_line_pipelined for each further line. Runs are
  // awaited in order so the published prefix always grows monotonically —
  // the receiver can never observe message k+1 without message k.
  uint32_t published = 0;
  while (published < total_chunks) {
    uint64_t slot = (head_ % config_.slots);
    uint32_t run = std::min<uint32_t>(total_chunks - published,
                                      config_.slots - static_cast<uint32_t>(slot));
    uint64_t run_addr = config_.base + slot * kSlotSize;
    std::span<const std::byte> run_bytes(
        lines.data() + static_cast<size_t>(published) * kSlotSize,
        static_cast<size_t>(run) * kSlotSize);
    CO_RETURN_IF_ERROR(co_await host_.StoreNt(run_addr, run_bytes));
    nt_store_runs_->Inc();
    published += run;
    head_ += run;
  }
  co_return OkStatus();
}

RingReceiver::RingReceiver(cxl::HostAdapter& host, const RingConfig& config)
    : host_(host),
      config_(config),
      cursor_addr_(config.base + static_cast<uint64_t>(config.slots) * kSlotSize),
      backoff_(config.poll_min, config.poll_max) {
  CXLPOOL_CHECK(IsPowerOfTwo(config.slots));
}

// LoadSlot's result. A window hit is served when LoadSlot is called; a
// miss holds the one windowed ReadFresh, started and awaited in place, and
// caches its published prefix when it completes, before the caller
// resumes.
class [[nodiscard]] RingReceiver::SlotLoad {
 public:
  SlotLoad(RingReceiver& rx, uint64_t index, std::array<std::byte, kSlotSize>* line)
      : rx_(rx),
        index_(index),
        line_(line),
        window_(Plan(rx, index, line)),
        fresh_(rx.host_.ReadFresh(
            rx.config_.base + index % rx.config_.slots * kSlotSize,
            std::span<std::byte>(rx.window_.data(),
                                 static_cast<size_t>(window_) * kSlotSize))) {}

  bool await_ready() { return window_ == 0 || fresh_.await_ready(); }
  void await_suspend(std::coroutine_handle<> waiter) { fresh_.await_suspend(waiter); }

  Result<uint32_t> await_resume() {
    if (window_ > 0) {
      RETURN_IF_ERROR(fresh_.await_resume());
      CacheWindow();
    }
    return wire::GetU32(line_->data() + kSeqOffset);
  }

 private:
  // Serves slot `index` from the cached window and returns 0, or sizes the
  // window for a fresh read from `index` and returns its slot count.
  static uint32_t Plan(RingReceiver& rx, uint64_t index,
                       std::array<std::byte, kSlotSize>* line) {
    // Burst drain: serve from the cached window when it covers this slot.
    // Every cached slot was observed published, and a published slot is
    // immutable until our cursor passes it, so no re-invalidation is needed.
    if (rx.win_valid_ > 0 && index >= rx.win_start_ &&
        index - rx.win_start_ < rx.win_valid_) {
      rx.window_hits_->Inc();
      std::memcpy(line->data(),
                  rx.window_.data() + (index - rx.win_start_) * kSlotSize, kSlotSize);
      return 0;
    }
    rx.win_valid_ = 0;
    uint64_t slot = index % rx.config_.slots;
    uint32_t window = std::min(std::max<uint32_t>(1, rx.cur_window_), kRecvWindow);
    window = static_cast<uint32_t>(
        std::min<uint64_t>(window, rx.config_.slots - slot));  // clamp at wrap
    if (rx.window_.size() < static_cast<size_t>(window) * kSlotSize) {
      rx.window_.resize(static_cast<size_t>(window) * kSlotSize);
    }
    // Software coherence: read fresh, dropping any cached copy, or we would
    // spin on a stale line forever. One ReadFresh covers the whole window —
    // the CXL read pipelines the extra lines instead of paying the full
    // first-line latency per slot.
    return window;
  }

  // Caches only the published prefix of the window just read; an
  // unpublished slot may be written at any moment and must be re-read
  // fresh next time.
  void CacheWindow() {
    RingReceiver& rx = rx_;
    rx.window_loads_->Inc();
    uint32_t valid = 0;
    while (valid < window_ &&
           wire::GetU32(rx.window_.data() + static_cast<size_t>(valid) * kSlotSize +
                        kSeqOffset) == static_cast<uint32_t>(index_ + valid + 1)) {
      ++valid;
    }
    rx.win_start_ = index_;
    rx.win_valid_ = valid;
    // Adapt: a fully-valid scan means the producer is ahead of us — widen
    // the next load. A (near-)empty scan means we are caught up and paying
    // for unpublished lines — fall back to single-slot loads.
    if (valid == window_) {
      rx.cur_window_ = std::min<uint32_t>(std::max<uint32_t>(1, rx.cur_window_) * 2,
                                          kRecvWindow);
    } else if (valid <= 1) {
      rx.cur_window_ = 1;
    }
    std::memcpy(line_->data(), rx.window_.data(), kSlotSize);
  }

  RingReceiver& rx_;
  uint64_t index_;
  std::array<std::byte, kSlotSize>* line_;
  uint32_t window_;  // slots the fresh read covers; 0 when served from the window
  cxl::HostAdapter::Access fresh_;
};

RingReceiver::SlotLoad RingReceiver::LoadSlot(uint64_t index,
                                              std::array<std::byte, kSlotSize>* line) {
  return SlotLoad(*this, index, line);
}

sim::Task<Status> RingReceiver::PublishCursor() {
  std::array<std::byte, 8> buf;
  wire::PutU64(buf.data(), tail_);
  CO_RETURN_IF_ERROR(co_await host_.StoreNt(cursor_addr_, buf));
  last_published_cursor_ = tail_;
  co_return OkStatus();
}

sim::Task<Status> RingReceiver::ConsumeMessage(
    std::array<std::byte, kSlotSize> first_line, std::vector<std::byte>* out) {
  uint16_t msg_len = wire::GetU16(first_line.data() + kMsgLenOffset);
  uint16_t chunk_len = wire::GetU16(first_line.data() + kChunkLenOffset);
  out->insert(out->end(), first_line.data() + kPayloadOffset,
              first_line.data() + kPayloadOffset + chunk_len);
  ++tail_;
  size_t received = chunk_len;

  while (received < msg_len) {
    // Continuation chunks: the sender is already committed to writing
    // them, so spin at the minimum cadence without a deadline.
    std::array<std::byte, kSlotSize> line;
    auto seq_or = co_await LoadSlot(tail_, &line);
    if (!seq_or.ok()) {
      co_return seq_or.status();
    }
    if (*seq_or != static_cast<uint32_t>(tail_ + 1)) {
      co_await sim::Delay(host_.loop(), config_.poll_min);
      continue;
    }
    chunk_len = wire::GetU16(line.data() + kChunkLenOffset);
    out->insert(out->end(), line.data() + kPayloadOffset,
                line.data() + kPayloadOffset + chunk_len);
    received += chunk_len;
    ++tail_;
  }

  ++messages_;
  if (tail_ - last_published_cursor_ >= config_.slots / 4) {
    CO_RETURN_IF_ERROR(co_await PublishCursor());
  }
  co_return OkStatus();
}

bool RingReceiver::FaultActive() const {
  return config_.fault_plane != nullptr && config_.fault_plane->active();
}

Nanos RingReceiver::NextDelayedRelease() const {
  Nanos earliest = 0;
  for (const auto& [release_at, bytes] : delayed_) {
    if (earliest == 0 || release_at < earliest) {
      earliest = release_at;
    }
  }
  return earliest;
}

bool RingReceiver::DeliverStashed(std::vector<std::byte>* out) {
  if (!dup_pending_.empty()) {
    const std::vector<std::byte>& m = dup_pending_.front();
    out->insert(out->end(), m.begin(), m.end());
    dup_pending_.pop_front();
    return true;
  }
  if (delayed_.empty()) {
    return false;
  }
  Nanos now = host_.loop().now();
  size_t best = delayed_.size();
  for (size_t i = 0; i < delayed_.size(); ++i) {
    if (delayed_[i].first <= now &&
        (best == delayed_.size() || delayed_[i].first < delayed_[best].first)) {
      best = i;
    }
  }
  if (best == delayed_.size()) {
    return false;
  }
  const std::vector<std::byte>& m = delayed_[best].second;
  out->insert(out->end(), m.begin(), m.end());
  delayed_.erase(delayed_.begin() + static_cast<ptrdiff_t>(best));
  return true;
}

bool RingReceiver::JudgeConsumed(std::vector<std::byte>* out) {
  netsim::FaultPlane::FrameFate fate =
      config_.fault_plane->Judge(config_.src_host, config_.dst_host);
  switch (fate.verdict) {
    case netsim::FaultPlane::Verdict::kDeliver:
      out->insert(out->end(), scratch_.begin(), scratch_.end());
      return true;
    case netsim::FaultPlane::Verdict::kDrop:
      faults_dropped_->Inc();
      return false;
    case netsim::FaultPlane::Verdict::kDuplicate:
      faults_duplicated_->Inc();
      out->insert(out->end(), scratch_.begin(), scratch_.end());
      dup_pending_.push_back(scratch_);
      return true;
    case netsim::FaultPlane::Verdict::kDelay:
      faults_delayed_->Inc();
      delayed_.emplace_back(host_.loop().now() + fate.delay, scratch_);
      return false;
  }
  return false;
}

sim::Task<Status> RingReceiver::Recv(std::vector<std::byte>* out, Nanos deadline) {
  for (;;) {
    // Stashed fault-plane deliveries (duplicates, matured delays) come
    // before new ring traffic — a delayed message overtaken by later ones
    // is exactly the reorder the model wants.
    if (DeliverStashed(out)) {
      co_return OkStatus();
    }
    std::array<std::byte, kSlotSize> line;
    auto seq_or = co_await LoadSlot(tail_, &line);
    if (!seq_or.ok()) {
      co_return seq_or.status();
    }
    if (*seq_or == static_cast<uint32_t>(tail_ + 1)) {
      backoff_.Reset();
      if (!FaultActive()) {
        co_return co_await ConsumeMessage(line, out);
      }
      // Consume fully (slots reclaimed, cursor flow intact), THEN judge:
      // the sender must never block on a partition, only the delivery.
      scratch_.clear();
      CO_RETURN_IF_ERROR(co_await ConsumeMessage(line, &scratch_));
      if (JudgeConsumed(out)) {
        co_return OkStatus();
      }
      continue;  // dropped or delayed: keep polling
    }
    // Idle: lazily publish the consumer cursor. Without this a sender
    // needing many contiguous slots can wait forever for credits the
    // batched publish in ConsumeMessage would never flush (deadlock).
    if (tail_ != last_published_cursor_) {
      CO_RETURN_IF_ERROR(co_await PublishCursor());
    }
    Nanos now = host_.loop().now();
    if (now >= deadline) {
      co_return DeadlineExceeded("no message before deadline");
    }
    Nanos delay = std::min(backoff_.NextDelay(), deadline - now);
    // Wake when a delayed message matures, even if the ring stays idle.
    Nanos release = NextDelayedRelease();
    if (release > now) {
      delay = std::min(delay, release - now);
    }
    co_await sim::Delay(host_.loop(), delay);
  }
}

sim::Task<Status> RingReceiver::TryRecv(std::vector<std::byte>* out) {
  if (DeliverStashed(out)) {
    co_return OkStatus();
  }
  for (;;) {
    std::array<std::byte, kSlotSize> line;
    auto seq_or = co_await LoadSlot(tail_, &line);
    if (!seq_or.ok()) {
      co_return seq_or.status();
    }
    if (*seq_or != static_cast<uint32_t>(tail_ + 1)) {
      co_return NotFound("ring empty");
    }
    if (!FaultActive()) {
      co_return co_await ConsumeMessage(line, out);
    }
    scratch_.clear();
    CO_RETURN_IF_ERROR(co_await ConsumeMessage(line, &scratch_));
    if (JudgeConsumed(out)) {
      co_return OkStatus();
    }
    // Dropped/delayed: poll the next slot once more so a burst behind a
    // dropped message is still drained by this call.
  }
}

}  // namespace cxlpool::msg

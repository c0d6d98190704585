#include "src/kv/loadgen.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/msg/wire.h"

namespace cxlpool::kv {

namespace {

// DELETE traffic runs against this many keys in a disjoint namespace so
// reordered DELETE/SET races never make the acked-SET audit ambiguous.
constexpr uint64_t kDeleteKeys = 64;
constexpr Nanos kSweepInterval = 50 * kMicrosecond;
constexpr Nanos kLateGrace = 50 * kMicrosecond;

uint64_t MixBits(uint64_t rank, uint64_t version) {
  uint64_t h = rank * 0x9e3779b97f4a7c15ULL + version * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 31;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 29;
  return h;
}

}  // namespace

LoadGen::LoadGen(stack::UdpStack* stack, netsim::MacAddr server_mac,
                 uint16_t server_port, uint32_t client_id, LoadGenConfig config,
                 obs::Registry* registry, obs::Labels labels)
    : stack_(stack),
      server_mac_(server_mac),
      server_port_(server_port),
      client_id_(client_id),
      config_(config),
      zipf_(config.keys, config.zipf_theta),
      keys_(config.keys),
      conn_outstanding_(static_cast<size_t>(config.connections), 0),
      dkey_inflight_(kDeleteKeys, false) {
  CXLPOOL_CHECK(config_.value_bytes_min >= 64);
  CXLPOOL_CHECK(config_.value_bytes_max >= config_.value_bytes_min);
  CXLPOOL_CHECK(config_.value_bytes_max + kRequestHeaderSize + kMaxKeyLen <=
                stack::kMaxUdpPayload);
  obs::Scope scope =
      registry != nullptr ? obs::Scope(*registry, std::move(labels))
                          : stack->host().metrics().With(std::move(labels));
  sent_ = scope.GetCounter("kvload.sent");
  ok_ = scope.GetCounter("kvload.ok");
  overloaded_rsp_ = scope.GetCounter("kvload.overloaded_rsp");
  expired_rsp_ = scope.GetCounter("kvload.expired_rsp");
  timeouts_ = scope.GetCounter("kvload.timeouts");
  skipped_ = scope.GetCounter("kvload.skipped");
  late_responses_ = scope.GetCounter("kvload.late_responses");
  rtt_ns_ = scope.GetHistogram("kvload.rtt_ns");
}

Status LoadGen::Start(sim::StopToken& stop) {
  auto sock = stack_->Bind(config_.client_port);
  if (!sock.ok()) {
    return sock.status();
  }
  sock_ = *sock;
  sim::Spawn(Receiver(stop));
  sim::Spawn(Sweeper(stop));
  return OkStatus();
}

std::string LoadGen::KeyName(uint64_t rank, bool delete_range) const {
  return "c" + std::to_string(client_id_) +
         (delete_range ? "-d" : "-k") + std::to_string(rank);
}

std::vector<std::byte> LoadGen::MakeValue(uint64_t rank, uint64_t version,
                                          const LoadGenConfig& config) {
  uint64_t mix = MixBits(rank, version);
  uint32_t span = config.value_bytes_max - config.value_bytes_min + 1;
  uint32_t len = config.value_bytes_min + static_cast<uint32_t>(mix % span);
  std::vector<std::byte> value(len);
  msg::wire::PutU64(value.data(), rank);
  msg::wire::PutU64(value.data() + 8, version);
  for (uint32_t i = 16; i < len; ++i) {
    value[i] = static_cast<std::byte>((mix + i * 131) & 0xff);
  }
  return value;
}

bool LoadGen::CheckValue(std::span<const std::byte> value, uint64_t* rank,
                         uint64_t* version) {
  if (value.size() < 16) {
    return false;
  }
  uint64_t r = msg::wire::GetU64(value.data());
  uint64_t v = msg::wire::GetU64(value.data() + 8);
  uint64_t mix = MixBits(r, v);
  for (size_t i = 16; i < value.size(); ++i) {
    if (value[i] != static_cast<std::byte>((mix + i * 131) & 0xff)) {
      return false;
    }
  }
  *rank = r;
  *version = v;
  return true;
}

sim::Task<Status> LoadGen::SendRequest(int sender, Opcode op,
                                       const std::string& key, uint64_t rank,
                                       uint64_t version, bool audit_exempt,
                                       bool audit_probe,
                                       std::span<const std::byte> value,
                                       Nanos deadline, uint64_t* op_id_out) {
  sim::EventLoop& loop = sock_->Loop();
  Request req;
  req.opcode = op;
  req.client_id = client_id_;
  req.seq = next_op_id_++;
  req.deadline = deadline;
  req.key = key;
  req.value.assign(value.begin(), value.end());
  Status st = co_await sock_->SendTo(server_mac_, server_port_,
                                     EncodeRequest(req));
  if (!st.ok()) {
    co_return st;
  }
  Pending p;
  p.rank = rank;
  p.opcode = op;
  p.version = version;
  p.audit_exempt = audit_exempt;
  p.audit_probe = audit_probe;
  p.sender = sender;
  p.sent_at = loop.now();
  p.deadline = deadline;
  outstanding_.emplace(req.seq, p);
  if (sender >= 0) {
    ++conn_outstanding_[static_cast<size_t>(sender)];
  }
  sent_->Inc();
  if (phase_ != nullptr && p.sent_at >= phase_measure_from_ &&
      p.sent_at <= phase_measure_until_) {
    ++phase_->sent;
  }
  if (op_id_out != nullptr) {
    *op_id_out = req.seq;
  }
  co_return OkStatus();
}

sim::Task<> LoadGen::Sender(int index, double offered_ops, Nanos until) {
  sim::EventLoop& loop = sock_->Loop();
  sim::Rng rng(config_.seed + 104729 + static_cast<uint64_t>(index) * 6151 +
               static_cast<uint64_t>(client_id_) * 31337);
  double mean_gap = 1e9 * config_.connections / offered_ops;
  while (loop.now() < until) {
    co_await sim::Delay(
        loop, std::max<Nanos>(1, static_cast<Nanos>(rng.Exponential(mean_gap))));
    if (loop.now() >= until) {
      break;
    }
    // Open-loop overload bounds: skip, never queue.
    if (outstanding_.size() >= config_.max_outstanding ||
        conn_outstanding_[static_cast<size_t>(index)] >= config_.pipeline_depth) {
      skipped_->Inc();
      if (phase_ != nullptr && loop.now() >= phase_measure_from_ &&
          loop.now() <= phase_measure_until_) {
        ++phase_->skipped;
      }
      continue;
    }
    double dice = rng.Uniform();
    Nanos deadline = loop.now() + config_.op_deadline;
    if (dice >= config_.get_fraction &&
        dice < config_.get_fraction + config_.delete_fraction) {
      // DELETE-range traffic: alternate SETs and DELETEs over a small
      // disjoint namespace, exempt from the acked-SET audit.
      uint64_t drank = rng.UniformInt(kDeleteKeys);
      if (dkey_inflight_[drank]) {
        continue;
      }
      dkey_inflight_[drank] = true;
      if (rng.Bernoulli(0.5)) {
        auto value = MakeValue(drank, 1, config_);
        Status st = co_await SendRequest(index, Opcode::kSet,
                                         KeyName(drank, true), drank, 1,
                                         /*audit_exempt=*/true,
                                         /*audit_probe=*/false, value,
                                         deadline, nullptr);
        if (!st.ok()) {
          dkey_inflight_[drank] = false;
        }
      } else {
        Status st = co_await SendRequest(index, Opcode::kDelete,
                                         KeyName(drank, true), drank, 0,
                                         /*audit_exempt=*/true,
                                         /*audit_probe=*/false, {}, deadline,
                                         nullptr);
        if (!st.ok()) {
          dkey_inflight_[drank] = false;
        }
      }
      continue;
    }
    uint64_t rank = zipf_.Sample(rng);
    KeyState& ks = keys_[rank];
    if (ks.inflight) {
      continue;  // one op per key in flight: versions stay linear
    }
    ks.inflight = true;
    if (dice < config_.get_fraction) {
      Status st = co_await SendRequest(index, Opcode::kGet,
                                       KeyName(rank, false), rank,
                                       ks.acked_version, /*audit_exempt=*/false,
                                       /*audit_probe=*/false, {}, deadline,
                                       nullptr);
      if (!st.ok()) {
        ks.inflight = false;
      }
    } else {
      uint64_t version = ks.next_version + 1;
      auto value = MakeValue(rank, version, config_);
      Status st = co_await SendRequest(index, Opcode::kSet,
                                       KeyName(rank, false), rank, version,
                                       /*audit_exempt=*/false,
                                       /*audit_probe=*/false, value, deadline,
                                       nullptr);
      if (st.ok()) {
        ks.next_version = version;
      } else {
        ks.inflight = false;
        skipped_->Inc();
      }
    }
  }
  --senders_running_;
}

sim::Task<> LoadGen::Receiver(sim::StopToken& stop) {
  sim::EventLoop& loop = sock_->Loop();
  while (!stop.stopped()) {
    auto d = co_await sock_->Recv(loop.now() + kSweepInterval);
    if (!d.ok()) {
      continue;
    }
    auto rsp = DecodeResponse(d->payload);
    if (!rsp.ok()) {
      continue;  // hostile or foreign frame; never crash
    }
    auto it = outstanding_.find(rsp->seq);
    if (it == outstanding_.end()) {
      // Duplicate (lossy-link dup) or post-timeout straggler.
      late_responses_->Inc();
      continue;
    }
    Pending p = it->second;
    outstanding_.erase(it);
    if (p.sender >= 0) {
      --conn_outstanding_[static_cast<size_t>(p.sender)];
    }
    if (p.audit_exempt) {
      dkey_inflight_[p.rank] = false;
    } else if (!p.audit_probe) {
      keys_[p.rank].inflight = false;
    }
    Nanos now = loop.now();
    Nanos rtt = now - p.sent_at;

    if (p.audit_probe) {
      AuditReply reply;
      reply.status = rsp->status;
      reply.value = std::move(rsp->value);
      audit_replies_.emplace(rsp->seq, std::move(reply));
      continue;
    }

    bool in_window = phase_ != nullptr && p.sent_at >= phase_measure_from_ &&
                     now <= phase_measure_until_;
    switch (rsp->status) {
      case WireStatus::kOk: {
        last_ok_at_ = now;
        ok_->Inc();
        if (in_window) {
          rtt_ns_->Add(rtt);
        }
        if (!p.audit_exempt) {
          KeyState& ks = keys_[p.rank];
          if (p.opcode == Opcode::kSet) {
            if (p.version > ks.acked_version) {
              ks.acked_version = p.version;
              ks.acked_at = now;
            }
            ++acked_sets_;
          } else if (p.opcode == Opcode::kGet) {
            uint64_t rank = 0;
            uint64_t version = 0;
            if (!CheckValue(rsp->value, &rank, &version) || rank != p.rank ||
                version < p.version) {
              // Torn value or version rollback: hard integrity failure.
              ++integrity_failures_;
            }
          }
        }
        if (in_window) {
          ++phase_->ok;
          phase_->rtt.Add(rtt);
        }
        break;
      }
      case WireStatus::kOverloaded:
      case WireStatus::kStoreFull:
        overloaded_rsp_->Inc();
        if (in_window) {
          ++phase_->overloaded;
        }
        break;
      case WireStatus::kDeadlineExceeded:
        expired_rsp_->Inc();
        if (in_window) {
          ++phase_->expired;
        }
        break;
      case WireStatus::kNotFound:
        // A miss is a served request (memcached semantics): it counts
        // toward goodput and the latency distribution, and it proves the
        // node is serving (recovery probes watch last_ok_at).
        last_ok_at_ = now;
        if (in_window) {
          ++phase_->not_found;
          phase_->rtt.Add(rtt);
        }
        if (in_window) {
          rtt_ns_->Add(rtt);
        }
        break;
      case WireStatus::kDataLoss:
        if (in_window) {
          ++phase_->data_loss;
        }
        break;
      case WireStatus::kInvalidArgument:
        break;
    }
  }
}

sim::Task<> LoadGen::Sweeper(sim::StopToken& stop) {
  sim::EventLoop& loop = sock_->Loop();
  std::vector<uint64_t> expired;
  while (!stop.stopped()) {
    co_await sim::Delay(loop, kSweepInterval);
    Nanos now = loop.now();
    expired.clear();
    for (const auto& [op_id, p] : outstanding_) {
      if (now > p.deadline + kLateGrace) {
        expired.push_back(op_id);
      }
    }
    for (uint64_t op_id : expired) {
      auto it = outstanding_.find(op_id);
      if (it == outstanding_.end()) {
        continue;
      }
      Pending p = it->second;
      outstanding_.erase(it);
      if (p.sender >= 0) {
        --conn_outstanding_[static_cast<size_t>(p.sender)];
      }
      if (p.audit_exempt) {
        dkey_inflight_[p.rank] = false;
      } else if (!p.audit_probe) {
        // A timed-out SET may still have been applied server-side (the
        // ack was lost, not necessarily the write): next_version stays
        // consumed, acked_version does not advance.
        keys_[p.rank].inflight = false;
      }
      timeouts_->Inc();
      if (phase_ != nullptr && p.sent_at >= phase_measure_from_ &&
          p.sent_at <= phase_measure_until_) {
        ++phase_->timeouts;
      }
    }
  }
}

sim::Task<PhaseStats> LoadGen::RunPhase(double offered_ops, Nanos duration,
                                        Nanos warmup) {
  CXLPOOL_CHECK(sock_ != nullptr);  // Start() first
  sim::EventLoop& loop = sock_->Loop();
  PhaseStats stats;
  Nanos start = loop.now();
  phase_ = &stats;
  phase_measure_from_ = start + warmup;
  phase_measure_until_ = start + duration;
  senders_running_ = config_.connections;
  for (int i = 0; i < config_.connections; ++i) {
    sim::Spawn(Sender(i, offered_ops, start + duration));
  }
  while (senders_running_ > 0) {
    co_await sim::Delay(loop, 100 * kMicrosecond);
  }
  // Drain: let in-flight ops resolve or time out before closing the books.
  Nanos drain_until = loop.now() + 2 * config_.op_deadline + 2 * kSweepInterval;
  while (!outstanding_.empty() && loop.now() < drain_until) {
    co_await sim::Delay(loop, kSweepInterval);
  }
  phase_ = nullptr;
  double window_ns = static_cast<double>(phase_measure_until_ - phase_measure_from_);
  if (window_ns > 0) {
    stats.goodput_ops =
        1e9 * static_cast<double>(stats.ok + stats.not_found) / window_ns;
  }
  co_return stats;
}

sim::Task<AuditResult> LoadGen::VerifyAckedSets(Nanos exempt_before) {
  CXLPOOL_CHECK(sock_ != nullptr);
  sim::EventLoop& loop = sock_->Loop();
  AuditResult result;
  for (uint64_t rank = 0; rank < keys_.size(); ++rank) {
    KeyState& ks = keys_[rank];
    if (ks.acked_version == 0) {
      continue;
    }
    ++result.checked;
    bool resolved = false;
    for (int attempt = 0; attempt < 5 && !resolved; ++attempt) {
      Nanos deadline = loop.now() + 2 * kMillisecond;
      uint64_t op_id = 0;
      Status st = co_await SendRequest(/*sender=*/-1, Opcode::kGet,
                                       KeyName(rank, false), rank,
                                       ks.acked_version, /*audit_exempt=*/false,
                                       /*audit_probe=*/true, {}, deadline,
                                       &op_id);
      if (!st.ok()) {
        co_await sim::Delay(loop, 200 * kMicrosecond);
        continue;
      }
      while (outstanding_.contains(op_id)) {
        co_await sim::Delay(loop, 20 * kMicrosecond);
      }
      auto reply_it = audit_replies_.find(op_id);
      if (reply_it == audit_replies_.end()) {
        continue;  // timed out; retry
      }
      AuditReply reply = std::move(reply_it->second);
      audit_replies_.erase(reply_it);
      switch (reply.status) {
        case WireStatus::kOk: {
          uint64_t r = 0;
          uint64_t v = 0;
          if (CheckValue(reply.value, &r, &v) && r == rank &&
              v >= ks.acked_version) {
            ++result.present_ok;
          } else {
            ++result.integrity_failures;
          }
          resolved = true;
          break;
        }
        case WireStatus::kNotFound:
        case WireStatus::kDataLoss:
          if (ks.acked_at < exempt_before) {
            ++result.missing_old;
          } else {
            ++result.missing_recent;
          }
          resolved = true;
          break;
        default:
          co_await sim::Delay(loop, 200 * kMicrosecond);
          break;
      }
    }
    if (!resolved) {
      ++result.unverifiable;
    }
  }
  co_return result;
}

}  // namespace cxlpool::kv

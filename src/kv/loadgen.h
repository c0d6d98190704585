// kv::LoadGen: memtier-style open-loop KV driver. Keys are drawn from a
// sim::ZipfianSampler (a handful of ranks carry most of the traffic, the
// long tail goes cold and overflows to SSD), arrivals are Poisson at the
// offered rate across `connections` sender coroutines, each bounded by
// `pipeline_depth`, with a global `max_outstanding` open-loop overload
// bound (arrivals beyond it are skipped and counted, never queued).
//
// Zero-lost-acked-SETs bookkeeping: at most one operation per key is in
// flight from a client, so per-key versions are linear; values embed
// (rank, version) plus a deterministic pattern, and VerifyAckedSets()
// replays every acked key closed-loop at the end, classifying misses
// against the documented carve-outs (node restart, poisoned-media drops).
#ifndef SRC_KV_LOADGEN_H_
#define SRC_KV_LOADGEN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/kv/wire.h"
#include "src/obs/registry.h"
#include "src/sim/random.h"
#include "src/sim/stats.h"
#include "src/stack/udp.h"

namespace cxlpool::kv {

struct LoadGenConfig {
  uint16_t client_port = 9000;
  uint64_t keys = 4096;          // key-space size (ranks)
  double zipf_theta = 0.99;
  double get_fraction = 0.88;    // remainder splits into SET and DELETE
  double delete_fraction = 0.02; // drawn from a disjoint, audit-exempt range
  uint32_t value_bytes_min = 64;   // >= one cacheline (poison-heal full-line)
  uint32_t value_bytes_max = 1024; // <= pool buffer and one UDP frame
  int connections = 4;           // sender coroutines
  int pipeline_depth = 32;       // per-connection outstanding bound
  uint64_t max_outstanding = 256;  // global open-loop bound
  Nanos op_deadline = 300 * kMicrosecond;  // relative; stamped absolute
  uint64_t seed = 1;
};

// Per-phase measurements (overload_soak's PhaseResult shape): the bench
// asserts SLOs on these, and the same numbers flow into the registry.
struct PhaseStats {
  uint64_t sent = 0;
  uint64_t ok = 0;          // kOk responses received in the window
  uint64_t overloaded = 0;  // kOverloaded responses
  uint64_t expired = 0;     // kDeadlineExceeded responses
  uint64_t not_found = 0;
  uint64_t data_loss = 0;
  uint64_t timeouts = 0;    // abandoned past deadline
  uint64_t skipped = 0;     // open-loop arrivals shed client-side
  // Served responses: kOk and kNotFound (a miss is memcached service).
  sim::Histogram rtt;       // ns, served responses
  double goodput_ops = 0;   // served responses per second over the window
};

struct AuditResult {
  uint64_t checked = 0;             // keys with >= 1 acked SET
  uint64_t present_ok = 0;          // value present, pattern + version valid
  uint64_t integrity_failures = 0;  // torn value or version rollback
  uint64_t missing_recent = 0;      // missing, acked after `exempt_before`
  uint64_t missing_old = 0;         // missing, acked before `exempt_before`
  uint64_t unverifiable = 0;        // no answer after retries
};

class LoadGen {
 public:
  // Drives the node at (server_mac, server_port) from `stack`. `client_id`
  // namespaces keys ("c<id>-k<rank>") so several clients never collide.
  // Counts kvload.* under `labels` in `registry`, or under the host's scope
  // plus `labels` when it is null.
  LoadGen(stack::UdpStack* stack, netsim::MacAddr server_mac,
          uint16_t server_port, uint32_t client_id, LoadGenConfig config,
          obs::Registry* registry, obs::Labels labels = {});

  // Binds the client socket and spawns the receiver + timeout sweeper.
  Status Start(sim::StopToken& stop);

  // One open-loop phase at `offered_ops` per second. Samples sent before
  // `warmup` (from phase start) are excluded from the window stats.
  sim::Task<PhaseStats> RunPhase(double offered_ops, Nanos duration,
                                 Nanos warmup);

  // Closed-loop audit of every key with an acked SET. Keys whose last ack
  // predates `exempt_before` (e.g. a node restart) count as missing_old.
  sim::Task<AuditResult> VerifyAckedSets(Nanos exempt_before);

  uint64_t acked_sets() const { return acked_sets_; }
  // Torn values or version rollbacks seen on GET hits during load; the
  // bench asserts this stays zero (no carve-out covers corruption).
  uint64_t integrity_failures() const { return integrity_failures_; }
  // Sim time of the last served response (kOk or kNotFound) — chaos
  // recovery probes read this to decide "the server answers again".
  Nanos last_ok_at() const { return last_ok_at_; }

  // Deterministic value for (rank, version): 16-byte header embedding both
  // plus a pattern; length in [value_bytes_min, value_bytes_max].
  static std::vector<std::byte> MakeValue(uint64_t rank, uint64_t version,
                                          const LoadGenConfig& config);
  // Recovers (rank, version) and checks the pattern; false = torn.
  static bool CheckValue(std::span<const std::byte> value, uint64_t* rank,
                         uint64_t* version);

 private:
  struct KeyState {
    uint64_t next_version = 0;   // versions start at 1 on first SET
    uint64_t acked_version = 0;  // highest version acked
    Nanos acked_at = 0;
    bool inflight = false;
  };
  struct Pending {
    uint64_t rank = 0;
    Opcode opcode = Opcode::kGet;
    uint64_t version = 0;       // SET: version carried; GET: floor expected
    bool audit_exempt = false;  // DELETE-range keys
    bool audit_probe = false;   // closed-loop audit GET, reply parked aside
    int sender = -1;            // connection index, -1 for audit probes
    Nanos sent_at = 0;
    Nanos deadline = 0;
  };
  struct AuditReply {
    WireStatus status = WireStatus::kOk;
    std::vector<std::byte> value;
  };

  sim::Task<> Sender(int index, double offered_ops, Nanos until);
  sim::Task<> Receiver(sim::StopToken& stop);
  sim::Task<> Sweeper(sim::StopToken& stop);
  std::string KeyName(uint64_t rank, bool delete_range) const;
  sim::Task<Status> SendRequest(int sender, Opcode op, const std::string& key,
                                uint64_t rank, uint64_t version,
                                bool audit_exempt, bool audit_probe,
                                std::span<const std::byte> value,
                                Nanos deadline, uint64_t* op_id_out);

  stack::UdpStack* stack_;
  netsim::MacAddr server_mac_;
  uint16_t server_port_;
  uint32_t client_id_;
  LoadGenConfig config_;
  stack::UdpSocket* sock_ = nullptr;
  sim::ZipfianSampler zipf_;

  std::vector<KeyState> keys_;
  std::vector<int> conn_outstanding_;   // per-connection pipeline occupancy
  std::vector<bool> dkey_inflight_;     // DELETE-range single-inflight
  std::unordered_map<uint64_t, Pending> outstanding_;  // op id -> pending
  std::unordered_map<uint64_t, AuditReply> audit_replies_;
  uint64_t next_op_id_ = 1;
  int senders_running_ = 0;

  // Current phase accumulator (null between phases); receiver writes here.
  PhaseStats* phase_ = nullptr;
  Nanos phase_measure_from_ = 0;
  Nanos phase_measure_until_ = 0;

  uint64_t acked_sets_ = 0;
  uint64_t integrity_failures_ = 0;
  Nanos last_ok_at_ = 0;

  obs::Counter* sent_;
  obs::Counter* ok_;
  obs::Counter* overloaded_rsp_;
  obs::Counter* expired_rsp_;
  obs::Counter* timeouts_;
  obs::Counter* skipped_;
  obs::Counter* late_responses_;
  sim::Histogram* rtt_ns_;
};

}  // namespace cxlpool::kv

#endif  // SRC_KV_LOADGEN_H_

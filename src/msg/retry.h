// RetryPolicy: exponential backoff with deterministic, seeded jitter for
// control-plane RPCs. A single timed-out migrate or report RPC must not be
// terminal — the fault that delayed it (link blip, restarting server, MHD
// hiccup) usually clears within a few backoff periods. Jitter decorrelates
// concurrent retriers (every lessee of a failed device retries at once);
// the Rng is explicit so whole experiments still replay bit-for-bit.
#ifndef SRC_MSG_RETRY_H_
#define SRC_MSG_RETRY_H_

#include <vector>

#include "src/common/status.h"
#include "src/msg/rpc.h"
#include "src/sim/random.h"

namespace cxlpool::msg {

class RetryPolicy {
 public:
  struct Options {
    int max_attempts = 4;
    Nanos initial_backoff = 20 * kMicrosecond;
    Nanos max_backoff = 400 * kMicrosecond;
    double multiplier = 2.0;
    // Each backoff is scaled by a uniform factor in [1-jitter, 1+jitter].
    double jitter = 0.25;
    // Per-attempt deadline escalation: attempt N waits
    // attempt_timeout * multiplier^(N-1). >1 lets callers probe with an
    // aggressive first deadline (fast failover) while later attempts wait
    // long enough for a slow-but-alive peer to answer — the pattern that
    // turns a timeout-triggered duplicate into a dedup hit instead of an
    // error (see ForwardedMmioPath).
    double timeout_multiplier = 1.0;
    // Token-bucket retry budget: each fresh Call earns `budget_ratio`
    // tokens (capped at budget_burst) and every retry spends one, so
    // sustained retries can never exceed that fraction of fresh load —
    // the amplification bound that keeps a saturated path from feeding
    // itself. The bucket starts full (burst), so isolated failures still
    // get their max_attempts.
    double budget_ratio = 0.1;
    double budget_burst = 10.0;
    uint64_t seed = 0x9e3779b97f4a7c15ULL;
  };

  // Counts under `scope`: retry.calls, retry.retries (attempts beyond the
  // first), retry.exhausted (calls that failed after max_attempts) and
  // retry.budget_denied (retries the token bucket refused).
  explicit RetryPolicy(const obs::Scope& scope) : RetryPolicy(scope, Options()) {}
  RetryPolicy(const obs::Scope& scope, Options options);

  // Transient failures worth retrying: the peer may come back (timeout) or
  // the path may heal (unavailable). Application errors are terminal.
  static bool IsRetryable(const Status& status) {
    return status.code() == StatusCode::kDeadlineExceeded ||
           status.code() == StatusCode::kUnavailable;
  }

  // Jittered backoff before retry number `retry` (1-based). Advances the
  // internal Rng.
  Nanos BackoffFor(int retry);

  // RpcClient::Call with up to max_attempts attempts. Each attempt gets a
  // fresh deadline of now + attempt_timeout; retryable failures back off
  // (exponential + jitter) between attempts, gated by the retry budget.
  // `ctx` is forwarded to every attempt, so retried attempts stay in the
  // originating trace. `op_deadline` (absolute, 0 = none) caps the whole
  // operation: attempt deadlines never exceed it and no retry starts past
  // it — this is the deadline the wire header propagates downstream.
  // `priority` rides every attempt's header (control jumps client queues
  // and is never shed by home agents).
  sim::Task<Result<std::vector<std::byte>>> Call(RpcClient& client,
                                                 uint16_t method,
                                                 std::span<const std::byte> request,
                                                 Nanos attempt_timeout,
                                                 sim::EventLoop& loop,
                                                 obs::TraceContext ctx = {},
                                                 Nanos op_deadline = 0,
                                                 uint8_t priority = kPriorityData);

  const Options& options() const { return options_; }
  double budget_tokens() const { return budget_tokens_; }

 private:
  // True (and spends a token) when the budget allows another retry.
  bool SpendRetryToken();

  Options options_;
  sim::Rng rng_;
  double budget_tokens_;
  obs::Counter* calls_;
  obs::Counter* retries_;
  obs::Counter* exhausted_;
  obs::Counter* budget_denied_;
};

}  // namespace cxlpool::msg

#endif  // SRC_MSG_RETRY_H_

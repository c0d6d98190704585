#include "src/msg/retry.h"

#include <algorithm>

namespace cxlpool::msg {

RetryPolicy::RetryPolicy(const obs::Scope& scope, Options options)
    : options_(options),
      rng_(options.seed),
      budget_tokens_(options.budget_burst),
      calls_(scope.GetCounter("retry.calls")),
      retries_(scope.GetCounter("retry.retries")),
      exhausted_(scope.GetCounter("retry.exhausted")),
      budget_denied_(scope.GetCounter("retry.budget_denied")) {}

Nanos RetryPolicy::BackoffFor(int retry) {
  double base = static_cast<double>(options_.initial_backoff);
  for (int i = 1; i < retry; ++i) {
    base *= options_.multiplier;
  }
  base = std::min(base, static_cast<double>(options_.max_backoff));
  double factor = rng_.Uniform(1.0 - options_.jitter, 1.0 + options_.jitter);
  return std::max<Nanos>(1, static_cast<Nanos>(base * factor));
}

bool RetryPolicy::SpendRetryToken() {
  if (budget_tokens_ < 1.0) {
    budget_denied_->Inc();
    return false;
  }
  budget_tokens_ -= 1.0;
  return true;
}

sim::Task<Result<std::vector<std::byte>>> RetryPolicy::Call(
    RpcClient& client, uint16_t method, std::span<const std::byte> request,
    Nanos attempt_timeout, sim::EventLoop& loop, obs::TraceContext ctx,
    Nanos op_deadline, uint8_t priority) {
  calls_->Inc();
  // Every fresh call earns budget_ratio retry tokens: sustained retries are
  // bounded to that fraction of fresh load plus the burst.
  budget_tokens_ =
      std::min(options_.budget_burst, budget_tokens_ + options_.budget_ratio);
  Result<std::vector<std::byte>> result = InvalidArgument("no attempts made");
  Nanos timeout = attempt_timeout;
  for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
    if (attempt > 1) {
      retries_->Inc();
      co_await sim::Delay(loop, BackoffFor(attempt - 1));
      if (options_.timeout_multiplier > 1.0) {
        timeout = std::max<Nanos>(
            1, static_cast<Nanos>(static_cast<double>(timeout) *
                                  options_.timeout_multiplier));
      }
    }
    if (op_deadline > 0 && loop.now() >= op_deadline) {
      // The operation's budget is gone; another attempt is dead on
      // arrival at every hop that checks the propagated deadline. Keep the
      // last attempt's failure (it explains what ate the budget).
      if (attempt == 1) {
        result = DeadlineExceeded("op deadline expired before first attempt");
      }
      break;
    }
    Nanos attempt_deadline = loop.now() + timeout;
    if (op_deadline > 0) {
      attempt_deadline = std::min(attempt_deadline, op_deadline);
    }
    // The wire carries op_deadline, never attempt_deadline: a timed-out
    // attempt's frame still applies at the home agent (the retry dedups),
    // so only the op's real budget may cause downstream shedding.
    result = co_await client.Call(method, request, attempt_deadline, ctx,
                                  priority, op_deadline);
    if (result.ok() || !IsRetryable(result.status())) {
      co_return result;
    }
    if (attempt < options_.max_attempts && !SpendRetryToken()) {
      co_return result;  // budget empty: surface the last failure as-is
    }
  }
  exhausted_->Inc();
  co_return result;
}

}  // namespace cxlpool::msg

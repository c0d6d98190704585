#include "src/msg/backpressure.h"

#include <cmath>

#include "src/common/check.h"

namespace cxlpool::msg {

AdmissionController::AdmissionController(const obs::Scope& scope, Options options)
    : options_(options),
      control_hist_(scope.GetHistogram("rpc.queue_delay_ns", {{"priority", "control"}})),
      data_hist_(scope.GetHistogram("rpc.queue_delay_ns", {{"priority", "data"}})),
      inflight_gauge_(scope.GetGauge("agent.inflight")),
      observed_(scope.GetCounter("admission.observed")),
      shed_(scope.GetCounter("admission.shed")),
      inflight_rejects_(scope.GetCounter("admission.inflight_rejects")) {
  inflight_gauge_->Set(0);
}

bool AdmissionController::ShouldShed(Nanos sojourn, uint8_t priority,
                                     Nanos now) {
  observed_->Inc();
  if (priority == kPriorityControl) {
    control_hist_->Add(sojourn);
    return false;  // control plane is never shed, never drives CoDel state
  }
  data_hist_->Add(sojourn);
  if (sojourn < options_.target) {
    first_above_ = 0;
    dropping_ = false;
    return false;
  }
  if (first_above_ == 0) {
    // First sojourn above target: arm the interval, shed nothing yet.
    first_above_ = now + options_.interval;
    return false;
  }
  if (!dropping_) {
    if (now < first_above_) {
      return false;  // above target but the interval hasn't elapsed
    }
    dropping_ = true;
    drop_count_ = 0;
    drop_next_ = now;
  }
  if (now >= drop_next_) {
    ++drop_count_;
    // Classic CoDel cadence: drop faster the longer the queue stays above
    // target (interval / sqrt(count)).
    drop_next_ =
        now + static_cast<Nanos>(static_cast<double>(options_.interval) /
                                 std::sqrt(static_cast<double>(drop_count_)));
    shed_->Inc();
    return true;
  }
  return false;
}

bool AdmissionController::TryEnterServe() {
  if (options_.max_inflight > 0 && inflight_ >= options_.max_inflight) {
    inflight_rejects_->Inc();
    return false;
  }
  ++inflight_;
  inflight_gauge_->Set(inflight_);
  return true;
}

void AdmissionController::ExitServe() {
  if (inflight_ > 0) {
    --inflight_;
  }
  inflight_gauge_->Set(inflight_);
}

CircuitBreaker::CircuitBreaker(const obs::Scope& scope, Options options)
    : options_(options),
      state_gauge_(scope.GetGauge("breaker.state")),
      opens_(scope.GetCounter("breaker.opens")),
      fast_fails_(scope.GetCounter("breaker.fast_fails")),
      probes_(scope.GetCounter("breaker.probes")) {
  CXLPOOL_CHECK(options_.failure_threshold > 0);
  state_gauge_->Set(static_cast<int64_t>(state_));
}

void CircuitBreaker::SetState(State state) {
  state_ = state;
  state_gauge_->Set(static_cast<int64_t>(state));
}

bool CircuitBreaker::Allow(Nanos now) {
  switch (state(now)) {
    case State::kClosed:
      return true;
    case State::kHalfOpen:
      probes_->Inc();
      return true;
    case State::kOpen:
      fast_fails_->Inc();
      return false;
  }
  return true;
}

CircuitBreaker::State CircuitBreaker::state(Nanos now) {
  if (state_ == State::kOpen && now >= opened_at_ + options_.open_duration) {
    SetState(State::kHalfOpen);
    half_open_streak_ = 0;
  }
  return state_;
}

void CircuitBreaker::Trip(Nanos now) {
  SetState(State::kOpen);
  opened_at_ = now;
  consecutive_failures_ = 0;
  half_open_streak_ = 0;
  opens_->Inc();
  if (on_open_) {
    on_open_();
  }
}

void CircuitBreaker::RecordSuccess(Nanos now) {
  switch (state(now)) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kHalfOpen:
      if (++half_open_streak_ >= options_.half_open_successes) {
        SetState(State::kClosed);
        consecutive_failures_ = 0;
      }
      break;
    case State::kOpen:
      break;  // stale completion from before the trip; ignore
  }
}

void CircuitBreaker::RecordFailure(Nanos now) {
  switch (state(now)) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        Trip(now);
      }
      break;
    case State::kHalfOpen:
      Trip(now);  // the probe failed; straight back to open
      break;
    case State::kOpen:
      break;
  }
}

}  // namespace cxlpool::msg

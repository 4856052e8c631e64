#include "engine/resilience.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

namespace bifrost::engine {
namespace {

runtime::Duration from_seconds(double s) {
  return std::chrono::duration_cast<runtime::Duration>(
      std::chrono::duration<double>(s));
}

double to_seconds(runtime::Duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Shared per-call state of the two decorators. `mutex` guards `rng`,
/// `breakers` (and every breaker in it) and `attempts`; it is never held
/// across the inner call, the sleep or the listener, so concurrent
/// calls (parallel checks, concurrent region pushes) overlap.
struct CallContext {
  runtime::Scheduler& clock;
  const SleepFn& sleep;
  const StatusListener& listener;
  std::mutex& mutex;
  util::Rng& rng;
  std::map<std::string, std::unique_ptr<CircuitBreaker>>& breakers;
  std::uint64_t& attempts;
};

void emit(const CallContext& ctx, StatusEvent::Type type,
          const std::string& target, double value, const std::string& detail) {
  if (!ctx.listener) return;
  StatusEvent event;
  event.time_seconds = to_seconds(ctx.clock.now());
  event.type = type;
  event.check = target;
  event.value = value;
  event.detail = detail;
  ctx.listener(event);
}

/// Retry loop + breaker gate shared by both edges. `attempt_fn` issues
/// one inner call; `make_error` builds the edge's error result type.
template <typename ResultT, typename AttemptFn, typename MakeErrorFn>
ResultT run_with_policy(const CallContext& ctx, const std::string& key,
                        const core::RetryPolicy& retry,
                        const core::CircuitBreakerPolicy& breaker_policy,
                        AttemptFn&& attempt_fn, MakeErrorFn&& make_error) {
  CircuitBreaker* breaker = nullptr;
  if (breaker_policy.enabled) {
    const std::lock_guard<std::mutex> lock(ctx.mutex);
    auto& slot = ctx.breakers[key];
    if (!slot) slot = std::make_unique<CircuitBreaker>(breaker_policy);
    breaker = slot.get();
  }

  const int max_attempts = std::max(1, retry.max_attempts);
  ResultT result = make_error("no attempt made");
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    const runtime::Time started = ctx.clock.now();
    const bool allowed = [&] {
      const std::lock_guard<std::mutex> lock(ctx.mutex);
      if (breaker != nullptr && !breaker->allow(started)) return false;
      ++ctx.attempts;
      return true;
    }();
    if (!allowed) {
      // Fail fast without touching the dependency; a later attempt (or
      // call) may find the breaker half-open once open_duration elapsed.
      result = make_error("circuit open for '" + key + "'");
    } else {
      result = attempt_fn();
      const runtime::Duration elapsed = ctx.clock.now() - started;
      if (result.ok() && retry.attempt_timeout > runtime::Duration::zero() &&
          elapsed > retry.attempt_timeout) {
        result = make_error("attempt against '" + key + "' took " +
                            std::to_string(to_seconds(elapsed)) +
                            "s, exceeding the " +
                            std::to_string(to_seconds(retry.attempt_timeout)) +
                            "s timeout");
      }
      if (breaker != nullptr) {
        auto transition = CircuitBreaker::Transition::kNone;
        runtime::Time open_until{0};
        {
          const std::lock_guard<std::mutex> lock(ctx.mutex);
          transition = result.ok() ? breaker->record_success()
                                   : breaker->record_failure(ctx.clock.now());
          open_until = breaker->open_until();
        }
        if (transition == CircuitBreaker::Transition::kOpened) {
          emit(ctx, StatusEvent::Type::kCircuitOpened, key, 0.0,
               "breaker open until t=" +
                   std::to_string(to_seconds(open_until)) + "s");
        } else if (transition == CircuitBreaker::Transition::kClosed) {
          emit(ctx, StatusEvent::Type::kCircuitClosed, key, 0.0, "recovered");
        }
      }
    }
    if (result.ok() || attempt == max_attempts) break;
    emit(ctx, StatusEvent::Type::kRetried, key, static_cast<double>(attempt),
         result.error_message());
    const runtime::Duration delay = [&] {
      const std::lock_guard<std::mutex> lock(ctx.mutex);
      return backoff_delay(retry, attempt, ctx.rng);
    }();
    if (ctx.sleep) ctx.sleep(delay);
  }
  return result;
}

std::string provider_key(const core::ProviderConfig& provider) {
  return provider.host + ":" + std::to_string(provider.port);
}

const CircuitBreaker* find_breaker(
    std::mutex& mutex,
    const std::map<std::string, std::unique_ptr<CircuitBreaker>>& breakers,
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex);
  const auto it = breakers.find(key);
  return it != breakers.end() ? it->second.get() : nullptr;
}

}  // namespace

SleepFn thread_sleeper() {
  return [](runtime::Duration delay) { std::this_thread::sleep_for(delay); };
}

runtime::Duration backoff_base(const core::RetryPolicy& policy, int attempt) {
  const double cap = to_seconds(policy.max_backoff);
  double delay = to_seconds(policy.initial_backoff);
  for (int i = 1; i < attempt && delay < cap; ++i) {
    delay *= std::max(1.0, policy.multiplier);
  }
  return from_seconds(std::min(delay, cap));
}

runtime::Duration backoff_delay(const core::RetryPolicy& policy, int attempt,
                                util::Rng& rng) {
  const double base = to_seconds(backoff_base(policy, attempt));
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  return from_seconds(base * (1.0 + jitter * rng.uniform()));
}

bool CircuitBreaker::allow(runtime::Time now) {
  if (!policy_.enabled) return true;
  switch (state_) {
    case State::kClosed:
    case State::kHalfOpen:
      return true;
    case State::kOpen:
      if (now >= open_until_) {
        state_ = State::kHalfOpen;
        probe_successes_ = 0;
        return true;
      }
      return false;
  }
  return true;
}

CircuitBreaker::Transition CircuitBreaker::record_success() {
  if (!policy_.enabled) return Transition::kNone;
  consecutive_failures_ = 0;
  if (state_ == State::kHalfOpen &&
      ++probe_successes_ >= policy_.half_open_probes) {
    state_ = State::kClosed;
    return Transition::kClosed;
  }
  return Transition::kNone;
}

CircuitBreaker::Transition CircuitBreaker::record_failure(runtime::Time now) {
  if (!policy_.enabled) return Transition::kNone;
  if (state_ == State::kHalfOpen ||
      (state_ == State::kClosed &&
       ++consecutive_failures_ >= policy_.failure_threshold)) {
    state_ = State::kOpen;
    open_until_ = now + policy_.open_duration;
    consecutive_failures_ = 0;
    return Transition::kOpened;
  }
  return Transition::kNone;
}

ResilientMetricsClient::ResilientMetricsClient(MetricsClient& inner,
                                               runtime::Scheduler& clock,
                                               SleepFn sleep,
                                               std::uint64_t jitter_seed)
    : inner_(inner), clock_(clock), sleep_(std::move(sleep)),
      rng_(jitter_seed) {}

util::Result<std::optional<double>> ResilientMetricsClient::query(
    const core::ProviderConfig& provider, const std::string& query) {
  using R = util::Result<std::optional<double>>;
  const CallContext ctx{clock_, sleep_,    listener_, mutex_,
                        rng_,   breakers_, attempts_};
  return run_with_policy<R>(
      ctx, provider_key(provider), provider.retry, provider.circuit_breaker,
      [&] { return inner_.query(provider, query); },
      [](std::string message) { return R::error(std::move(message)); });
}

const CircuitBreaker* ResilientMetricsClient::breaker(
    const std::string& key) const {
  return find_breaker(mutex_, breakers_, key);
}

ResilientProxyController::ResilientProxyController(ProxyController& inner,
                                                   runtime::Scheduler& clock,
                                                   SleepFn sleep,
                                                   std::uint64_t jitter_seed)
    : inner_(inner), clock_(clock), sleep_(std::move(sleep)),
      rng_(jitter_seed) {}

util::Result<void> ResilientProxyController::apply(
    const core::ServiceDef& service, const proxy::ProxyConfig& config) {
  using R = util::Result<void>;
  const CallContext ctx{clock_, sleep_,    listener_, mutex_,
                        rng_,   breakers_, attempts_};
  return run_with_policy<R>(
      ctx, service.name, service.retry, service.circuit_breaker,
      [&] { return inner_.apply(service, config); },
      [](std::string message) { return R::error(std::move(message)); });
}

util::Result<void> ResilientProxyController::apply_region(
    const core::ServiceDef& service, const core::RegionDef& region,
    const proxy::ProxyConfig& config) {
  using R = util::Result<void>;
  const CallContext ctx{clock_, sleep_,    listener_, mutex_,
                        rng_,   breakers_, attempts_};
  return run_with_policy<R>(
      ctx, service.name + "/" + region.name, service.retry,
      service.circuit_breaker,
      [&] { return inner_.apply_region(service, region, config); },
      [](std::string message) { return R::error(std::move(message)); });
}

const CircuitBreaker* ResilientProxyController::breaker(
    const std::string& key) const {
  return find_breaker(mutex_, breakers_, key);
}

}  // namespace bifrost::engine

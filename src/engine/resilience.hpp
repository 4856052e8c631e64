// Fault tolerance for the engine's outside-world edges. The strategy
// interpreter stays oblivious: ResilientMetricsClient and
// ResilientProxyController wrap any MetricsClient / ProxyController and
// enforce the RetryPolicy / CircuitBreakerPolicy carried on the model's
// ProviderConfig / ServiceDef. Retries block the run-to-completion
// engine for the backoff duration (exactly like the Node.js prototype
// being modeled), so the sleep is pluggable: wall-clock sleep in the
// real middleware, Simulation::wait_external under the simulator.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/model.hpp"
#include "engine/interfaces.hpp"
#include "runtime/scheduler.hpp"
#include "util/rng.hpp"

namespace bifrost::engine {

/// Blocks the calling thread (or advances virtual time) for `delay`
/// between retry attempts.
using SleepFn = std::function<void(runtime::Duration)>;

/// SleepFn for the real middleware: std::this_thread::sleep_for.
SleepFn thread_sleeper();

/// Base (un-jittered) backoff before retry number `attempt` (1-based:
/// the delay after the attempt-th failed call). Grows by
/// `policy.multiplier` per attempt and saturates at `policy.max_backoff`.
/// Monotonically non-decreasing in `attempt`.
runtime::Duration backoff_base(const core::RetryPolicy& policy, int attempt);

/// Base backoff plus deterministic jitter from `rng`: a value in
/// [base, base * (1 + policy.jitter)].
runtime::Duration backoff_delay(const core::RetryPolicy& policy, int attempt,
                                util::Rng& rng);

/// Per-target circuit breaker state machine
/// (closed -> open -> half-open -> closed).
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };
  enum class Transition { kNone, kOpened, kClosed };

  explicit CircuitBreaker(core::CircuitBreakerPolicy policy)
      : policy_(policy) {}

  /// Whether a call may proceed at `now`. An open breaker whose
  /// open-duration elapsed moves to half-open and admits probes.
  [[nodiscard]] bool allow(runtime::Time now);

  /// Records the outcome of an admitted call; returns the breaker
  /// transition it caused (if any) so the caller can emit events.
  Transition record_success();
  Transition record_failure(runtime::Time now);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] runtime::Time open_until() const { return open_until_; }

 private:
  core::CircuitBreakerPolicy policy_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int probe_successes_ = 0;
  runtime::Time open_until_{0};
};

/// MetricsClient decorator enforcing the per-provider retry policy and
/// circuit breaker. Emits kRetried / kCircuitOpened / kCircuitClosed
/// status events (strategy_id empty, `check` holds the target key) via
/// the listener — wire it to Engine::log_event so operators see
/// degradation on the dashboard and CLI event stream. Thread-safe when
/// the inner client is (parallel check jobs query it concurrently); the
/// listener is then called from those threads too.
class ResilientMetricsClient final : public MetricsClient {
 public:
  ResilientMetricsClient(MetricsClient& inner, runtime::Scheduler& clock,
                         SleepFn sleep, std::uint64_t jitter_seed = 0);

  void set_listener(StatusListener listener) {
    listener_ = std::move(listener);
  }

  util::Result<std::optional<double>> query(
      const core::ProviderConfig& provider, const std::string& query) override;

  /// Inner calls actually issued (for attempt accounting in tests).
  [[nodiscard]] std::uint64_t attempts() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return attempts_;
  }

  /// Breaker for a target key, if one was ever created.
  [[nodiscard]] const CircuitBreaker* breaker(const std::string& key) const;

 private:
  MetricsClient& inner_;
  runtime::Scheduler& clock_;
  SleepFn sleep_;
  StatusListener listener_;
  mutable std::mutex mutex_;  ///< guards rng_, breakers_ and attempts_
  util::Rng rng_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  std::uint64_t attempts_ = 0;
};

/// ProxyController decorator; the ServiceDef's policies apply.
/// Thread-safe when the inner controller is: a fleet push on an engine
/// with a check executor applies its regions concurrently.
class ResilientProxyController final : public ProxyController {
 public:
  ResilientProxyController(ProxyController& inner, runtime::Scheduler& clock,
                           SleepFn sleep, std::uint64_t jitter_seed = 0);

  void set_listener(StatusListener listener) {
    listener_ = std::move(listener);
  }

  util::Result<void> apply(const core::ServiceDef& service,
                           const proxy::ProxyConfig& config) override;

  /// Per-region push with the same retry/breaker policy, keyed
  /// "service/region" so one partitioned region tripping its breaker
  /// never blocks pushes to the rest of the fleet.
  util::Result<void> apply_region(const core::ServiceDef& service,
                                  const core::RegionDef& region,
                                  const proxy::ProxyConfig& config) override;

  /// Read-back passes straight through: reconciliation does its own
  /// fallback (re-apply) when the proxy cannot be read, so wrapping it
  /// in retries would only delay startup.
  util::Result<ProxyStateView> fetch(const core::ServiceDef& service) override {
    return inner_.fetch(service);
  }
  util::Result<ProxyStateView> fetch_region(
      const core::ServiceDef& service, const core::RegionDef& region) override {
    return inner_.fetch_region(service, region);
  }

  [[nodiscard]] std::uint64_t attempts() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return attempts_;
  }
  [[nodiscard]] const CircuitBreaker* breaker(const std::string& key) const;

 private:
  ProxyController& inner_;
  runtime::Scheduler& clock_;
  SleepFn sleep_;
  StatusListener listener_;
  mutable std::mutex mutex_;  ///< guards rng_, breakers_ and attempts_
  util::Rng rng_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>> breakers_;
  std::uint64_t attempts_ = 0;
};

}  // namespace bifrost::engine

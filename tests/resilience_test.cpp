// Fault-tolerance layer: retry/backoff schedules, per-target circuit
// breakers, and deterministic fault injection under the simulator.
//
// The failure-matrix suite sweeps {metrics query, proxy apply} x
// {transient fault, permanent fault, per-attempt timeout, latency
// spike} x {retry on/off} x {breaker on/off} and asserts inner attempt
// counts, emitted events, and final call outcome for every cell. The
// acceptance tests then run whole strategies against a seeded
// sim::FaultPlan and pin the resulting event streams down to exact
// virtual timestamps, three repeated runs each. A last test pushes the
// regions of a fleet concurrently through the proxy decorator (the
// TSan lane checks its bookkeeping is guarded).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/model.hpp"
#include "engine/execution.hpp"
#include "engine/fleet.hpp"
#include "engine/resilience.hpp"
#include "runtime/manual_clock.hpp"
#include "runtime/work_stealing_pool.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sim_env.hpp"
#include "sim/simulation.hpp"

namespace bifrost {
namespace {

using namespace std::chrono_literals;
using engine::CircuitBreaker;
using engine::StatusEvent;

sim::Simulation::Options no_overhead() {
  sim::Simulation::Options options;
  options.dispatch_overhead = 0ns;
  return options;
}

// ---------------------------------------------------------------------------
// Backoff schedule

TEST(Backoff, ExponentialBaseSaturatesAtCap) {
  core::RetryPolicy policy;
  policy.initial_backoff = 1s;
  policy.multiplier = 2.0;
  policy.max_backoff = 5s;
  EXPECT_EQ(engine::backoff_base(policy, 1), 1s);
  EXPECT_EQ(engine::backoff_base(policy, 2), 2s);
  EXPECT_EQ(engine::backoff_base(policy, 3), 4s);
  EXPECT_EQ(engine::backoff_base(policy, 4), 5s);  // capped (would be 8)
  EXPECT_EQ(engine::backoff_base(policy, 20), 5s);
}

TEST(Backoff, ZeroJitterIsExactlyTheBase) {
  core::RetryPolicy policy;
  policy.initial_backoff = 250ms;
  policy.multiplier = 2.0;
  policy.max_backoff = 60s;
  util::Rng rng(1);
  EXPECT_EQ(engine::backoff_delay(policy, 1, rng), 250ms);
  EXPECT_EQ(engine::backoff_delay(policy, 2, rng), 500ms);
}

TEST(Backoff, JitterStaysWithinBandAndIsSeedDeterministic) {
  core::RetryPolicy policy;
  policy.initial_backoff = 1s;
  policy.multiplier = 2.0;
  policy.max_backoff = 60s;
  policy.jitter = 0.5;
  util::Rng a(42), b(42);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const auto base = engine::backoff_base(policy, attempt);
    const auto delay = engine::backoff_delay(policy, attempt, a);
    EXPECT_GE(delay, base);
    EXPECT_LE(delay, base + base / 2);
    EXPECT_EQ(delay, engine::backoff_delay(policy, attempt, b));
  }
}

// ---------------------------------------------------------------------------
// Circuit breaker state machine

core::CircuitBreakerPolicy breaker_policy(int threshold,
                                          runtime::Duration open_duration,
                                          int probes = 1) {
  core::CircuitBreakerPolicy policy;
  policy.enabled = true;
  policy.failure_threshold = threshold;
  policy.open_duration = open_duration;
  policy.half_open_probes = probes;
  return policy;
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreaker breaker(breaker_policy(3, 10s));
  const runtime::Time t0{0s};
  EXPECT_EQ(breaker.record_failure(t0), CircuitBreaker::Transition::kNone);
  EXPECT_EQ(breaker.record_failure(t0), CircuitBreaker::Transition::kNone);
  EXPECT_EQ(breaker.record_failure(t0), CircuitBreaker::Transition::kOpened);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.open_until(), runtime::Time{10s});
  EXPECT_FALSE(breaker.allow(runtime::Time{5s}));
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  CircuitBreaker breaker(breaker_policy(2, 10s));
  breaker.record_failure(runtime::Time{0s});
  breaker.record_success();
  EXPECT_EQ(breaker.record_failure(runtime::Time{0s}),
            CircuitBreaker::Transition::kNone);  // streak restarted
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  CircuitBreaker breaker(breaker_policy(1, 10s));
  breaker.record_failure(runtime::Time{0s});
  EXPECT_FALSE(breaker.allow(runtime::Time{9s}));
  EXPECT_TRUE(breaker.allow(runtime::Time{10s}));  // half-open probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.record_success(), CircuitBreaker::Transition::kClosed);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenFailureReopensImmediately) {
  CircuitBreaker breaker(breaker_policy(3, 10s));
  for (int i = 0; i < 3; ++i) breaker.record_failure(runtime::Time{0s});
  EXPECT_TRUE(breaker.allow(runtime::Time{10s}));
  EXPECT_EQ(breaker.record_failure(runtime::Time{10s}),
            CircuitBreaker::Transition::kOpened);  // one strike in half-open
  EXPECT_EQ(breaker.open_until(), runtime::Time{20s});
}

TEST(CircuitBreakerTest, MultipleProbesRequiredWhenConfigured) {
  CircuitBreaker breaker(breaker_policy(1, 10s, /*probes=*/2));
  breaker.record_failure(runtime::Time{0s});
  EXPECT_TRUE(breaker.allow(runtime::Time{10s}));
  EXPECT_EQ(breaker.record_success(), CircuitBreaker::Transition::kNone);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.record_success(), CircuitBreaker::Transition::kClosed);
}

// ---------------------------------------------------------------------------
// Scripted inner fakes for the decorator matrix. Latency is modeled on
// the simulation clock so per-attempt timeouts observe real elapsed
// virtual time.

class ScriptedMetrics final : public engine::MetricsClient {
 public:
  ScriptedMetrics(sim::Simulation& sim) : sim_(sim) {}

  int fail_first = 0;    ///< leading calls that fail
  bool fail_all = false;
  runtime::Duration latency{0};
  int calls = 0;

  util::Result<std::optional<double>> query(const core::ProviderConfig&,
                                            const std::string&) override {
    ++calls;
    sim_.wait_external(latency);
    if (fail_all || calls <= fail_first) {
      return util::Result<std::optional<double>>::error("scripted failure");
    }
    return std::optional<double>(1.0);
  }

 private:
  sim::Simulation& sim_;
};

class ScriptedProxies final : public engine::ProxyController {
 public:
  ScriptedProxies(sim::Simulation& sim) : sim_(sim) {}

  int fail_first = 0;
  bool fail_all = false;
  runtime::Duration latency{0};
  int calls = 0;

  util::Result<void> apply(const core::ServiceDef&,
                           const proxy::ProxyConfig&) override {
    ++calls;
    sim_.wait_external(latency);
    if (fail_all || calls <= fail_first) {
      return util::Result<void>::error("scripted failure");
    }
    return {};
  }

 private:
  sim::Simulation& sim_;
};

// ---------------------------------------------------------------------------
// Failure matrix

enum class Edge { kMetrics, kProxy };
enum class Fault { kTransient, kPermanent, kTimeout, kLatencySpike };

struct MatrixCase {
  Edge edge;
  Fault fault;
  bool retry_on;
  bool breaker_on;
};

std::string case_name(const testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name = c.edge == Edge::kMetrics ? "Metrics" : "Proxy";
  switch (c.fault) {
    case Fault::kTransient: name += "Transient"; break;
    case Fault::kPermanent: name += "Permanent"; break;
    case Fault::kTimeout: name += "Timeout"; break;
    case Fault::kLatencySpike: name += "LatencySpike"; break;
  }
  name += c.retry_on ? "RetryOn" : "RetryOff";
  name += c.breaker_on ? "BreakerOn" : "BreakerOff";
  return name;
}

class ResilienceMatrixTest : public testing::TestWithParam<MatrixCase> {
 protected:
  /// Retry: 4 attempts, 1s/2x backoff. Timeout faults get a 1 s
  /// per-attempt budget (enforced even when retries are off).
  core::RetryPolicy retry_policy(const MatrixCase& c) const {
    core::RetryPolicy policy;
    policy.max_attempts = c.retry_on ? 4 : 1;
    policy.initial_backoff = 1s;
    policy.multiplier = 2.0;
    policy.max_backoff = 60s;
    if (c.fault == Fault::kTimeout) policy.attempt_timeout = 1s;
    return policy;
  }

  core::CircuitBreakerPolicy breaker(const MatrixCase& c) const {
    core::CircuitBreakerPolicy policy;
    policy.enabled = c.breaker_on;
    policy.failure_threshold = 3;
    policy.open_duration = 120s;  // longer than any backoff in the run
    return policy;
  }

  /// A call fails on its own in the transient (first 2 calls),
  /// permanent, and timeout (5 s latency vs 1 s budget) cells; a latency
  /// spike is slow but within budget (none configured), so it succeeds.
  void configure(Fault fault, int& fail_first, bool& fail_all,
                 runtime::Duration& latency) const {
    switch (fault) {
      case Fault::kTransient: fail_first = 2; break;
      case Fault::kPermanent: fail_all = true; break;
      case Fault::kTimeout: latency = 5s; break;
      case Fault::kLatencySpike: latency = 5s; break;
    }
  }

  bool expect_ok(const MatrixCase& c) const {
    switch (c.fault) {
      case Fault::kTransient: return c.retry_on;  // 2 failures < 4 attempts
      case Fault::kPermanent: return false;
      case Fault::kTimeout: return false;
      case Fault::kLatencySpike: return true;
    }
    return false;
  }

  /// Inner calls actually issued: the breaker (threshold 3) eats the
  /// 4th attempt of a permanently failing call when retries are on.
  int expect_attempts(const MatrixCase& c) const {
    if (c.fault == Fault::kLatencySpike) return 1;
    if (!c.retry_on) return 1;
    if (c.fault == Fault::kTransient) return 3;
    return c.breaker_on ? 3 : 4;
  }

  int count(StatusEvent::Type type) const {
    int n = 0;
    for (const auto& event : events_) n += event.type == type ? 1 : 0;
    return n;
  }

  sim::Simulation sim_{no_overhead()};
  std::vector<StatusEvent> events_;
};

TEST_P(ResilienceMatrixTest, AttemptsEventsAndOutcome) {
  const MatrixCase c = GetParam();
  int fail_first = 0;
  bool fail_all = false;
  runtime::Duration latency{0};
  configure(c.fault, fail_first, fail_all, latency);

  const auto listener = [this](const StatusEvent& e) {
    events_.push_back(e);
  };

  bool ok = false;
  std::uint64_t attempts = 0;
  int inner_calls = 0;
  bool has_breaker = false;
  CircuitBreaker::State breaker_state = CircuitBreaker::State::kClosed;
  std::string key;

  if (c.edge == Edge::kMetrics) {
    core::ProviderConfig provider{"prometheus", 9090};
    provider.retry = retry_policy(c);
    provider.circuit_breaker = breaker(c);
    key = "prometheus:9090";

    ScriptedMetrics inner(sim_);
    inner.fail_first = fail_first;
    inner.fail_all = fail_all;
    inner.latency = latency;
    engine::ResilientMetricsClient client(inner, sim_,
                                          sim::external_sleeper(sim_));
    client.set_listener(listener);
    ok = client.query(provider, "request_errors").ok();
    attempts = client.attempts();
    inner_calls = inner.calls;
    if (const CircuitBreaker* b = client.breaker(key)) {
      has_breaker = true;
      breaker_state = b->state();
    }
  } else {
    core::ServiceDef service;
    service.name = "product";
    service.retry = retry_policy(c);
    service.circuit_breaker = breaker(c);
    key = "product";

    ScriptedProxies inner(sim_);
    inner.fail_first = fail_first;
    inner.fail_all = fail_all;
    inner.latency = latency;
    engine::ResilientProxyController controller(inner, sim_,
                                                sim::external_sleeper(sim_));
    controller.set_listener(listener);
    ok = controller.apply(service, proxy::ProxyConfig{}).ok();
    attempts = controller.attempts();
    inner_calls = inner.calls;
    if (const CircuitBreaker* b = controller.breaker(key)) {
      has_breaker = true;
      breaker_state = b->state();
    }
  }

  EXPECT_EQ(ok, expect_ok(c));
  EXPECT_EQ(attempts, static_cast<std::uint64_t>(expect_attempts(c)));
  EXPECT_EQ(inner_calls, expect_attempts(c));

  // One kRetried per failed attempt that had retry budget left. The
  // breaker-gated 4th attempt is the last, so it retries nothing.
  const bool call_fails_itself = c.fault != Fault::kLatencySpike &&
                                 (c.fault != Fault::kTransient || true);
  int expected_retried = 0;
  if (c.retry_on && call_fails_itself) {
    expected_retried = c.fault == Fault::kTransient ? 2 : 3;
  }
  EXPECT_EQ(count(StatusEvent::Type::kRetried), expected_retried);
  for (const auto& event : events_) {
    if (event.type != StatusEvent::Type::kRetried) continue;
    EXPECT_EQ(event.check, key);
    EXPECT_TRUE(event.strategy_id.empty());
  }

  if (!c.breaker_on) {
    EXPECT_FALSE(has_breaker);
    EXPECT_EQ(count(StatusEvent::Type::kCircuitOpened), 0);
  } else {
    ASSERT_TRUE(has_breaker);
    const bool should_open = c.retry_on && (c.fault == Fault::kPermanent ||
                                            c.fault == Fault::kTimeout);
    EXPECT_EQ(breaker_state, should_open ? CircuitBreaker::State::kOpen
                                         : CircuitBreaker::State::kClosed);
    EXPECT_EQ(count(StatusEvent::Type::kCircuitOpened), should_open ? 1 : 0);
  }
}

std::vector<MatrixCase> all_cases() {
  std::vector<MatrixCase> cases;
  for (const Edge edge : {Edge::kMetrics, Edge::kProxy}) {
    for (const Fault fault : {Fault::kTransient, Fault::kPermanent,
                              Fault::kTimeout, Fault::kLatencySpike}) {
      for (const bool retry_on : {false, true}) {
        for (const bool breaker_on : {false, true}) {
          cases.push_back({edge, fault, retry_on, breaker_on});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCells, ResilienceMatrixTest,
                         testing::ValuesIn(all_cases()), case_name);

// ---------------------------------------------------------------------------
// Exact virtual-time backoff schedule

TEST(RetrySchedule, ExactVirtualTimestamps) {
  // 4 attempts, 1s initial, 2x: attempts at t=0,1,3,7 s; kRetried events
  // carry the attempt number and fire at the failing attempt's end.
  sim::Simulation sim(no_overhead());
  ScriptedMetrics inner(sim);
  inner.fail_all = true;

  core::ProviderConfig provider{"prometheus", 9090};
  provider.retry.max_attempts = 4;
  provider.retry.initial_backoff = 1s;
  provider.retry.multiplier = 2.0;
  provider.retry.max_backoff = 60s;

  engine::ResilientMetricsClient client(inner, sim,
                                        sim::external_sleeper(sim));
  std::vector<std::pair<runtime::Duration, double>> retried;
  client.set_listener([&](const StatusEvent& e) {
    if (e.type == StatusEvent::Type::kRetried) {
      retried.emplace_back(
          std::chrono::duration_cast<runtime::Duration>(
              std::chrono::duration<double>(e.time_seconds)),
          e.value);
    }
  });

  EXPECT_FALSE(client.query(provider, "q").ok());
  EXPECT_EQ(sim.now(), runtime::Time{7s});
  ASSERT_EQ(retried.size(), 3u);
  EXPECT_EQ(retried[0], std::make_pair(runtime::Duration{0s}, 1.0));
  EXPECT_EQ(retried[1], std::make_pair(runtime::Duration{1s}, 2.0));
  EXPECT_EQ(retried[2], std::make_pair(runtime::Duration{3s}, 3.0));
}

TEST(RetrySchedule, BreakerRecoversThroughHalfOpenProbe) {
  sim::Simulation sim(no_overhead());
  ScriptedMetrics inner(sim);
  inner.fail_first = 2;

  core::ProviderConfig provider{"prometheus", 9090};
  provider.circuit_breaker = breaker_policy(2, 10s);

  engine::ResilientMetricsClient client(inner, sim,
                                        sim::external_sleeper(sim));
  std::vector<StatusEvent> events;
  client.set_listener([&](const StatusEvent& e) { events.push_back(e); });

  EXPECT_FALSE(client.query(provider, "q").ok());  // failure 1
  EXPECT_FALSE(client.query(provider, "q").ok());  // failure 2 -> opens
  EXPECT_FALSE(client.query(provider, "q").ok());  // gated, no inner call
  EXPECT_EQ(inner.calls, 2);

  sim.run_until(runtime::Time{10s});  // advance past open_duration
  EXPECT_TRUE(client.query(provider, "q").ok());  // half-open probe, closes
  EXPECT_EQ(inner.calls, 3);

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].type, StatusEvent::Type::kCircuitOpened);
  EXPECT_EQ(events[1].type, StatusEvent::Type::kCircuitClosed);
  EXPECT_EQ(events[1].time_seconds, 10.0);
}

// ---------------------------------------------------------------------------
// Fault plan

TEST(FaultPlanTest, WindowsAreDeterministicAndNamed) {
  sim::FaultPlan plan(1);
  plan.add_window({sim::FaultPlan::Target::kProxy, runtime::Time{5s},
                   runtime::Time{10s}, "product"});

  auto miss_target = plan.decide(sim::FaultPlan::Target::kMetrics, "product",
                                 runtime::Time{6s});
  EXPECT_FALSE(miss_target.error);
  auto miss_name = plan.decide(sim::FaultPlan::Target::kProxy, "search",
                               runtime::Time{6s});
  EXPECT_FALSE(miss_name.error);
  auto miss_time = plan.decide(sim::FaultPlan::Target::kProxy, "product",
                               runtime::Time{10s});  // [from, to)
  EXPECT_FALSE(miss_time.error);
  auto hit = plan.decide(sim::FaultPlan::Target::kProxy, "product",
                         runtime::Time{5s});
  EXPECT_TRUE(hit.error);
  EXPECT_NE(hit.reason.find("injected outage of 'product'"),
            std::string::npos);
  EXPECT_EQ(plan.injected_errors(), 1u);
}

TEST(FaultPlanTest, SameSeedReplaysTheSameDecisions) {
  sim::FaultPlan a(99), b(99);
  for (sim::FaultPlan* plan : {&a, &b}) {
    plan->metrics().error_probability = 0.3;
    plan->metrics().latency_spike_probability = 0.2;
    plan->metrics().latency_spike = 2s;
  }
  for (int i = 0; i < 200; ++i) {
    const auto now = runtime::Time{std::chrono::seconds(i)};
    const auto da = a.decide(sim::FaultPlan::Target::kMetrics, "p", now);
    const auto db = b.decide(sim::FaultPlan::Target::kMetrics, "p", now);
    EXPECT_EQ(da.error, db.error);
    EXPECT_EQ(da.extra_latency, db.extra_latency);
  }
  EXPECT_EQ(a.injected_errors(), b.injected_errors());
  EXPECT_GT(a.injected_errors(), 0u);
  EXPECT_GT(a.injected_spikes(), 0u);
}

// ---------------------------------------------------------------------------
// Acceptance: whole strategies against a seeded fault plan, event
// streams identical down to virtual timestamps across repeated runs.

core::StrategyDef sim_canary_strategy() {
  core::StrategyDef strategy;
  strategy.name = "canary";
  strategy.initial_state = "canary";
  strategy.providers["prometheus"] = core::ProviderConfig{"prometheus", 9090};

  core::ServiceDef search;
  search.name = "search";
  search.versions = {core::VersionDef{"stable", "127.0.0.1", 8001},
                     core::VersionDef{"fast", "127.0.0.1", 8002}};
  search.proxy_admin_host = "127.0.0.1";
  search.proxy_admin_port = 8101;
  strategy.services.push_back(search);

  core::StateDef canary;
  canary.name = "canary";
  core::CheckDef check;
  check.name = "errors";
  check.conditions.push_back(core::MetricCondition{
      "prometheus", "errors", "request_errors",
      core::Validator::parse("<5").value(), true});
  check.interval = 10s;
  check.executions = 3;
  check.thresholds = {2.5};  // all three executions must pass
  check.outputs = {0, 1};
  canary.checks.push_back(check);
  canary.thresholds = {0.5};
  canary.transitions = {"rollback", "done"};
  core::ServiceRouting routing;
  routing.service = "search";
  routing.splits = {core::VersionSplit{"stable", 95.0, "", ""},
                    core::VersionSplit{"fast", 5.0, "", ""}};
  canary.routing.push_back(routing);
  strategy.states.push_back(canary);

  core::StateDef done;
  done.name = "done";
  done.final_kind = core::FinalKind::kSuccess;
  strategy.states.push_back(done);

  core::StateDef rollback;
  rollback.name = "rollback";
  rollback.final_kind = core::FinalKind::kRollback;
  core::ServiceRouting revert;
  revert.service = "search";
  revert.splits = {core::VersionSplit{"stable", 100.0, "", ""}};
  rollback.routing.push_back(revert);
  strategy.states.push_back(rollback);
  return strategy;
}

/// One complete simulated run; returns (status, events).
struct RunResult {
  engine::ExecutionStatus status;
  std::vector<StatusEvent> events;
  std::uint64_t metric_attempts = 0;
};

/// (time, type, state, check, value) — the determinism fingerprint.
using EventTuple = std::tuple<double, int, std::string, std::string, double>;

std::vector<EventTuple> fingerprint(const std::vector<StatusEvent>& events) {
  std::vector<EventTuple> out;
  out.reserve(events.size());
  for (const auto& event : events) {
    out.emplace_back(event.time_seconds, static_cast<int>(event.type),
                     event.state, event.check, event.value);
  }
  return out;
}

RunResult run_flaky_provider(bool with_retry) {
  sim::Simulation sim(no_overhead());
  // Seed chosen so the three canary queries hit at least one injected
  // error without retries, but all succeed within the 5-attempt budget.
  sim::FaultPlan plan(/*seed=*/5);
  plan.metrics().error_probability = 0.3;

  sim::SimMetricsClient::Costs costs;  // keep timestamps easy to pin
  costs.default_query = {0ns, 1ms};
  sim::SimMetricsClient inner_metrics(sim, sim::always_healthy(0.0), costs);
  inner_metrics.set_fault_plan(&plan);
  sim::SimProxyController::Costs proxy_costs{0ns, 1ms};
  sim::SimProxyController inner_proxies(sim, proxy_costs);

  auto strategy = sim_canary_strategy();
  if (with_retry) {
    auto& retry = strategy.providers["prometheus"].retry;
    retry.max_attempts = 5;
    retry.initial_backoff = 100ms;
    retry.multiplier = 2.0;
    retry.max_backoff = 10s;
    retry.jitter = 0.25;  // jitter must not break determinism
  }
  EXPECT_TRUE(core::validate(strategy).ok());

  engine::ResilientMetricsClient metrics(inner_metrics, sim,
                                         sim::external_sleeper(sim),
                                         /*jitter_seed=*/7);
  engine::ResilientProxyController proxies(inner_proxies, sim,
                                           sim::external_sleeper(sim));

  RunResult result{engine::ExecutionStatus::kPending, {}, 0};
  const auto listener = [&](const StatusEvent& e) {
    result.events.push_back(e);
  };
  metrics.set_listener(listener);
  proxies.set_listener(listener);
  engine::StrategyExecution execution("s-1", sim, metrics, proxies,
                                      std::move(strategy), listener);
  sim.schedule_at(runtime::Time{0}, [&] { execution.start(); });
  sim.run_all();
  result.status = execution.status();
  result.metric_attempts = metrics.attempts();
  return result;
}

TEST(Acceptance, FlakyProviderSucceedsWithRetriesWhereSeedEngineFails) {
  // Without the resilience layer a 30% per-query error rate sinks the
  // canary (any one failed query fails its execution); with 5 attempts
  // per query the same seeded fault sequence completes successfully.
  const RunResult bare = run_flaky_provider(/*with_retry=*/false);
  EXPECT_EQ(bare.status, engine::ExecutionStatus::kRolledBack);

  const RunResult resilient = run_flaky_provider(/*with_retry=*/true);
  EXPECT_EQ(resilient.status, engine::ExecutionStatus::kSucceeded);
  EXPECT_GT(resilient.metric_attempts, 3u);  // retries actually happened
  int retried = 0;
  for (const auto& event : resilient.events) {
    retried += event.type == StatusEvent::Type::kRetried ? 1 : 0;
  }
  EXPECT_GT(retried, 0);
}

TEST(Acceptance, FlakyProviderRunIsStableAcrossRepeatedRuns) {
  const RunResult first = run_flaky_provider(/*with_retry=*/true);
  for (int run = 0; run < 2; ++run) {
    const RunResult again = run_flaky_provider(/*with_retry=*/true);
    EXPECT_EQ(again.status, first.status);
    EXPECT_EQ(fingerprint(again.events), fingerprint(first.events));
  }
}

RunResult run_proxy_hard_down() {
  sim::Simulation sim(no_overhead());
  sim::FaultPlan plan(/*seed=*/1);
  plan.add_window({sim::FaultPlan::Target::kProxy, runtime::Time{0},
                   runtime::Time::max(), ""});

  sim::SimMetricsClient::Costs costs;
  costs.default_query = {0ns, 1ms};
  sim::SimMetricsClient inner_metrics(sim, sim::always_healthy(0.0), costs);
  sim::SimProxyController::Costs proxy_costs{0ns, 1ms};
  sim::SimProxyController inner_proxies(sim, proxy_costs);
  inner_proxies.set_fault_plan(&plan);

  auto strategy = sim_canary_strategy();
  auto& retry = strategy.services[0].retry;
  retry.max_attempts = 3;
  retry.initial_backoff = 100ms;
  retry.multiplier = 2.0;
  retry.max_backoff = 10s;
  EXPECT_TRUE(core::validate(strategy).ok());

  engine::ResilientMetricsClient metrics(inner_metrics, sim,
                                         sim::external_sleeper(sim));
  engine::ResilientProxyController proxies(inner_proxies, sim,
                                           sim::external_sleeper(sim));

  RunResult result{engine::ExecutionStatus::kPending, {}, 0};
  const auto listener = [&](const StatusEvent& e) {
    result.events.push_back(e);
  };
  metrics.set_listener(listener);
  proxies.set_listener(listener);
  engine::StrategyExecution execution("s-1", sim, metrics, proxies,
                                      std::move(strategy), listener);
  sim.schedule_at(runtime::Time{0}, [&] { execution.start(); });
  sim.run_all();
  result.status = execution.status();
  return result;
}

TEST(Acceptance, ProxyHardDownRollsBackDeterministically) {
  const RunResult first = run_proxy_hard_down();
  EXPECT_EQ(first.status, engine::ExecutionStatus::kRolledBack);

  // Exhausting the 3-attempt budget on the canary's routing must divert
  // into the rollback state (kDegraded), not die with a bare kError.
  // Exact schedule: each apply takes 1 ms, backoffs 100 ms and 200 ms.
  //   attempt 1 fails at 1 ms    -> kRetried @ 0.001
  //   attempt 2 fails at 102 ms  -> kRetried @ 0.102
  //   attempt 3 fails at 303 ms  -> kError + kDegraded @ 0.303
  std::vector<std::pair<double, int>> interesting;
  for (const auto& event : first.events) {
    if (event.type == StatusEvent::Type::kRetried ||
        event.type == StatusEvent::Type::kError ||
        event.type == StatusEvent::Type::kDegraded) {
      interesting.emplace_back(event.time_seconds,
                               static_cast<int>(event.type));
    }
  }
  // canary: 2 retries, error, degraded; rollback state: 2 more retries
  // and an error for its own (also failing, but final) routing.
  ASSERT_GE(interesting.size(), 4u);
  EXPECT_DOUBLE_EQ(interesting[0].first, 0.001);
  EXPECT_EQ(interesting[0].second,
            static_cast<int>(StatusEvent::Type::kRetried));
  EXPECT_DOUBLE_EQ(interesting[1].first, 0.102);
  EXPECT_EQ(interesting[1].second,
            static_cast<int>(StatusEvent::Type::kRetried));
  EXPECT_DOUBLE_EQ(interesting[2].first, 0.303);

  for (int run = 0; run < 2; ++run) {
    const RunResult again = run_proxy_hard_down();
    EXPECT_EQ(again.status, first.status);
    EXPECT_EQ(fingerprint(again.events), fingerprint(first.events));
  }
}

// ---------------------------------------------------------------------------
// Concurrent region pushes through the decorator: a fleet push on an
// engine with a check executor applies its regions from several threads
// at once, so the retry RNG, the breaker map and the attempt counter
// are shared between them.

/// Thread-safe inner controller: the first apply of each region fails,
/// every later one succeeds.
class FirstAttemptFails final : public engine::ProxyController {
 public:
  util::Result<void> apply(const core::ServiceDef& /*service*/,
                           const proxy::ProxyConfig& /*config*/) override {
    return {};
  }
  util::Result<void> apply_region(
      const core::ServiceDef& /*service*/, const core::RegionDef& region,
      const proxy::ProxyConfig& /*config*/) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (calls_[region.name]++ == 0) {
      return util::Result<void>::error("first push to " + region.name);
    }
    return {};
  }

 private:
  std::mutex mutex_;
  std::map<std::string, int> calls_;
};

TEST(ResilientFleet, ConcurrentRegionPushesShareGuardedBookkeeping) {
  core::ServiceDef service;
  service.name = "search";
  service.quorum = 3;
  for (const char* name : {"eu-west", "us-east", "ap-south"}) {
    core::RegionDef region;
    region.name = name;
    region.canary_order = static_cast<int>(service.regions.size());
    service.regions.push_back(region);
  }
  service.retry.max_attempts = 3;
  service.retry.jitter = 0.5;
  service.circuit_breaker.enabled = true;
  service.circuit_breaker.failure_threshold = 5;

  runtime::ManualClock clock;
  FirstAttemptFails inner;
  const engine::SleepFn no_sleep = [](runtime::Duration) {};
  engine::ResilientProxyController proxies(inner, clock, no_sleep, 7);
  std::mutex events_mutex;
  int retried = 0;
  proxies.set_listener([&](const StatusEvent& event) {
    const std::lock_guard<std::mutex> lock(events_mutex);
    if (event.type == StatusEvent::Type::kRetried) ++retried;
  });

  runtime::WorkStealingPool pool(2);
  engine::Fleet fleet(proxies, &pool);
  proxy::ProxyConfig config;
  config.service = "search";
  for (int push = 0; push < 20; ++push) {
    const engine::Fleet::PushResult result =
        fleet.push(service, config, {}, nullptr, nullptr);
    EXPECT_EQ(result.acked, 3) << "push " << push;
  }
  pool.shutdown();

  // One retry per region on the first push, one attempt per region on
  // every later push.
  EXPECT_EQ(proxies.attempts(), 3u * 2u + 19u * 3u);
  {
    const std::lock_guard<std::mutex> lock(events_mutex);
    EXPECT_EQ(retried, 3);
  }
  for (const core::RegionDef& region : service.regions) {
    const CircuitBreaker* breaker = proxies.breaker("search/" + region.name);
    ASSERT_NE(breaker, nullptr) << region.name;
    EXPECT_EQ(breaker->state(), CircuitBreaker::State::kClosed);
  }
}

}  // namespace
}  // namespace bifrost

// Property-style tests over randomly generated strategies and inputs:
//  * every randomly generated valid strategy, enacted with healthy
//    metrics on a manual clock, terminates in a final state, and its
//    recorded history is consistent with the transition function;
//  * delta (next_state_name) is total and monotone in the outcome;
//  * proxy percentage splits converge to their nominal distribution for
//    random split vectors;
//  * the analysis module's absorption probabilities agree with
//    Monte-Carlo enactment frequencies on random two-way strategies.
#include <gtest/gtest.h>

#include <chrono>
#include <map>

#include "core/analysis.hpp"
#include "core/model.hpp"
#include "engine/engine.hpp"
#include "engine/execution.hpp"
#include "engine/journal.hpp"
#include "engine/resilience.hpp"
#include "proxy/proxy.hpp"
#include "runtime/manual_clock.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sim_env.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace bifrost {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Random strategy generation

struct GeneratedStrategy {
  core::StrategyDef def;
  /// Outcome each non-final state will produce under healthy metrics
  /// (every check passes).
  std::map<std::string, double> healthy_outcome;
};

/// Builds a random strategy DAG of `n_states` transient states (indexed
/// chain with random forward/backward edges) plus success/rollback
/// finals. All checks pass under healthy metrics; thresholds are
/// randomized around the passing outcome so different runs take
/// different edges.
GeneratedStrategy random_strategy(util::Rng& rng, int n_states) {
  GeneratedStrategy out;
  core::StrategyDef& strategy = out.def;
  strategy.name = "generated";
  strategy.initial_state = "s0";
  strategy.providers["prometheus"] = core::ProviderConfig{"h", 1};

  core::ServiceDef service;
  service.name = "svc";
  service.versions = {core::VersionDef{"v1", "h", 1},
                      core::VersionDef{"v2", "h", 2}};
  strategy.services.push_back(service);

  for (int i = 0; i < n_states; ++i) {
    core::StateDef state;
    state.name = "s" + std::to_string(i);

    // 0-3 basic checks, each passing under healthy metrics.
    const int n_checks = static_cast<int>(rng.uniform_int(0, 3));
    double outcome = 0.0;
    for (int c = 0; c < n_checks; ++c) {
      core::CheckDef check;
      check.name = "c" + std::to_string(c);
      check.conditions.push_back(core::MetricCondition{
          "prometheus", check.name, "healthy_metric",
          core::Validator::parse("<5").value(), true});
      check.interval =
          std::chrono::seconds(rng.uniform_int(1, 5));
      check.executions = static_cast<int>(rng.uniform_int(1, 4));
      check.thresholds = {check.executions - 0.5};
      check.outputs = {0, 1};
      check.weight = static_cast<double>(rng.uniform_int(1, 3));
      outcome += check.weight;  // all executions pass
      state.checks.push_back(std::move(check));
    }
    if (n_checks == 0) {
      state.min_duration = std::chrono::seconds(rng.uniform_int(1, 5));
    }
    out.healthy_outcome[state.name] = outcome;

    // Random split routing that always sums to 100.
    const double p = static_cast<double>(rng.uniform_int(0, 100));
    core::ServiceRouting routing;
    routing.service = "svc";
    if (p <= 0.0) {
      routing.splits = {core::VersionSplit{"v2", 100.0, "", ""}};
    } else if (p >= 100.0) {
      routing.splits = {core::VersionSplit{"v1", 100.0, "", ""}};
    } else {
      routing.splits = {core::VersionSplit{"v1", p, "", ""},
                        core::VersionSplit{"v2", 100.0 - p, "", ""}};
    }
    state.routing.push_back(std::move(routing));

    // Transitions: the healthy outcome goes strictly forward (to the
    // next state or a final), lower ranges may go anywhere.
    const std::string forward =
        i + 1 < n_states ? "s" + std::to_string(i + 1) : "success";
    if (rng.bernoulli(0.5)) {
      state.thresholds = {outcome - 0.5};
      const std::string lower =
          rng.bernoulli(0.5) ? "rollback" : "s" + std::to_string(
              rng.uniform_int(0, i));  // backward edge or self
      state.transitions = {lower, forward};
    } else {
      state.transitions = {forward};
    }
    strategy.states.push_back(std::move(state));
  }

  core::StateDef success;
  success.name = "success";
  success.final_kind = core::FinalKind::kSuccess;
  strategy.states.push_back(success);
  core::StateDef rollback;
  rollback.name = "rollback";
  rollback.final_kind = core::FinalKind::kRollback;
  strategy.states.push_back(rollback);

  // "rollback" may be unreachable; give s0 an exception path to it so
  // validation always passes.
  core::CheckDef guard;
  guard.name = "guard";
  guard.kind = core::CheckKind::kException;
  guard.fallback_state = "rollback";
  guard.conditions.push_back(core::MetricCondition{
      "prometheus", "g", "healthy_metric",
      core::Validator::parse("<5").value(), true});
  guard.interval = 1s;
  guard.executions = 1;
  guard.weight = 0.0;  // keep s0's outcome equal to its basic checks
  strategy.states[0].checks.push_back(guard);
  return out;
}

class HealthyMetrics final : public engine::MetricsClient {
 public:
  util::Result<std::optional<double>> query(const core::ProviderConfig&,
                                            const std::string&) override {
    return std::optional<double>{0.0};  // "<5" always passes
  }
};

class NullProxies final : public engine::ProxyController {
 public:
  util::Result<void> apply(const core::ServiceDef&,
                           const proxy::ProxyConfig&) override {
    return {};
  }
};

class RandomStrategySweep : public testing::TestWithParam<int> {};

TEST_P(RandomStrategySweep, HealthyEnactmentTerminatesConsistently) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 20; ++round) {
    const int n_states = static_cast<int>(rng.uniform_int(1, 8));
    GeneratedStrategy generated = random_strategy(rng, n_states);
    const auto valid = core::validate(generated.def);
    ASSERT_TRUE(valid.ok()) << valid.error_message();

    runtime::ManualClock clock;
    HealthyMetrics metrics;
    NullProxies proxies;
    std::vector<engine::StatusEvent> events;
    engine::StrategyExecution execution(
        "gen", clock, metrics, proxies, generated.def,
        [&events](const engine::StatusEvent& e) { events.push_back(e); });
    execution.start();
    clock.advance_by(std::chrono::hours(3));

    // Terminates (healthy outcomes always move forward eventually; the
    // loop guard would mark kFailed otherwise).
    ASSERT_TRUE(execution.status() == engine::ExecutionStatus::kSucceeded ||
                execution.status() == engine::ExecutionStatus::kRolledBack)
        << "round " << round;

    // History consistency: each recorded outcome maps through delta to
    // the next visited state.
    const auto& history = execution.history();
    ASSERT_FALSE(history.empty());
    EXPECT_EQ(history.front().state, "s0");
    for (size_t i = 0; i + 1 < history.size(); ++i) {
      if (history[i].via_exception) continue;
      const core::StateDef* state =
          generated.def.find_state(history[i].state);
      ASSERT_NE(state, nullptr);
      ASSERT_FALSE(state->is_final());
      EXPECT_EQ(core::next_state_name(*state, history[i].outcome),
                history[i + 1].state);
      // The outcome under healthy metrics is the precomputed one.
      EXPECT_DOUBLE_EQ(history[i].outcome,
                       generated.healthy_outcome.at(history[i].state));
      // Visits never overlap and times are monotone.
      EXPECT_LE(history[i].entered, history[i].exited);
      EXPECT_LE(history[i].exited, history[i + 1].entered);
    }
    const core::StateDef* last =
        generated.def.find_state(history.back().state);
    ASSERT_NE(last, nullptr);
    EXPECT_TRUE(last->is_final());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStrategySweep,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// delta is total and monotone for random threshold vectors

TEST(DeltaProperty, TotalAndMonotone) {
  util::Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    core::StateDef state;
    const int n = static_cast<int>(rng.uniform_int(0, 6));
    double t = rng.uniform() * 10.0 - 5.0;
    for (int i = 0; i < n; ++i) {
      state.thresholds.push_back(t);
      t += 0.1 + rng.uniform() * 5.0;
    }
    for (int i = 0; i <= n; ++i) {
      state.transitions.push_back("t" + std::to_string(i));
    }
    int last_index = -1;
    for (double e = -10.0; e <= t + 10.0; e += 0.25) {
      const std::string& next = core::next_state_name(state, e);
      const int index = std::stoi(next.substr(1));
      EXPECT_GE(index, 0);
      EXPECT_LE(index, n);
      EXPECT_GE(index, last_index);  // monotone in e
      last_index = index;
    }
    EXPECT_EQ(last_index, n);  // the top range is reached
  }
}

// ---------------------------------------------------------------------------
// Proxy split distribution for random percentage vectors

TEST(ProxySplitProperty, RandomSplitsConverge) {
  util::Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    const int n_backends = static_cast<int>(rng.uniform_int(2, 5));
    std::vector<double> weights;
    double total = 0.0;
    for (int i = 0; i < n_backends; ++i) {
      weights.push_back(rng.uniform() + 0.05);
      total += weights.back();
    }
    proxy::ProxyConfig config;
    config.service = "svc";
    for (int i = 0; i < n_backends; ++i) {
      config.backends.push_back(proxy::BackendTarget{
          "v" + std::to_string(i), "h", static_cast<std::uint16_t>(i + 1),
          weights[static_cast<size_t>(i)] / total * 100.0, "", ""});
    }
    http::Request request;
    std::vector<int> hits(static_cast<size_t>(n_backends), 0);
    constexpr int kTrials = 30000;
    for (int i = 0; i < kTrials; ++i) {
      ++hits[proxy::BifrostProxy::decide_backend(config, request,
                                                 std::nullopt, rng)];
    }
    for (int i = 0; i < n_backends; ++i) {
      const double expected =
          config.backends[static_cast<size_t>(i)].percent / 100.0;
      const double observed =
          hits[static_cast<size_t>(i)] / static_cast<double>(kTrials);
      EXPECT_NEAR(observed, expected, 0.02)
          << "round " << round << " backend " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Analysis agrees with Monte-Carlo enactment

TEST(AnalysisProperty, AbsorptionMatchesMonteCarlo) {
  // canary retries itself with probability p_loop, rolls back with
  // p_roll, succeeds otherwise — drive the real engine with metrics
  // that realize those probabilities and compare frequencies.
  util::Rng rng(21);
  const double p_roll = 0.3;
  const double p_success = 0.7;

  core::StrategyDef strategy;
  strategy.name = "mc";
  strategy.initial_state = "canary";
  strategy.providers["prometheus"] = core::ProviderConfig{"h", 1};
  core::StateDef canary;
  canary.name = "canary";
  core::CheckDef check;
  check.name = "c";
  check.conditions.push_back(core::MetricCondition{
      "prometheus", "c", "coin", core::Validator::parse("<1").value(), true});
  check.interval = 1s;
  check.executions = 1;
  check.thresholds = {0.5};
  check.outputs = {0, 1};
  canary.checks.push_back(check);
  canary.thresholds = {0.5};
  canary.transitions = {"rollback", "done"};
  strategy.states.push_back(canary);
  core::StateDef done;
  done.name = "done";
  done.final_kind = core::FinalKind::kSuccess;
  strategy.states.push_back(done);
  core::StateDef rollback;
  rollback.name = "rollback";
  rollback.final_kind = core::FinalKind::kRollback;
  strategy.states.push_back(rollback);

  core::TransitionModel model;
  model["canary"].transition_probability = {p_roll, p_success};
  const auto analysis = core::analyze(strategy, model);
  ASSERT_TRUE(analysis.ok());

  class CoinMetrics final : public engine::MetricsClient {
   public:
    explicit CoinMetrics(util::Rng& rng, double p_pass)
        : rng_(rng), p_pass_(p_pass) {}
    util::Result<std::optional<double>> query(const core::ProviderConfig&,
                                              const std::string&) override {
      return std::optional<double>{rng_.bernoulli(p_pass_) ? 0.0 : 10.0};
    }
    util::Rng& rng_;
    double p_pass_;
  };

  int successes = 0;
  constexpr int kRuns = 2000;
  NullProxies proxies;
  CoinMetrics metrics(rng, p_success);
  for (int run = 0; run < kRuns; ++run) {
    runtime::ManualClock clock;
    engine::StrategyExecution execution("mc", clock, metrics, proxies,
                                        strategy, nullptr);
    execution.start();
    clock.advance_by(10s);
    successes +=
        execution.status() == engine::ExecutionStatus::kSucceeded ? 1 : 0;
  }
  EXPECT_NEAR(successes / static_cast<double>(kRuns),
              analysis.value().success_probability, 0.03);
}

// ---------------------------------------------------------------------------
// Resilience properties: backoff shape, attempt budgets, termination

TEST(ResilienceProperty, BackoffBaseMonotoneNonDecreasingUpToCap) {
  util::Rng rng(31);
  for (int round = 0; round < 300; ++round) {
    core::RetryPolicy policy;
    policy.initial_backoff =
        std::chrono::milliseconds(rng.uniform_int(1, 5000));
    policy.multiplier = 1.0 + rng.uniform() * 3.0;
    policy.max_backoff =
        policy.initial_backoff * rng.uniform_int(1, 64);
    policy.jitter = rng.uniform();

    runtime::Duration previous{0};
    for (int attempt = 1; attempt <= 30; ++attempt) {
      const auto base = engine::backoff_base(policy, attempt);
      EXPECT_GE(base, previous) << "round " << round;
      EXPECT_LE(base, policy.max_backoff);
      previous = base;

      // Jitter only ever adds, bounded by the jitter fraction (one
      // microsecond of slack for the double <-> ns round trips).
      const auto delay = engine::backoff_delay(policy, attempt, rng);
      EXPECT_GE(delay, base - 1us);
      EXPECT_LE(delay, base + std::chrono::duration_cast<runtime::Duration>(
                                  base * policy.jitter) + 1us);
    }
  }
}

TEST(ResilienceProperty, InnerAttemptsNeverExceedBudget) {
  // Against random failure patterns and random policies, one decorated
  // call never issues more than max_attempts inner calls (a breaker may
  // issue fewer), and every kRetried event numbers an attempt below the
  // budget.
  util::Rng rng(57);
  for (int round = 0; round < 40; ++round) {
    sim::Simulation sim;
    sim::FaultPlan plan(rng.uniform_int(0, 1'000'000));
    plan.metrics().error_probability = rng.uniform() * 0.8;
    plan.metrics().latency_spike_probability = rng.uniform() * 0.3;
    plan.metrics().latency_spike =
        std::chrono::milliseconds(rng.uniform_int(1, 2000));

    core::ProviderConfig provider{"prometheus", 9090};
    provider.retry.max_attempts = static_cast<int>(rng.uniform_int(1, 6));
    provider.retry.initial_backoff =
        std::chrono::milliseconds(rng.uniform_int(1, 500));
    provider.retry.multiplier = 1.0 + rng.uniform() * 2.0;
    provider.retry.max_backoff = 10s;
    provider.retry.jitter = rng.uniform();
    if (rng.bernoulli(0.5)) {
      provider.circuit_breaker.enabled = true;
      provider.circuit_breaker.failure_threshold =
          static_cast<int>(rng.uniform_int(1, 5));
      provider.circuit_breaker.open_duration =
          std::chrono::seconds(rng.uniform_int(1, 30));
    }

    sim::SimMetricsClient inner(sim, sim::always_healthy(0.0));
    inner.set_fault_plan(&plan);
    engine::ResilientMetricsClient client(
        inner, sim, sim::external_sleeper(sim), rng.uniform_int(0, 1 << 20));
    const int budget = std::max(1, provider.retry.max_attempts);
    client.set_listener([&](const engine::StatusEvent& event) {
      if (event.type == engine::StatusEvent::Type::kRetried) {
        EXPECT_GE(event.value, 1.0);
        EXPECT_LT(event.value, budget);
      }
    });

    for (int call = 0; call < 25; ++call) {
      const std::uint64_t before = inner.queries();
      (void)client.query(provider, "request_errors");
      const std::uint64_t issued = inner.queries() - before;
      EXPECT_LE(issued, static_cast<std::uint64_t>(budget))
          << "round " << round << " call " << call;
    }
  }
}

TEST(ResilienceProperty, FaultyEnactmentAlwaysTerminatesInAFinalStatus) {
  // Random strategies from the generator above, enacted under the
  // simulator with random fault plans and retry/breaker policies, must
  // always end in kSucceeded, kRolledBack, or kAborted — never hang,
  // and never leak a bare error state.
  util::Rng rng(83);
  for (int round = 0; round < 25; ++round) {
    const int n_states = static_cast<int>(rng.uniform_int(1, 6));
    GeneratedStrategy generated = random_strategy(rng, n_states);
    auto& provider = generated.def.providers["prometheus"];
    provider.retry.max_attempts = static_cast<int>(rng.uniform_int(2, 5));
    provider.retry.initial_backoff = 50ms;
    provider.retry.multiplier = 2.0;
    provider.retry.max_backoff = 2s;
    auto& service = generated.def.services[0];
    service.retry.max_attempts = 3;
    service.retry.initial_backoff = 50ms;
    if (rng.bernoulli(0.5)) {
      provider.circuit_breaker.enabled = true;
      provider.circuit_breaker.failure_threshold = 5;
      provider.circuit_breaker.open_duration = 5s;
    }
    const auto valid = core::validate(generated.def);
    ASSERT_TRUE(valid.ok()) << valid.error_message();

    sim::Simulation sim;
    sim::FaultPlan plan(rng.uniform_int(0, 1'000'000));
    plan.metrics().error_probability = rng.uniform() * 0.2;
    plan.metrics().latency_spike_probability = rng.uniform() * 0.2;
    plan.metrics().latency_spike = 200ms;
    plan.proxy().error_probability = rng.uniform() * 0.1;

    sim::SimMetricsClient inner_metrics(sim, sim::always_healthy(0.0));
    inner_metrics.set_fault_plan(&plan);
    sim::SimProxyController inner_proxies(sim);
    inner_proxies.set_fault_plan(&plan);
    engine::ResilientMetricsClient metrics(inner_metrics, sim,
                                           sim::external_sleeper(sim));
    engine::ResilientProxyController proxies(inner_proxies, sim,
                                             sim::external_sleeper(sim));

    engine::StrategyExecution execution("gen", sim, metrics, proxies,
                                        generated.def, nullptr);
    sim.schedule_at(runtime::Time{0}, [&] { execution.start(); });
    sim.run_all();

    const auto status = execution.status();
    EXPECT_TRUE(status == engine::ExecutionStatus::kSucceeded ||
                status == engine::ExecutionStatus::kRolledBack ||
                status == engine::ExecutionStatus::kAborted)
        << "round " << round << " ended in status "
        << static_cast<int>(status);
  }
}

// ---------------------------------------------------------------------------
// Journal replay determinism: for random strategies and random crash
// points, killing the engine at a journal record boundary and recovering
// from the journal yields the exact transition trace and final status of
// an uninterrupted run — and recovering a second time changes nothing.

namespace journal_property {

/// Filtered (type, payload) trace: markers, snapshots and acks are
/// excluded (a resumed run legitimately adds/omits them; see
/// tests/recovery_test.cpp for the rationale).
using Trace = std::vector<std::pair<engine::RecordType, std::string>>;

Trace trace_of(const engine::MemoryJournal& disk) {
  using RT = engine::RecordType;
  Trace trace;
  for (const engine::JournalRecord& record : disk.records()) {
    if (record.type == RT::kSnapshot || record.type == RT::kRecovered ||
        record.type == RT::kReconciled || record.type == RT::kApplyAck) {
      continue;
    }
    trace.emplace_back(record.type, record.data.dump());
  }
  return trace;
}

struct Outcome {
  Trace trace;
  engine::ExecutionStatus status = engine::ExecutionStatus::kPending;
  std::string final_state;
  std::size_t records = 0;
};

sim::Simulation::Options quiet() {
  sim::Simulation::Options options;
  options.dispatch_overhead = 0ns;
  return options;
}

/// Runs `def` to completion; with crash_record != 0 the engine dies
/// right after that journal record and a fresh engine recovers.
Outcome enact(const core::StrategyDef& def, std::uint64_t crash_record) {
  sim::Simulation sim(quiet());
  sim::SimMetricsClient::Costs costs;
  costs.default_query = {0ns, 0ns};
  sim::SimMetricsClient metrics(sim, sim::always_healthy(0.0), costs);
  sim::SimProxyController proxies(sim, {0ns, 0ns});
  engine::MemoryJournal disk;
  sim::FaultPlan plan;
  if (crash_record != 0) plan.crash_after_record(crash_record);
  sim::CrashableJournal crashable(disk, plan);

  Outcome out;
  bool crashed = false;
  std::string id;
  {
    engine::Engine::Options options;
    options.journal = &crashable;
    options.snapshot_every = 16;
    engine::Engine eng(sim, metrics, proxies, options);
    try {
      auto submitted = eng.submit(def);
      EXPECT_TRUE(submitted.ok()) << submitted.error_message();
      if (submitted.ok()) id = submitted.value();
      sim.run_all();
    } catch (const sim::CrashInjected&) {
      crashed = true;
    }
    if (!crashed) {
      const auto snapshot = eng.status(id);
      if (snapshot.has_value()) {
        out.status = snapshot->status;
        out.final_state = snapshot->current_state;
      }
    }
  }
  if (crashed) {
    const std::vector<engine::JournalRecord> history = disk.records();
    engine::Engine::Options options;
    options.journal = &disk;
    options.snapshot_every = 16;
    engine::Engine eng(sim, metrics, proxies, options);
    auto recovered = eng.recover(history);
    EXPECT_TRUE(recovered.ok()) << recovered.error_message();
    auto reconciled = eng.reconcile();
    EXPECT_TRUE(reconciled.ok()) << reconciled.error_message();
    sim.run_all();
    const auto snapshot = eng.status(id.empty() ? "s-1" : id);
    if (snapshot.has_value()) {
      out.status = snapshot->status;
      out.final_state = snapshot->current_state;
    }
  }
  out.trace = trace_of(disk);
  out.records = disk.records().size();
  return out;
}

}  // namespace journal_property

TEST(JournalProperty, RandomCrashPointsReplayDeterministically) {
  using journal_property::enact;
  util::Rng rng(2026);
  for (int round = 0; round < 6; ++round) {
    GeneratedStrategy generated =
        random_strategy(rng, 1 + static_cast<int>(rng.uniform_int(1, 4)));
    const auto valid = core::validate(generated.def);
    ASSERT_TRUE(valid.ok()) << valid.error_message();

    const journal_property::Outcome baseline = enact(generated.def, 0);
    ASSERT_EQ(baseline.status, engine::ExecutionStatus::kSucceeded)
        << "round " << round;
    ASSERT_GT(baseline.records, 2u);

    for (int k = 0; k < 4; ++k) {
      const std::uint64_t boundary = rng.uniform_int(
          1, static_cast<std::uint64_t>(baseline.records));
      SCOPED_TRACE("round " + std::to_string(round) + ", crash after record " +
                   std::to_string(boundary));
      const journal_property::Outcome resumed =
          enact(generated.def, boundary);
      EXPECT_EQ(resumed.status, baseline.status);
      EXPECT_EQ(resumed.final_state, baseline.final_state);
      ASSERT_EQ(resumed.trace.size(), baseline.trace.size());
      EXPECT_EQ(resumed.trace, baseline.trace);
      if (testing::Test::HasFailure()) return;
    }
  }
}

TEST(JournalProperty, RecoveringTwiceIsANoOp) {
  util::Rng rng(7);
  GeneratedStrategy generated = random_strategy(rng, 3);
  ASSERT_TRUE(core::validate(generated.def).ok());

  sim::Simulation sim(journal_property::quiet());
  sim::SimMetricsClient::Costs costs;
  costs.default_query = {0ns, 0ns};
  sim::SimMetricsClient metrics(sim, sim::always_healthy(0.0), costs);
  sim::SimProxyController proxies(sim, {0ns, 0ns});
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;

  {
    engine::Engine eng(sim, metrics, proxies, options);
    auto submitted = eng.submit(generated.def);
    ASSERT_TRUE(submitted.ok()) << submitted.error_message();
    sim.run_all();
  }
  const std::uint64_t updates = proxies.updates();

  std::vector<engine::StrategySnapshot> first;
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<engine::JournalRecord> history = disk.records();
    engine::Engine eng(sim, metrics, proxies, options);
    ASSERT_TRUE(eng.recover(history).ok());
    ASSERT_TRUE(eng.reconcile().ok());
    sim.run_all();
    EXPECT_EQ(eng.running_count(), 0u);
    const auto list = eng.list();
    ASSERT_EQ(list.size(), 1u);
    if (pass == 0) {
      first = list;
    } else {
      EXPECT_EQ(list[0].status, first[0].status);
      EXPECT_EQ(list[0].current_state, first[0].current_state);
      EXPECT_EQ(list[0].transitions, first[0].transitions);
      EXPECT_DOUBLE_EQ(list[0].finished_seconds, first[0].finished_seconds);
    }
    // Reconciliation found every proxy in sync: nothing re-applied.
    EXPECT_EQ(proxies.updates(), updates);
  }
}

}  // namespace
}  // namespace bifrost

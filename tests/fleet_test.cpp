// Multi-region federation tests (the ISSUE-10 acceptance scenarios):
// a 3-region ramp strategy — canary region first, then a fleet-wide
// push under a 2-of-3 quorum — driven through the simulated engine.
//  (a) a mid-push partition of one region holds the phase at quorum
//      (region degraded, strategy succeeds),
//  (b) partitioning two regions drops the push below quorum and rolls
//      the strategy back,
//  (c) after the partition heals, resync_regions() converges every
//      region back to the fleet epoch,
//  (d) two same-seed runs leave byte-identical journals and event
//      streams.
// Plus: the crash matrix at every journal record boundary AND every
// per-region proxy apply (the engine dying between two region acks of
// one fleet push), cross-region aggregation (max / delta) driving
// success and rollback paths, DSL parsing of the regions block, the
// Graphviz golden file for the region-scoped automaton, and the
// concurrent fan-out of a push on an executor (claim-or-run join).
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "dsl/dsl.hpp"
#include "engine/engine.hpp"
#include "engine/fleet.hpp"
#include "engine/http_clients.hpp"
#include "engine/journal.hpp"
#include "proxy/proxy.hpp"
#include "runtime/manual_clock.hpp"
#include "runtime/work_stealing_pool.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sim_env.hpp"
#include "sim/simulation.hpp"

namespace bifrost {
namespace {

using namespace std::chrono_literals;
using engine::RecordType;

sim::Simulation::Options no_overhead() {
  sim::Simulation::Options options;
  options.dispatch_overhead = 0ns;
  return options;
}

sim::SimMetricsClient::Costs zero_metric_costs() {
  sim::SimMetricsClient::Costs costs;
  costs.default_query = {0ns, 0ns};
  return costs;
}

sim::SimProxyController::Costs zero_proxy_costs() { return {0ns, 0ns}; }

/// Per-region response times: the metric source keys off the region
/// name baked into the query (directly in the canary state's query,
/// via "$region" substitution in the aggregated fleet check).
sim::MetricFn region_metrics(double eu = 100.0, double us = 110.0,
                             double ap = 120.0) {
  return [=](const std::string& query, double) -> std::optional<double> {
    if (query.find("eu-west") != std::string::npos) return eu;
    if (query.find("us-east") != std::string::npos) return us;
    if (query.find("ap-south") != std::string::npos) return ap;
    return 100.0;
  };
}

core::StrategyDef load_fleet_ramp() {
  const std::string path =
      std::string(BIFROST_STRATEGY_DIR) + "/fleet_ramp.yaml";
  auto compiled = dsl::compile_file(path);
  EXPECT_TRUE(compiled.ok()) << path << ": " << compiled.error_message();
  return compiled.ok() ? std::move(compiled).value() : core::StrategyDef{};
}

// ---------------------------------------------------------------------------
// Run harness (mirrors recovery_test.cpp, but region-aware: the trace
// KEEPS kRegionAck records — a resumed push re-acks only the regions
// whose verdicts were not journaled, at identical virtual times, so
// the per-region ack sequence must match the uninterrupted run's)

using Trace = std::vector<std::pair<RecordType, std::string>>;

bool filtered_from_trace(RecordType type) {
  return type == RecordType::kSnapshot || type == RecordType::kRecovered ||
         type == RecordType::kReconciled || type == RecordType::kApplyAck;
}

Trace trace_of(const std::vector<engine::JournalRecord>& records) {
  Trace trace;
  for (const engine::JournalRecord& record : records) {
    if (filtered_from_trace(record.type)) continue;
    trace.emplace_back(record.type, record.data.dump());
  }
  return trace;
}

void expect_same_trace(const Trace& resumed, const Trace& baseline) {
  ASSERT_EQ(resumed.size(), baseline.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    if (resumed[i] == baseline[i]) continue;
    ADD_FAILURE() << "trace diverges at filtered record " << i << ":\n  got "
                  << engine::record_type_name(resumed[i].first) << " "
                  << resumed[i].second << "\n  want "
                  << engine::record_type_name(baseline[i].first) << " "
                  << baseline[i].second;
    return;
  }
}

/// Fleet state a run leaves behind: per-"service/region" routing
/// (epoch + full config), trace, and the execution's end state.
struct RunOutcome {
  Trace trace;
  std::map<std::string, std::string> routing;
  engine::ExecutionStatus status = engine::ExecutionStatus::kPending;
  std::string final_state;
  std::uint64_t transitions = 0;
  std::uint64_t checks_executed = 0;
  double finished_seconds = 0.0;
  std::size_t journal_records = 0;
  std::uint64_t deduplicated_applies = 0;
};

std::map<std::string, std::string> routing_of(
    const sim::SimProxyController& proxies) {
  std::map<std::string, std::string> routing;
  for (const auto& [key, view] : proxies.states()) {
    routing[key] = "epoch=" + std::to_string(view.epoch) + " " +
                   view.config.to_json().dump();
  }
  return routing;
}

void fill_outcome(RunOutcome& out, engine::Engine& eng, const std::string& id,
                  const sim::SimProxyController& proxies,
                  const engine::MemoryJournal& disk) {
  const auto snapshot = eng.status(id);
  ASSERT_TRUE(snapshot.has_value()) << "no snapshot for " << id;
  out.status = snapshot->status;
  out.final_state = snapshot->current_state;
  out.transitions = snapshot->transitions;
  out.checks_executed = snapshot->checks_executed;
  out.finished_seconds = snapshot->finished_seconds;
  out.trace = trace_of(disk.records());
  out.routing = routing_of(proxies);
  out.journal_records = disk.records().size();
  out.deduplicated_applies = proxies.duplicate_epochs();
}

void expect_same_outcome(const RunOutcome& resumed,
                         const RunOutcome& baseline) {
  expect_same_trace(resumed.trace, baseline.trace);
  EXPECT_EQ(resumed.routing, baseline.routing);
  EXPECT_EQ(resumed.status, baseline.status);
  EXPECT_EQ(resumed.final_state, baseline.final_state);
  EXPECT_EQ(resumed.transitions, baseline.transitions);
  EXPECT_EQ(resumed.checks_executed, baseline.checks_executed);
  EXPECT_DOUBLE_EQ(resumed.finished_seconds, baseline.finished_seconds);
}

constexpr std::size_t kSnapshotEvery = 64;

RunOutcome run_uninterrupted(const core::StrategyDef& def,
                             sim::MetricFn metrics_fn = region_metrics()) {
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, std::move(metrics_fn),
                                zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  RunOutcome out;
  engine::Engine::Options options;
  options.journal = &disk;
  options.snapshot_every = kSnapshotEvery;
  engine::Engine eng(sim, metrics, proxies, options);
  auto submitted = eng.submit(def);
  EXPECT_TRUE(submitted.ok()) << submitted.error_message();
  if (!submitted.ok()) return out;
  sim.run_all();
  fill_outcome(out, eng, submitted.value(), proxies, disk);
  return out;
}

RunOutcome run_crash_and_recover(const core::StrategyDef& def,
                                 std::uint64_t crash_record,
                                 std::uint64_t crash_apply = 0,
                                 bool* crashed_out = nullptr) {
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, region_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  sim::FaultPlan plan;
  if (crash_record != 0) plan.crash_after_record(crash_record);
  if (crash_apply != 0) {
    plan.crash_on_apply(crash_apply);
    proxies.set_fault_plan(&plan);
  }
  sim::CrashableJournal crashable(disk, plan);

  RunOutcome out;
  bool crashed = false;
  std::string id;
  {
    engine::Engine::Options options;
    options.journal = &crashable;
    options.snapshot_every = kSnapshotEvery;
    engine::Engine eng(sim, metrics, proxies, options);
    try {
      auto submitted = eng.submit(def);
      if (submitted.ok()) id = submitted.value();
      sim.run_all();
    } catch (const sim::CrashInjected&) {
      crashed = true;
    }
    if (!crashed) fill_outcome(out, eng, id, proxies, disk);
  }  // ~Engine: the "killed" incarnation's timers are cancelled
  if (crashed_out != nullptr) *crashed_out = crashed;
  if (!crashed) return out;

  proxies.set_fault_plan(nullptr);
  const std::vector<engine::JournalRecord> history = disk.records();
  engine::Engine::Options options;
  options.journal = &disk;
  options.snapshot_every = kSnapshotEvery;
  engine::Engine eng(sim, metrics, proxies, options);
  auto recovered = eng.recover(history);
  EXPECT_TRUE(recovered.ok()) << recovered.error_message();
  auto reconciled = eng.reconcile();
  EXPECT_TRUE(reconciled.ok()) << reconciled.error_message();
  sim.run_all();
  fill_outcome(out, eng, id.empty() ? "s-1" : id, proxies, disk);
  return out;
}

/// Events of one engine run, serialized for comparison / searching.
std::vector<std::string> event_lines(const engine::Engine& eng) {
  std::vector<std::string> lines;
  for (const engine::StatusEvent& event :
       eng.events_since(0, 100000, std::chrono::milliseconds(0))) {
    std::ostringstream line;
    line << event.time_seconds << " " << event.type_name() << " state="
         << event.state << " check=" << event.check << " value="
         << event.value << " detail=" << event.detail;
    lines.push_back(line.str());
  }
  return lines;
}

bool has_event(const std::vector<std::string>& lines, const std::string& type,
               const std::string& detail_fragment = "") {
  for (const std::string& line : lines) {
    if (line.find(" " + type + " ") == std::string::npos) continue;
    if (line.find(detail_fragment) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Fleet unit surface: canary ordering and effective quorum

TEST(FleetUnit, TargetsInCanaryOrderAndScoped) {
  const core::StrategyDef def = load_fleet_ramp();
  const core::ServiceDef* search = def.find_service("search");
  ASSERT_NE(search, nullptr);
  ASSERT_TRUE(search->federated());

  const auto fleet = engine::Fleet::targets(*search, {});
  ASSERT_EQ(fleet.size(), 3u);
  EXPECT_EQ(fleet[0]->name, "eu-west");
  EXPECT_EQ(fleet[1]->name, "us-east");
  EXPECT_EQ(fleet[2]->name, "ap-south");
  EXPECT_EQ(search->canary_region()->name, "eu-west");

  const auto scoped = engine::Fleet::targets(*search, {"ap-south"});
  ASSERT_EQ(scoped.size(), 1u);
  EXPECT_EQ(scoped[0]->name, "ap-south");
}

TEST(FleetUnit, RequiredAcks) {
  const core::StrategyDef def = load_fleet_ramp();
  const core::ServiceDef* search = def.find_service("search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->quorum_size(), 2);
  // Fleet-wide push: the service quorum.
  EXPECT_EQ(engine::Fleet::required_acks(*search, 3), 2);
  // A push scoped below the quorum must land on every targeted region.
  EXPECT_EQ(engine::Fleet::required_acks(*search, 1), 1);

  core::ServiceDef majority = *search;
  majority.quorum = 0;  // majority default: floor(3/2) + 1
  EXPECT_EQ(majority.quorum_size(), 2);
  majority.regions.push_back(majority.regions.back());
  majority.regions.back().name = "sa-east";
  EXPECT_EQ(majority.quorum_size(), 3);
}

// ---------------------------------------------------------------------------
// DSL: the regions block, route scopes, and aggregate conditions

TEST(FleetDsl, RegionsBlockParses) {
  const core::StrategyDef def = load_fleet_ramp();
  const core::ServiceDef* search = def.find_service("search");
  ASSERT_NE(search, nullptr);
  ASSERT_EQ(search->regions.size(), 3u);
  EXPECT_EQ(search->quorum, 2);
  EXPECT_EQ(search->regions[0].name, "eu-west");
  EXPECT_EQ(search->regions[0].proxy_admin_host, "127.0.0.1");
  EXPECT_EQ(search->regions[0].proxy_admin_port, 8201);
  EXPECT_DOUBLE_EQ(search->regions[0].weight, 2.0);
  EXPECT_EQ(search->regions[0].canary_order, 0);
  EXPECT_EQ(search->regions[2].canary_order, 2);
  EXPECT_DOUBLE_EQ(search->regions[2].weight, 1.0);

  // Canary state's route is scoped to the canary region only.
  ASSERT_FALSE(def.states.empty());
  const core::StateDef* canary = def.find_state("canary");
  ASSERT_NE(canary, nullptr);
  ASSERT_EQ(canary->routing.size(), 1u);
  ASSERT_EQ(canary->routing[0].regions,
            std::vector<std::string>{"eu-west"});

  // Rollout state's check aggregates the query across the fleet.
  const core::StateDef* rollout = def.find_state("rollout");
  ASSERT_NE(rollout, nullptr);
  ASSERT_FALSE(rollout->checks.empty());
  ASSERT_FALSE(rollout->checks[0].conditions.empty());
  const core::MetricCondition& condition = rollout->checks[0].conditions[0];
  EXPECT_EQ(condition.aggregate, core::RegionAggregate::kMax);
  EXPECT_EQ(condition.region_service, "search");
  EXPECT_NE(condition.query.find("$region"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The healthy 3-region ramp: canary region first, then fleet-wide

TEST(FleetRamp, HealthyRunConvergesAllRegions) {
  const core::StrategyDef def = load_fleet_ramp();
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, region_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;  // epochs are allocated by the durable engine
  engine::Engine eng(sim, metrics, proxies, options);
  auto submitted = eng.submit(def);
  ASSERT_TRUE(submitted.ok()) << submitted.error_message();

  // Run past the canary state only: the scoped push must have touched
  // the canary region and nothing else.
  sim.run_until(runtime::Time(300s));
  ASSERT_NE(proxies.region_state("search", "eu-west"), nullptr);
  EXPECT_EQ(proxies.region_state("search", "eu-west")->epoch, 1u);
  EXPECT_EQ(proxies.region_state("search", "us-east"), nullptr);
  EXPECT_EQ(proxies.region_state("search", "ap-south"), nullptr);

  sim.run_all();
  const auto snapshot = eng.status(submitted.value());
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->status, engine::ExecutionStatus::kSucceeded);
  EXPECT_EQ(snapshot->current_state, "done");

  // Every region converged to the final fleet epoch with an identical
  // config (100% fast).
  const engine::ProxyStateView* eu = proxies.region_state("search", "eu-west");
  const engine::ProxyStateView* us = proxies.region_state("search", "us-east");
  const engine::ProxyStateView* ap = proxies.region_state("search", "ap-south");
  ASSERT_NE(eu, nullptr);
  ASSERT_NE(us, nullptr);
  ASSERT_NE(ap, nullptr);
  EXPECT_EQ(eu->epoch, 3u);
  EXPECT_EQ(us->epoch, 3u);
  EXPECT_EQ(ap->epoch, 3u);
  EXPECT_EQ(us->config.to_json().dump(), eu->config.to_json().dump());
  EXPECT_EQ(ap->config.to_json().dump(), eu->config.to_json().dump());

  const auto events = event_lines(eng);
  EXPECT_FALSE(has_event(events, "region_degraded"));
  EXPECT_FALSE(has_event(events, "error"));
}

// The same ramp against three real BifrostProxy regions over HTTP:
// HttpProxyController must push each region to that region's own admin
// endpoint (a service-level endpoint does not exist for a federated
// service, so a region-unaware controller fails every push and the
// strategy rolls back below quorum).
TEST(FleetRamp, HttpControllerPushesEachRegionToItsOwnProxy) {
  core::StrategyDef def = load_fleet_ramp();
  std::vector<std::unique_ptr<proxy::BifrostProxy>> regions;
  for (core::RegionDef& region : def.services.front().regions) {
    proxy::BifrostProxy::Options options;
    options.worker_threads = 2;
    options.shadow_threads = 1;
    proxy::ProxyConfig initial;
    initial.service = "search";
    initial.backends = {
        proxy::BackendTarget{"stable", "127.0.0.1", 8001, 100.0, "", ""}};
    regions.push_back(
        std::make_unique<proxy::BifrostProxy>(options, std::move(initial)));
    regions.back()->start();
    region.proxy_admin_port = regions.back()->admin_port();
  }
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, region_metrics(), zero_metric_costs());
  engine::HttpProxyController proxies;
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;
  engine::Engine eng(sim, metrics, proxies, options);
  auto submitted = eng.submit(def);
  ASSERT_TRUE(submitted.ok()) << submitted.error_message();
  sim.run_all();

  const auto snapshot = eng.status(submitted.value());
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->status, engine::ExecutionStatus::kSucceeded);
  EXPECT_EQ(snapshot->current_state, "done");
  for (const auto& region : regions) {
    EXPECT_EQ(region->applied_epoch(), 3u);
    const proxy::ProxyConfig config = region->current_config();
    ASSERT_EQ(config.backends.size(), 1u);
    EXPECT_EQ(config.backends.front().version, "fast");
  }
  const auto events = event_lines(eng);
  EXPECT_FALSE(has_event(events, "region_degraded"));
  EXPECT_FALSE(has_event(events, "error"));

  // Reconcile reads every region back over HTTP: all in sync.
  engine::Engine recovered(sim, metrics, proxies, options);
  ASSERT_TRUE(recovered.recover(disk.records()).ok());
  ASSERT_TRUE(recovered.reconcile().ok());
  EXPECT_TRUE(has_event(event_lines(recovered), "reconciled",
                        "eu-west=in_sync, us-east=in_sync, ap-south=in_sync"));
  for (auto& region : regions) region->stop();
}

// ---------------------------------------------------------------------------
// Acceptance (a) + (c): a partition of one region during the fleet-wide
// push holds the phase at quorum; after the heal, resync_regions()
// converges the straggler to the fleet epoch.

TEST(FleetRamp, QuorumHoldsThroughPartitionAndResyncConverges) {
  const core::StrategyDef def = load_fleet_ramp();
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, region_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  sim::FaultPlan plan;
  // ap-south drops off the network just before the fleet-wide rollout
  // push (t=600) and stays dark past the end of the strategy.
  plan.add_window({sim::FaultPlan::Target::kRegion, runtime::Time(590s),
                   runtime::Time(5000s), "ap-south"});
  ASSERT_TRUE(plan.validate_against(def).ok());
  proxies.set_fault_plan(&plan);
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;
  engine::Engine eng(sim, metrics, proxies, options);
  auto submitted = eng.submit(def);
  ASSERT_TRUE(submitted.ok()) << submitted.error_message();
  sim.run_all();

  // 2 of 3 acked: the phase held and the strategy completed.
  const auto snapshot = eng.status(submitted.value());
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->status, engine::ExecutionStatus::kSucceeded);
  EXPECT_EQ(snapshot->current_state, "done");
  const auto events = event_lines(eng);
  EXPECT_TRUE(has_event(events, "region_degraded", "ap-south"));
  EXPECT_FALSE(has_event(events, "region_degraded", "us-east"));

  // The partitioned region never accepted a config (the canary push was
  // scoped to eu-west; both fleet-wide pushes missed it).
  EXPECT_EQ(proxies.region_state("search", "eu-west")->epoch, 3u);
  EXPECT_EQ(proxies.region_state("search", "us-east")->epoch, 3u);
  EXPECT_EQ(proxies.region_state("search", "ap-south"), nullptr);

  // Heal the partition and resync: the straggler converges to the
  // fleet epoch with the exact fleet config.
  sim.run_until(runtime::Time(6000s));
  auto resynced = eng.resync_regions();
  ASSERT_TRUE(resynced.ok()) << resynced.error_message();
  EXPECT_EQ(resynced.value(), 1);
  const engine::ProxyStateView* ap = proxies.region_state("search", "ap-south");
  ASSERT_NE(ap, nullptr);
  EXPECT_EQ(ap->epoch, 3u);
  EXPECT_EQ(ap->config.to_json().dump(),
            proxies.region_state("search", "eu-west")->config.to_json().dump());
  EXPECT_TRUE(has_event(event_lines(eng), "region_resynced", "ap-south"));

  // Resyncing again is a no-op: the fleet is already converged.
  auto again = eng.resync_regions();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0);
}

// ---------------------------------------------------------------------------
// Acceptance (b): losing two regions drops the push below quorum and
// the strategy rolls back.

TEST(FleetRamp, SubQuorumPushRollsBack) {
  const core::StrategyDef def = load_fleet_ramp();
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, region_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  sim::FaultPlan plan;
  plan.add_window({sim::FaultPlan::Target::kRegion, runtime::Time(590s),
                   runtime::Time(5000s), "us-east"});
  plan.add_window({sim::FaultPlan::Target::kRegion, runtime::Time(590s),
                   runtime::Time(5000s), "ap-south"});
  proxies.set_fault_plan(&plan);
  engine::Engine eng(sim, metrics, proxies);
  auto submitted = eng.submit(def);
  ASSERT_TRUE(submitted.ok()) << submitted.error_message();
  sim.run_all();

  const auto snapshot = eng.status(submitted.value());
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->status, engine::ExecutionStatus::kRolledBack);
  EXPECT_EQ(snapshot->current_state, "rollback");
  const auto events = event_lines(eng);
  EXPECT_TRUE(has_event(events, "error", "quorum"));
  // The reachable canary region did roll back to 100% stable.
  const engine::ProxyStateView* eu = proxies.region_state("search", "eu-west");
  ASSERT_NE(eu, nullptr);
  EXPECT_NE(eu->config.to_json().dump().find("stable"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Acceptance (d): determinism — two same-seed partition runs leave
// byte-identical journals and event streams.

TEST(FleetRamp, PartitionRunsAreByteIdentical) {
  const core::StrategyDef def = load_fleet_ramp();
  auto run_once = [&def](std::vector<std::string>& events_out) {
    sim::Simulation sim(no_overhead());
    sim::SimMetricsClient metrics(sim, region_metrics(), zero_metric_costs());
    sim::SimProxyController proxies(sim, zero_proxy_costs());
    sim::FaultPlan plan(/*seed=*/7);
    plan.add_window({sim::FaultPlan::Target::kRegion, runtime::Time(590s),
                     runtime::Time(5000s), "ap-south"});
    proxies.set_fault_plan(&plan);
    engine::MemoryJournal disk;
    engine::Engine::Options options;
    options.journal = &disk;
    engine::Engine eng(sim, metrics, proxies, options);
    auto submitted = eng.submit(def);
    EXPECT_TRUE(submitted.ok()) << submitted.error_message();
    sim.run_all();
    events_out = event_lines(eng);
    // Full journal dump — NOTHING filtered: every record type, every
    // payload byte (region acks included) must replay identically.
    std::ostringstream dump;
    for (const engine::JournalRecord& record : disk.records()) {
      dump << engine::record_type_name(record.type) << " "
           << record.data.dump() << "\n";
    }
    return dump.str();
  };
  std::vector<std::string> events_a;
  std::vector<std::string> events_b;
  const std::string journal_a = run_once(events_a);
  const std::string journal_b = run_once(events_b);
  EXPECT_EQ(journal_a, journal_b);
  EXPECT_EQ(events_a, events_b);
  EXPECT_TRUE(has_event(events_a, "region_degraded", "ap-south"));
}

// ---------------------------------------------------------------------------
// Crash matrix: the engine dies at EVERY journal record boundary of the
// fleet strategy — including between two kRegionAck records of one
// fleet push — restarts, recovers, reconciles. The post-reconcile fleet
// state must be byte-identical to the uninterrupted run's.

TEST(FleetCrashMatrix, EveryRecordBoundary) {
  const core::StrategyDef def = load_fleet_ramp();
  const RunOutcome baseline = run_uninterrupted(def);
  ASSERT_EQ(baseline.status, engine::ExecutionStatus::kSucceeded);
  ASSERT_GT(baseline.journal_records, 2u);
  for (std::uint64_t n = 1; n <= baseline.journal_records; ++n) {
    SCOPED_TRACE("crash after journal record " + std::to_string(n));
    const RunOutcome resumed = run_crash_and_recover(def, n);
    expect_same_outcome(resumed, baseline);
    if (testing::Test::HasFailure()) return;
  }
}

// The fleet strategy issues 7 region applies (1 canary-scoped + 3 + 3
// fleet-wide); crash during every one of them. The config reached the
// region's proxy, the ack did not — recovery re-pushes the journaled
// intent and the region deduplicates by epoch.
TEST(FleetCrashMatrix, EveryRegionApplyBoundary) {
  const core::StrategyDef def = load_fleet_ramp();
  const RunOutcome baseline = run_uninterrupted(def);
  ASSERT_EQ(baseline.status, engine::ExecutionStatus::kSucceeded);
  for (std::uint64_t nth = 1; nth <= 7; ++nth) {
    SCOPED_TRACE("crash during region apply #" + std::to_string(nth));
    bool crashed = false;
    const RunOutcome resumed =
        run_crash_and_recover(def, /*crash_record=*/0, nth, &crashed);
    ASSERT_TRUE(crashed) << "apply #" << nth << " never happened";
    expect_same_outcome(resumed, baseline);
    EXPECT_GE(resumed.deduplicated_applies, 1u)
        << "the re-pushed region config should dedupe by epoch";
    if (testing::Test::HasFailure()) return;
  }
}

// A canary-scoped intent must NOT be converged fleet-wide: after a
// crash during the canary push, reconcile re-pushes the canary region
// only and leaves never-targeted regions untouched.
TEST(FleetCrashMatrix, ReconcileRespectsRegionScope) {
  const char* kCanaryOnly = R"(
strategy:
  name: canary-only
  initial: canary
  states:
    - state:
        name: canary
        final: success
        routes:
          - route:
              service: search
              regions: [eu-west]
              split:
                - version: fast
                  percent: 100
deployment:
  services:
    - service:
        name: search
        regions:
          - region: { name: eu-west, adminHost: h, adminPort: 1, canaryOrder: 0 }
          - region: { name: us-east, adminHost: h, adminPort: 2, canaryOrder: 1 }
          - region: { name: ap-south, adminHost: h, adminPort: 3, canaryOrder: 2 }
        versions:
          - version: { name: fast, host: h, port: 4 }
)";
  auto compiled = dsl::compile(kCanaryOnly);
  ASSERT_TRUE(compiled.ok()) << compiled.error_message();
  const core::StrategyDef def = std::move(compiled).value();

  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, region_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  sim::FaultPlan plan;
  plan.crash_on_apply(1);
  proxies.set_fault_plan(&plan);
  sim::CrashableJournal crashable(disk, plan);
  {
    engine::Engine::Options options;
    options.journal = &crashable;
    engine::Engine eng(sim, metrics, proxies, options);
    auto submitted = eng.submit(def);
    ASSERT_TRUE(submitted.ok()) << submitted.error_message();
    EXPECT_THROW(sim.run_all(), sim::CrashInjected);
  }
  proxies.set_fault_plan(nullptr);
  const std::vector<engine::JournalRecord> history = disk.records();
  engine::Engine::Options options;
  options.journal = &disk;
  engine::Engine eng(sim, metrics, proxies, options);
  ASSERT_TRUE(eng.recover(history).ok());
  ASSERT_TRUE(eng.reconcile().ok());
  sim.run_all();

  // The scoped intent was re-pushed to its region; the rest of the
  // fleet was never targeted and reconcile must not have invented a
  // config for it.
  const engine::ProxyStateView* eu = proxies.region_state("search", "eu-west");
  ASSERT_NE(eu, nullptr);
  EXPECT_EQ(eu->epoch, 1u);
  EXPECT_EQ(proxies.region_state("search", "us-east"), nullptr);
  EXPECT_EQ(proxies.region_state("search", "ap-south"), nullptr);
}

// ---------------------------------------------------------------------------
// Cross-region aggregation: the rollout gate sees the aggregate, not
// any single region's value.

TEST(FleetAggregate, WorstRegionDrivesRollback) {
  const core::StrategyDef def = load_fleet_ramp();
  // ap-south's response time blows the <150 gate; eu-west (the directly
  // queried canary metric) stays healthy, so only the max-aggregated
  // fleet check can catch it.
  const RunOutcome out =
      run_uninterrupted(def, region_metrics(100.0, 110.0, 400.0));
  EXPECT_EQ(out.status, engine::ExecutionStatus::kRolledBack);
  EXPECT_EQ(out.final_state, "rollback");
}

TEST(FleetAggregate, DeltaComparesCanaryAgainstWeightedFleetMean) {
  core::StrategyDef def = load_fleet_ramp();
  core::StateDef* rollout = nullptr;
  for (core::StateDef& state : def.states) {
    if (state.name == "rollout") rollout = &state;
  }
  ASSERT_NE(rollout, nullptr);
  ASSERT_FALSE(rollout->checks.empty());
  core::MetricCondition& condition = rollout->checks[0].conditions[0];
  condition.aggregate = core::RegionAggregate::kDelta;
  // Canary drift gate: eu-west may be at most 25ms slower than the
  // weighted mean of the rest of the fleet.
  auto validator = core::Validator::parse("<25");
  ASSERT_TRUE(validator.ok());
  condition.validator = validator.value();

  // Rest mean is (110 + 120) / 2 = 115 throughout.
  // eu=100: delta -15, passes.
  EXPECT_EQ(run_uninterrupted(def, region_metrics(100.0, 110.0, 120.0)).status,
            engine::ExecutionStatus::kSucceeded);
  // eu=130: delta +15, still under the gate.
  EXPECT_EQ(run_uninterrupted(def, region_metrics(130.0, 110.0, 120.0)).status,
            engine::ExecutionStatus::kSucceeded);
  // eu=160: delta +45, rolls back.
  EXPECT_EQ(run_uninterrupted(def, region_metrics(160.0, 110.0, 120.0)).status,
            engine::ExecutionStatus::kRolledBack);
}

// ---------------------------------------------------------------------------
// A long-lived engine: ramps back to back. Snapshots hold only the live
// ramp; finished ones are summaries on their terminal records. A
// finished ramp whose fleet-wide push is still the floor gets its
// definition back from its submit record on replay — reconcile
// converges regions to it.

TEST(FleetRetirement, FleetFloorOwnerKeepsItsDefinition) {
  const core::StrategyDef def = load_fleet_ramp();
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, region_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;
  options.snapshot_every = 4;  // a snapshot lands inside every state
  engine::Engine original(sim, metrics, proxies, options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(original.submit(def).ok());
    sim.run_all();
  }
  // The fourth ramp's canary push is scoped to eu-west: the fleet floor
  // is still s-3's final push.
  ASSERT_TRUE(original.submit(def).ok());
  sim.run_until(sim.now() + runtime::Duration(300s));
  ASSERT_EQ(original.status("s-4")->current_state, "canary");

  const engine::JournalRecord* last = nullptr;
  for (const engine::JournalRecord& record : disk.records()) {
    if (record.type == RecordType::kSnapshot) last = &record;
  }
  ASSERT_NE(last, nullptr);
  std::map<std::string, bool> has_def;
  for (const json::Value& entry : last->data.find("strategies")->as_array()) {
    has_def[entry.get_string("id")] = entry.find("def") != nullptr;
  }
  EXPECT_EQ(has_def, (std::map<std::string, bool>{{"s-4", false}}));
  EXPECT_EQ(last->data.find("fleetIntents")->find("search")->get_string(
                "strategyId"),
            "s-3");  // the floor owner

  // A fresh engine reconciles fresh proxies to the same per-region
  // routing, and reports the retired ramps exactly as the original.
  sim::SimProxyController fresh(sim, zero_proxy_costs());
  engine::MemoryJournal marker_log;
  options.journal = &marker_log;
  engine::Engine recovered(sim, metrics, fresh, options);
  ASSERT_TRUE(recovered.recover(disk.records()).ok());
  ASSERT_TRUE(recovered.reconcile().ok());
  EXPECT_EQ(routing_of(fresh), routing_of(proxies));
  for (const char* id : {"s-1", "s-2", "s-3"}) {
    SCOPED_TRACE(id);
    const auto want = original.status(id);
    const auto got = recovered.status(id);
    ASSERT_TRUE(want.has_value() && got.has_value());
    EXPECT_EQ(got->status, want->status);
    EXPECT_EQ(got->transitions, want->transitions);
    EXPECT_EQ(got->checks_executed, want->checks_executed);
    ASSERT_EQ(got->history.size(), want->history.size());
    for (std::size_t i = 0; i < got->history.size(); ++i) {
      EXPECT_EQ(got->history[i].state, want->history[i].state);
      EXPECT_EQ(got->history[i].entered, want->history[i].entered);
      EXPECT_EQ(got->history[i].exited, want->history[i].exited);
    }
    EXPECT_DOUBLE_EQ(got->finished_seconds, want->finished_seconds);
    EXPECT_DOUBLE_EQ(got->enactment_delay_seconds,
                     want->enactment_delay_seconds);
  }
}

// ---------------------------------------------------------------------------
// Graphviz: region-scoped ramp phases render distinctly (golden file)

TEST(FleetDot, GoldenFile) {
  const core::StrategyDef def = load_fleet_ramp();
  const std::string rendered = core::to_dot(def);

  // Structural anchors independent of the golden bytes: the scoped
  // canary state is visually distinct and labeled with its region; the
  // fleet-wide rollout is not.
  EXPECT_NE(rendered.find("search@eu-west/fast 1%"), std::string::npos);
  EXPECT_NE(rendered.find("rounded,dashed"), std::string::npos);
  EXPECT_NE(rendered.find("search/fast 50%"), std::string::npos);

  const std::string golden_path =
      std::string(BIFROST_GOLDEN_DIR) + "/fleet_ramp.dot";
  std::ifstream golden_file(golden_path);
  ASSERT_TRUE(golden_file.good()) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << golden_file.rdbuf();
  EXPECT_EQ(rendered, golden.str())
      << "dot output drifted from " << golden_path
      << " — regenerate with: bifrost dot examples/strategies/fleet_ramp.yaml";
}

// ---------------------------------------------------------------------------
// Concurrent fan-out: with an executor, every fresh region but the
// canary-first one is offered to it as a job, and the pushing thread
// joins them in canary order (claim-or-run).

/// Thread-safe region controller: every region apply waits `delay` (the
/// admin round trip), records which region ran on which thread, and
/// fails for the regions in `failing`.
class SlowRegions final : public engine::ProxyController {
 public:
  explicit SlowRegions(std::chrono::milliseconds delay,
                       std::set<std::string> failing = {})
      : delay_(delay), failing_(std::move(failing)) {}

  util::Result<void> apply(const core::ServiceDef& /*service*/,
                           const proxy::ProxyConfig& /*config*/) override {
    return {};
  }
  util::Result<void> apply_region(
      const core::ServiceDef& /*service*/, const core::RegionDef& region,
      const proxy::ProxyConfig& /*config*/) override {
    std::this_thread::sleep_for(delay_);
    const std::lock_guard<std::mutex> lock(mutex_);
    applied_.emplace_back(region.name, std::this_thread::get_id());
    if (failing_.count(region.name) != 0) {
      return util::Result<void>::error("region '" + region.name +
                                       "' unreachable");
    }
    return {};
  }

  std::vector<std::pair<std::string, std::thread::id>> applied() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return applied_;
  }

 private:
  const std::chrono::milliseconds delay_;
  const std::set<std::string> failing_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::thread::id>> applied_;
};

/// Holds every submitted job and never starts one until told to.
class HoardingExecutor final : public runtime::Executor {
 public:
  bool submit(Job job) override {
    jobs_.push_back(std::move(job));
    return true;
  }
  std::size_t run_all() {
    std::vector<Job> jobs = std::move(jobs_);
    for (Job& job : jobs) job();
    return jobs.size();
  }

 private:
  std::vector<Job> jobs_;
};

proxy::ProxyConfig search_config() {
  proxy::ProxyConfig config;
  config.service = "search";
  config.backends = {
      proxy::BackendTarget{"fast", "127.0.0.1", 8002, 100.0, "", ""}};
  return config;
}

/// One fleet push: "region ok|error" per on_ack call, in call order.
struct PushRecord {
  std::vector<std::string> acks;
  engine::Fleet::PushResult result;
};

PushRecord push_fleet(engine::ProxyController& proxies,
                      runtime::Executor* executor,
                      const core::ServiceDef& service,
                      const std::vector<std::string>& scope = {}) {
  PushRecord record;
  const engine::Fleet::AckFn on_ack =
      [&record](const engine::Fleet::RegionOutcome& outcome) {
        record.acks.push_back(outcome.region->name + " " +
                              (outcome.ok ? "ok" : outcome.error));
      };
  engine::Fleet fleet(proxies, executor);
  record.result = fleet.push(service, search_config(), scope, nullptr, on_ack);
  return record;
}

std::vector<std::string> healthy_acks() {
  return {"eu-west ok", "us-east ok", "ap-south ok"};
}

TEST(FleetFanOut, ThreeRegionPushCostsAboutOneRoundTrip) {
  const core::StrategyDef def = load_fleet_ramp();
  const core::ServiceDef* search = def.find_service("search");
  ASSERT_NE(search, nullptr);
  runtime::WorkStealingPool pool(2);
  SlowRegions proxies(30ms);

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const PushRecord one = push_fleet(proxies, &pool, *search, {"eu-west"});
  const Clock::time_point middle = Clock::now();
  const PushRecord three = push_fleet(proxies, &pool, *search);
  const Clock::time_point end = Clock::now();

  ASSERT_EQ(one.acks, std::vector<std::string>{"eu-west ok"});
  EXPECT_EQ(three.acks, healthy_acks());
  EXPECT_EQ(three.result.acked, 3);
  EXPECT_LT(end - middle, 2 * (middle - start))
      << "a 3-region push should overlap its regions' round trips";
  pool.shutdown();
}

TEST(FleetFanOut, FailingMiddleRegionReportedInCanaryOrder) {
  const core::StrategyDef def = load_fleet_ramp();
  const core::ServiceDef* search = def.find_service("search");
  ASSERT_NE(search, nullptr);
  SlowRegions sequential_proxies(5ms, {"us-east"});
  const PushRecord sequential =
      push_fleet(sequential_proxies, nullptr, *search);

  runtime::WorkStealingPool pool(2);
  SlowRegions concurrent_proxies(5ms, {"us-east"});
  const PushRecord concurrent = push_fleet(concurrent_proxies, &pool, *search);
  pool.shutdown();

  const std::vector<std::string> want = {
      "eu-west ok", "us-east region 'us-east' unreachable", "ap-south ok"};
  EXPECT_EQ(concurrent.acks, want);
  EXPECT_EQ(concurrent.acks, sequential.acks);
  ASSERT_EQ(concurrent.result.outcomes.size(), 3u);
  EXPECT_EQ(concurrent.result.outcomes[1].region->name, "us-east");
  EXPECT_FALSE(concurrent.result.outcomes[1].ok);
  EXPECT_EQ(concurrent.result.acked, sequential.result.acked);
  EXPECT_EQ(concurrent.result.required, sequential.result.required);
  EXPECT_TRUE(concurrent.result.quorum_met());
  EXPECT_EQ(concurrent.result.failed_regions(), "us-east");
}

// An executor that never starts its jobs (a saturated pool, a paused
// worker) cannot stall the push: the caller claims every offer and runs
// it inline, in canary order; the late jobs then do nothing.
TEST(FleetFanOut, ExecutorThatNeverStartsJobsDegradesToSequential) {
  const core::StrategyDef def = load_fleet_ramp();
  const core::ServiceDef* search = def.find_service("search");
  ASSERT_NE(search, nullptr);
  HoardingExecutor executor;
  SlowRegions proxies(0ms);
  const PushRecord record = push_fleet(proxies, &executor, *search);

  EXPECT_EQ(record.acks, healthy_acks());
  const auto applied = proxies.applied();
  ASSERT_EQ(applied.size(), 3u);
  for (const auto& [region, thread] : applied) {
    EXPECT_EQ(thread, std::this_thread::get_id()) << region;
  }
  EXPECT_EQ(applied[1].first, "us-east");
  EXPECT_EQ(executor.run_all(), 2u);  // the two offers, already claimed
  EXPECT_EQ(proxies.applied().size(), 3u);
}

/// kRegionAck and kApplyAck records of a journal, wall-clock time
/// stripped (it is the only field that differs between the arms).
std::vector<std::string> ack_records(
    const std::vector<engine::JournalRecord>& records) {
  std::vector<std::string> out;
  for (const engine::JournalRecord& record : records) {
    if (record.type != RecordType::kRegionAck &&
        record.type != RecordType::kApplyAck) {
      continue;
    }
    json::Value data = record.data;
    data.as_object().erase("tNs");
    out.push_back(std::string(engine::record_type_name(record.type)) + " " +
                  data.dump());
  }
  return out;
}

class NoMetrics final : public engine::MetricsClient {
 public:
  util::Result<std::optional<double>> query(
      const core::ProviderConfig& /*provider*/,
      const std::string& /*query*/) override {
    return std::optional<double>{};
  }
};

// The journal a real-threaded engine writes for a fleet push is the
// sequential arm's, record for record: region acks in canary order
// (the failing middle region included), then the quorum verdict.
TEST(FleetFanOut, EngineJournalsAcksInCanaryOrderOnAPool) {
  const char* kFleetPush = R"(
strategy:
  name: fleet-push
  initial: rollout
  states:
    - state:
        name: rollout
        final: success
        routes:
          - route:
              service: search
              split:
                - version: fast
                  percent: 100
deployment:
  services:
    - service:
        name: search
        quorum: 2
        regions:
          - region: { name: eu-west, adminHost: h, adminPort: 1, canaryOrder: 0 }
          - region: { name: us-east, adminHost: h, adminPort: 2, canaryOrder: 1 }
          - region: { name: ap-south, adminHost: h, adminPort: 3, canaryOrder: 2 }
        versions:
          - version: { name: fast, host: h, port: 4 }
)";
  auto compiled = dsl::compile(kFleetPush);
  ASSERT_TRUE(compiled.ok()) << compiled.error_message();
  const core::StrategyDef def = std::move(compiled).value();

  auto run = [&def](runtime::Executor* executor) {
    runtime::ManualClock clock;
    NoMetrics metrics;
    SlowRegions proxies(5ms, {"us-east"});
    engine::MemoryJournal disk;
    engine::Engine::Options options;
    options.journal = &disk;
    options.check_executor = executor;
    engine::Engine eng(clock, metrics, proxies, options);
    auto submitted = eng.submit(def);
    EXPECT_TRUE(submitted.ok()) << submitted.error_message();
    clock.advance_by(runtime::Duration(0));
    const auto snapshot = eng.status(submitted.value());
    EXPECT_TRUE(snapshot.has_value() &&
                snapshot->status == engine::ExecutionStatus::kSucceeded);
    return ack_records(disk.records());
  };
  const std::vector<std::string> sequential = run(nullptr);
  runtime::WorkStealingPool pool(2);
  const std::vector<std::string> concurrent = run(&pool);
  pool.shutdown();

  ASSERT_EQ(sequential.size(), 4u);
  EXPECT_NE(sequential[0].find("eu-west"), std::string::npos);
  EXPECT_NE(sequential[1].find("us-east"), std::string::npos);
  EXPECT_NE(sequential[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(sequential[2].find("ap-south"), std::string::npos);
  EXPECT_NE(sequential[3].find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(concurrent, sequential);
}

// On the simulator's worker lanes a push is sequential (the lanes start
// jobs only after the pushing callback returns), and the run journals
// the same region acks and leaves the same routing as the pool-less one.
TEST(FleetFanOut, SimulatedWorkersPushSequentially) {
  const core::StrategyDef def = load_fleet_ramp();
  auto run = [&def](int workers, std::string* routing) {
    sim::Simulation::Options sim_options = no_overhead();
    sim_options.workers = workers;
    sim::Simulation sim(sim_options);
    sim::SimMetricsClient metrics(sim, region_metrics(), zero_metric_costs());
    sim::SimProxyController proxies(sim, zero_proxy_costs());
    engine::MemoryJournal disk;
    engine::Engine::Options options;
    options.journal = &disk;
    if (workers > 0) options.check_executor = &sim;
    engine::Engine eng(sim, metrics, proxies, options);
    auto submitted = eng.submit(def);
    EXPECT_TRUE(submitted.ok()) << submitted.error_message();
    sim.run_all();
    const auto snapshot = eng.status(submitted.value());
    EXPECT_TRUE(snapshot.has_value() &&
                snapshot->status == engine::ExecutionStatus::kSucceeded);
    for (const auto& [key, value] : routing_of(proxies)) {
      *routing += key + " " + value + "\n";
    }
    return ack_records(disk.records());
  };
  std::string pool_less_routing;
  std::string simulated_routing;
  const std::vector<std::string> pool_less = run(0, &pool_less_routing);
  const std::vector<std::string> simulated = run(2, &simulated_routing);
  ASSERT_FALSE(pool_less.empty());
  EXPECT_EQ(simulated, pool_less);
  EXPECT_EQ(simulated_routing, pool_less_routing);
}

}  // namespace
}  // namespace bifrost

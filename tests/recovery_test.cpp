// Crash-recovery matrix: a simulated engine journaling to an in-memory
// "disk" is killed at EVERY journal record boundary of the repo's two
// example strategies (and mid-proxy-apply), restarted, recovered from
// the journal, and reconciled against the proxies. The resumed run must
// be indistinguishable from an uninterrupted one: identical
// state-transition trace (journal records minus recovery markers and
// acks, which legitimately differ at intent/ack crash boundaries) and
// identical final proxy routing, down to config epochs.
//
// Determinism relies on zero simulated costs: timers fire at the exact
// absolute times the journal recorded, so a resumed execution re-arms
// and re-emits byte-identical records.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/model.hpp"
#include "core/serialize.hpp"
#include "dsl/dsl.hpp"
#include "engine/engine.hpp"
#include "engine/journal.hpp"
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

/// Metric values that drive both example strategies to their success
/// path: response times under the 150ms gate, zero errors, enough
/// sales uplift for the A/B state.
sim::MetricFn example_metrics() {
  return [](const std::string& query, double) -> std::optional<double> {
    if (query.find("request_errors") != std::string::npos) return 0.0;
    if (query.find("sales_total") != std::string::npos) return 150.0;
    return 100.0;
  };
}

core::StrategyDef load_example(const std::string& file) {
  const std::string path = std::string(BIFROST_STRATEGY_DIR) + "/" + file;
  auto compiled = dsl::compile_file(path);
  EXPECT_TRUE(compiled.ok()) << path << ": " << compiled.error_message();
  return compiled.ok() ? std::move(compiled).value() : core::StrategyDef{};
}

// ---------------------------------------------------------------------------
// Trace capture

/// (type, payload) sequence of the externally visible transitions.
/// Markers and snapshots are filtered: a resumed run legitimately adds
/// kRecovered/kReconciled/kSnapshot records, and a kApplyAck can be
/// missing when the crash hit between intent and ack (the resumed run
/// re-acks after re-applying).
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

/// What a run leaves behind: the transition trace, the final per-service
/// proxy routing (epoch + full config), and the execution's end state.
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
  for (const auto& [service, view] : proxies.states()) {
    routing[service] = "epoch=" + std::to_string(view.epoch) + " " +
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

// ---------------------------------------------------------------------------
// Run harnesses

constexpr std::size_t kSnapshotEvery = 64;

RunOutcome run_uninterrupted(const core::StrategyDef& def) {
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
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

/// Runs the strategy with a crash armed (either after journal record
/// `crash_record`, or during the `crash_apply`-th proxy apply), then
/// restarts a fresh engine on the same disk/simulation/proxies,
/// recovers, reconciles, and runs to completion.
RunOutcome run_crash_and_recover(const core::StrategyDef& def,
                                 std::uint64_t crash_record,
                                 std::uint64_t crash_apply = 0,
                                 bool* crashed_out = nullptr) {
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
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
    if (!crashed) {
      // The armed boundary was past the end of the run; nothing to
      // recover. Report the uninterrupted outcome.
      fill_outcome(out, eng, id, proxies, disk);
    }
  }  // ~Engine: the "killed" incarnation's timers are cancelled
  if (crashed_out != nullptr) *crashed_out = crashed;
  if (!crashed) return out;

  // Restart: fresh engine, same disk, same proxies. Copy the records
  // first — recover() appends markers to the same journal it replays.
  proxies.set_fault_plan(nullptr);
  const std::vector<engine::JournalRecord> history = disk.records();
  engine::Engine::Options options;
  options.journal = &disk;
  options.snapshot_every = kSnapshotEvery;
  engine::Engine eng(sim, metrics, proxies, options);
  EXPECT_FALSE(eng.ready());
  auto recovered = eng.recover(history);
  EXPECT_TRUE(recovered.ok()) << recovered.error_message();
  auto reconciled = eng.reconcile();
  EXPECT_TRUE(reconciled.ok()) << reconciled.error_message();
  EXPECT_TRUE(eng.ready());
  sim.run_all();
  fill_outcome(out, eng, id.empty() ? "s-1" : id, proxies, disk);
  return out;
}

// ---------------------------------------------------------------------------
// The crash matrix (ISSUE acceptance: every record boundary of both
// example strategies)

void crash_matrix(const std::string& file) {
  const core::StrategyDef def = load_example(file);
  ASSERT_FALSE(def.states.empty());
  const RunOutcome baseline = run_uninterrupted(def);
  ASSERT_EQ(baseline.status, engine::ExecutionStatus::kSucceeded);
  ASSERT_GT(baseline.journal_records, 2u);
  for (std::uint64_t n = 1; n <= baseline.journal_records; ++n) {
    SCOPED_TRACE(file + ": crash after journal record " + std::to_string(n));
    const RunOutcome resumed = run_crash_and_recover(def, n);
    expect_same_outcome(resumed, baseline);
    if (testing::Test::HasFailure()) return;  // one boundary is enough noise
  }
}

TEST(CrashMatrix, DarklaunchEveryRecordBoundary) {
  crash_matrix("darklaunch.yaml");
}

TEST(CrashMatrix, FastsearchRolloutEveryRecordBoundary) {
  crash_matrix("fastsearch_rollout.yaml");
}

// ---------------------------------------------------------------------------
// Crash mid-proxy-apply: the update reached the proxy, the ack did not.
// Recovery re-issues the journaled intent with the journaled epoch and
// the proxy deduplicates it.

TEST(CrashOnApply, FirstApplyOfDarklaunch) {
  const core::StrategyDef def = load_example("darklaunch.yaml");
  const RunOutcome baseline = run_uninterrupted(def);
  bool crashed = false;
  const RunOutcome resumed =
      run_crash_and_recover(def, /*crash_record=*/0, /*crash_apply=*/1,
                            &crashed);
  ASSERT_TRUE(crashed);
  expect_same_outcome(resumed, baseline);
  EXPECT_GE(resumed.deduplicated_applies, 1u)
      << "the re-issued intent should have been deduplicated by epoch";
}

TEST(CrashOnApply, EveryApplyOfFastsearch) {
  const core::StrategyDef def = load_example("fastsearch_rollout.yaml");
  const RunOutcome baseline = run_uninterrupted(def);
  // fastsearch pushes one routing change per visited state; crash on
  // each of the first few (canary, ramp steps, ab-test).
  for (std::uint64_t nth = 1; nth <= 4; ++nth) {
    SCOPED_TRACE("crash during proxy apply #" + std::to_string(nth));
    bool crashed = false;
    const RunOutcome resumed =
        run_crash_and_recover(def, /*crash_record=*/0, nth, &crashed);
    ASSERT_TRUE(crashed);
    expect_same_outcome(resumed, baseline);
    EXPECT_GE(resumed.deduplicated_applies, 1u);
    if (testing::Test::HasFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Recovering twice is a no-op

TEST(Recovery, RecoverTwiceIsANoOp) {
  const core::StrategyDef def = load_example("darklaunch.yaml");
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;

  {
    engine::Engine eng(sim, metrics, proxies, options);
    auto submitted = eng.submit(def);
    ASSERT_TRUE(submitted.ok()) << submitted.error_message();
    sim.run_all();
    ASSERT_EQ(eng.status(submitted.value())->status,
              engine::ExecutionStatus::kSucceeded);
  }
  const std::uint64_t updates_after_run = proxies.updates();

  auto snapshot_fields = [](const engine::StrategySnapshot& s) {
    return s.id + "|" + s.current_state + "|" +
           std::to_string(static_cast<int>(s.status)) + "|" +
           std::to_string(s.transitions) + "|" +
           std::to_string(s.finished_seconds);
  };

  std::string first_view;
  {
    const std::vector<engine::JournalRecord> history = disk.records();
    engine::Engine eng(sim, metrics, proxies, options);
    ASSERT_TRUE(eng.recover(history).ok());
    ASSERT_TRUE(eng.reconcile().ok());
    sim.run_all();
    ASSERT_EQ(eng.list().size(), 1u);
    EXPECT_EQ(eng.running_count(), 0u);  // terminal: nothing resumed
    first_view = snapshot_fields(eng.list()[0]);
  }
  const auto routing_after_first = routing_of(proxies);
  // Reconciliation found the proxies in sync: no new apply was issued.
  EXPECT_EQ(proxies.updates(), updates_after_run);

  {
    const std::vector<engine::JournalRecord> history = disk.records();
    engine::Engine eng(sim, metrics, proxies, options);
    ASSERT_TRUE(eng.recover(history).ok());
    ASSERT_TRUE(eng.reconcile().ok());
    sim.run_all();
    ASSERT_EQ(eng.list().size(), 1u);
    EXPECT_EQ(eng.running_count(), 0u);
    EXPECT_EQ(snapshot_fields(eng.list()[0]), first_view);
  }
  EXPECT_EQ(routing_of(proxies), routing_after_first);
  EXPECT_EQ(proxies.updates(), updates_after_run);
}

// ---------------------------------------------------------------------------
// Long-lived engines: several strategies back to back on ONE engine.
// Snapshots retire finished strategies to compact summaries; recovery
// must not be able to tell.

constexpr std::size_t kDenseSnapshots = 16;

/// Both example strategies, alternating: they share the "search"
/// service, so each one's apply intents supersede the previous one's.
std::vector<core::StrategyDef> alternating_examples(int count) {
  std::vector<core::StrategyDef> defs;
  for (int i = 0; i < count; ++i) {
    defs.push_back(load_example(i % 2 == 0 ? "darklaunch.yaml"
                                           : "fastsearch_rollout.yaml"));
  }
  return defs;
}

/// Submits each strategy once the previous one has finished.
void run_back_to_back(engine::Engine& eng, sim::Simulation& sim,
                      const std::vector<core::StrategyDef>& defs) {
  for (const core::StrategyDef& def : defs) {
    auto submitted = eng.submit(def);
    ASSERT_TRUE(submitted.ok()) << submitted.error_message();
    sim.run_all();
  }
}

std::size_t count_snapshots(const std::vector<engine::JournalRecord>& records) {
  std::size_t n = 0;
  for (const engine::JournalRecord& record : records) {
    if (record.type == RecordType::kSnapshot) ++n;
  }
  return n;
}

void expect_same_status(const engine::StrategySnapshot& got,
                        const engine::StrategySnapshot& want) {
  SCOPED_TRACE("strategy " + want.id);
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.current_state, want.current_state);
  EXPECT_DOUBLE_EQ(got.started_seconds, want.started_seconds);
  EXPECT_DOUBLE_EQ(got.finished_seconds, want.finished_seconds);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.checks_executed, want.checks_executed);
  ASSERT_EQ(got.history.size(), want.history.size());
  for (std::size_t i = 0; i < got.history.size(); ++i) {
    EXPECT_EQ(got.history[i].state, want.history[i].state) << i;
    EXPECT_EQ(got.history[i].entered, want.history[i].entered) << i;
    EXPECT_EQ(got.history[i].exited, want.history[i].exited) << i;
    EXPECT_DOUBLE_EQ(got.history[i].outcome, want.history[i].outcome) << i;
    EXPECT_EQ(got.history[i].via_exception, want.history[i].via_exception)
        << i;
  }
  EXPECT_DOUBLE_EQ(got.enactment_delay_seconds, want.enactment_delay_seconds);
}

void expect_same_list(const engine::Engine& got, const engine::Engine& want) {
  const auto got_list = got.list();
  const auto want_list = want.list();
  ASSERT_EQ(got_list.size(), want_list.size());
  for (std::size_t i = 0; i < got_list.size(); ++i) {
    expect_same_status(got_list[i], want_list[i]);
    const auto status = got.status(want_list[i].id);
    ASSERT_TRUE(status.has_value());
    expect_same_status(*status, want_list[i]);
  }
}

std::vector<engine::JournalRecord> without_snapshots(
    const std::vector<engine::JournalRecord>& records) {
  std::vector<engine::JournalRecord> out;
  for (const engine::JournalRecord& record : records) {
    if (record.type != RecordType::kSnapshot) out.push_back(record);
  }
  return out;
}

TEST(Retirement, LongLivedEngineRecoversEveryStrategy) {
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;
  options.snapshot_every = kDenseSnapshots;
  engine::Engine original(sim, metrics, proxies, options);
  run_back_to_back(original, sim, alternating_examples(5));
  ASSERT_EQ(original.list().size(), 5u);
  ASSERT_GT(count_snapshots(disk.records()), 4u);

  // A fresh engine against fresh proxies: status comes from the last
  // snapshot's retired summaries, routing from reconcile() alone.
  sim::SimProxyController fresh_proxies(sim, zero_proxy_costs());
  engine::MemoryJournal marker_log;
  options.journal = &marker_log;
  engine::Engine recovered(sim, metrics, fresh_proxies, options);
  ASSERT_TRUE(recovered.recover(disk.records()).ok());
  ASSERT_TRUE(recovered.reconcile().ok());
  expect_same_list(recovered, original);
  EXPECT_EQ(routing_of(fresh_proxies), routing_of(proxies));

  // Replaying every record instead of the summaries gives bit-identical
  // status, enactment delay included.
  engine::MemoryJournal marker_log2;
  options.journal = &marker_log2;
  engine::Engine from_records(sim, metrics, fresh_proxies, options);
  ASSERT_TRUE(from_records.recover(without_snapshots(disk.records())).ok());
  const auto summary_list = recovered.list();
  const auto record_list = from_records.list();
  ASSERT_EQ(summary_list.size(), record_list.size());
  for (std::size_t i = 0; i < summary_list.size(); ++i) {
    EXPECT_EQ(summary_list[i].enactment_delay_seconds,
              record_list[i].enactment_delay_seconds);
    EXPECT_EQ(summary_list[i].finished_seconds,
              record_list[i].finished_seconds);
    EXPECT_EQ(summary_list[i].history.size(), record_list[i].history.size());
  }
}

/// Digits in `text`: numbers (epochs, ids, virtual times) legitimately
/// grow longer along a run.
std::size_t digit_count(const std::string& text) {
  return static_cast<std::size_t>(
      std::count_if(text.begin(), text.end(),
                    [](char c) { return c >= '0' && c <= '9'; }));
}

TEST(Retirement, SnapshotsHoldOnlyLiveWork) {
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;
  options.snapshot_every = 4;  // a snapshot lands inside every state
  engine::Engine eng(sim, metrics, proxies, options);
  run_back_to_back(eng, sim, alternating_examples(20));

  // Largest snapshot (serialized) taken while each strategy was the
  // newest one submitted.
  std::map<int, std::string> largest;
  int strategy = 0;
  for (const engine::JournalRecord& record : disk.records()) {
    if (record.type == RecordType::kSubmit) ++strategy;
    if (record.type != RecordType::kSnapshot) continue;
    for (const json::Value& entry :
         record.data.find("strategies")->as_array()) {
      SCOPED_TRACE(entry.get_string("id"));
      // Definitions stay in kSubmit, retired summaries on terminal
      // records: a snapshot holds live work only.
      EXPECT_EQ(entry.find("def"), nullptr);
      EXPECT_FALSE(entry.get_bool("terminal"));
      EXPECT_NE(entry.find("pending"), nullptr);  // resume progress
    }
    std::string dumped = record.data.dump();
    if (dumped.size() > largest[strategy].size()) {
      largest[strategy] = std::move(dumped);
    }
  }
  ASSERT_EQ(strategy, 20);
  ASSERT_FALSE(largest[2].empty());
  ASSERT_FALSE(largest[20].empty());
  // Strategies 2 and 20 are the same example after the same one: the
  // twentieth's snapshots may be larger only by longer numbers.
  EXPECT_LE(largest[20].size() - digit_count(largest[20]),
            largest[2].size() - digit_count(largest[2]));
}

// The live tracker takes each submitted definition as validated, while
// replay parses it from the kSubmit record. Both must write the same
// bytes: every snapshot equals that of a tracker replayed from the
// journal before it, and every terminal record's summary equals what a
// replay up to that record reports.
TEST(Retirement, LiveSnapshotsAndSummariesMatchReplay) {
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;
  options.snapshot_every = kDenseSnapshots;
  engine::Engine eng(sim, metrics, proxies, options);
  run_back_to_back(eng, sim, alternating_examples(4));

  const std::vector<engine::JournalRecord>& records = disk.records();
  int snapshots = 0;
  int summaries = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bool snapshot = records[i].type == RecordType::kSnapshot;
    const json::Value* summary = records[i].data.find("summary");
    if (!snapshot && summary == nullptr) continue;
    SCOPED_TRACE("journal record " + std::to_string(i));
    const auto end = records.begin() + static_cast<std::ptrdiff_t>(
                                           snapshot ? i : i + 1);
    engine::StateTracker tracker;
    ASSERT_TRUE(tracker.replay({records.begin(), end}).ok());
    if (snapshot) {
      EXPECT_EQ(tracker.to_snapshot().dump(), records[i].data.dump());
      ++snapshots;
    } else {
      EXPECT_EQ(tracker.summary(records[i].data.get_string("id")).dump(),
                summary->dump());
      ++summaries;
    }
  }
  EXPECT_GT(snapshots, 10);
  EXPECT_EQ(summaries, 4);
}

/// The snapshot an engine wrote before finished strategies were retired:
/// every strategy in full, with definition and (empty) resume progress.
/// Built from the tracker's live entries, its retired summaries and the
/// definitions.
json::Value old_format_snapshot(
    const engine::StateTracker& tracker,
    const std::map<std::string, core::StrategyDef>& defs) {
  json::Value old = tracker.to_snapshot();
  json::Array& entries = old.as_object()["strategies"].as_array();
  for (const auto& [id, strategy] : tracker.strategies()) {
    if (strategy.terminal) entries.push_back(tracker.summary(id));
  }
  for (json::Value& entry : entries) {
    json::Object& fields = entry.as_object();
    fields["def"] = core::strategy_to_json(defs.at(fields["id"].as_string()));
    if (!fields["terminal"].as_bool()) continue;
    fields.erase("specifiedNs");
    fields["applies"] = json::Array{};
    fields["checks"] = json::Array{};
    fields["pending"] = "none";
    fields["target"] = "";
    fields["pendingCheck"] = "";
    fields["exceptionJournaled"] = false;
    fields["pendingReason"] = "";
  }
  return old;
}

// Crash mid-way through the second strategy of a two-strategy run,
// recovering from nothing but an old-format snapshot of that moment.
TEST(Retirement, OldFormatSnapshotStillReplays) {
  const std::vector<core::StrategyDef> defs = alternating_examples(2);
  const std::map<std::string, core::StrategyDef> by_id{{"s-1", defs[0]},
                                                       {"s-2", defs[1]}};
  sim::Simulation base_sim(no_overhead());
  sim::SimMetricsClient base_metrics(base_sim, example_metrics(),
                                     zero_metric_costs());
  sim::SimProxyController base_proxies(base_sim, zero_proxy_costs());
  engine::MemoryJournal base_disk;
  engine::Engine::Options options;
  options.journal = &base_disk;
  options.snapshot_every = 0;
  engine::Engine baseline(base_sim, base_metrics, base_proxies, options);
  run_back_to_back(baseline, base_sim, defs);
  const std::vector<engine::JournalRecord> all = base_disk.records();
  std::size_t second_submit = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].type == RecordType::kSubmit) second_submit = i;
  }
  const std::uint64_t crash_at = second_submit + 12;
  ASSERT_LT(crash_at, all.size());

  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  sim::FaultPlan plan;
  plan.crash_after_record(crash_at);
  sim::CrashableJournal crashable(disk, plan);
  options.journal = &crashable;
  {
    engine::Engine eng(sim, metrics, proxies, options);
    EXPECT_THROW(run_back_to_back(eng, sim, defs), sim::CrashInjected);
  }
  engine::StateTracker tracker;
  ASSERT_TRUE(tracker.replay(disk.records()).ok());
  const json::Value old = old_format_snapshot(tracker, by_id);
  ASSERT_EQ(old.find("strategies")->as_array().size(), 2u);
  for (const json::Value& entry : old.find("strategies")->as_array()) {
    ASSERT_NE(entry.find("def"), nullptr);
  }

  options.journal = &disk;
  engine::Engine eng(sim, metrics, proxies, options);
  ASSERT_TRUE(eng.recover({engine::JournalRecord{RecordType::kSnapshot, old}})
                  .ok());
  ASSERT_TRUE(eng.reconcile().ok());
  sim.run_all();
  expect_same_list(eng, baseline);
  expect_same_trace(trace_of(disk.records()), trace_of(all));
  EXPECT_EQ(routing_of(proxies), routing_of(base_proxies));
}

// The crash matrix for a long-lived engine: the first strategy is
// retired (its summary is all later snapshots hold of it) when the
// engine dies at each record boundary of the second.
TEST(CrashMatrix, SecondOfTwoStrategiesEveryRecordBoundary) {
  // The short darklaunch second keeps the matrix small.
  const std::vector<core::StrategyDef> defs = {
      load_example("fastsearch_rollout.yaml"), load_example("darklaunch.yaml")};
  sim::Simulation base_sim(no_overhead());
  sim::SimMetricsClient base_metrics(base_sim, example_metrics(),
                                     zero_metric_costs());
  sim::SimProxyController base_proxies(base_sim, zero_proxy_costs());
  engine::MemoryJournal base_disk;
  engine::Engine::Options options;
  options.journal = &base_disk;
  options.snapshot_every = kDenseSnapshots;
  engine::Engine baseline(base_sim, base_metrics, base_proxies, options);
  ASSERT_TRUE(baseline.submit(defs[0]).ok());
  base_sim.run_all();
  const std::uint64_t first_done = base_disk.records_written();
  ASSERT_TRUE(baseline.submit(defs[1]).ok());
  base_sim.run_all();
  const std::uint64_t total = base_disk.records_written();
  const Trace base_trace = trace_of(base_disk.records());

  for (std::uint64_t n = first_done + 1; n <= total; ++n) {
    SCOPED_TRACE("crash after journal record " + std::to_string(n));
    sim::Simulation sim(no_overhead());
    sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
    sim::SimProxyController proxies(sim, zero_proxy_costs());
    engine::MemoryJournal disk;
    sim::FaultPlan plan;
    plan.crash_after_record(n);
    sim::CrashableJournal crashable(disk, plan);
    options.journal = &crashable;
    {
      engine::Engine eng(sim, metrics, proxies, options);
      EXPECT_THROW(run_back_to_back(eng, sim, defs), sim::CrashInjected);
    }
    const std::vector<engine::JournalRecord> history = disk.records();
    options.journal = &disk;
    engine::Engine eng(sim, metrics, proxies, options);
    ASSERT_TRUE(eng.recover(history).ok());
    ASSERT_TRUE(eng.reconcile().ok());
    sim.run_all();
    expect_same_trace(trace_of(disk.records()), base_trace);
    EXPECT_EQ(routing_of(proxies), routing_of(base_proxies));
    expect_same_list(eng, baseline);
    if (testing::Test::HasFailure()) return;  // one boundary is enough noise
  }
}

/// Forwards to a MemoryJournal but refuses every snapshot, the way
/// FileJournal refuses a record over the frame limit.
class SnapshotRefusingJournal final : public engine::Journal {
 public:
  explicit SnapshotRefusingJournal(engine::MemoryJournal& inner)
      : inner_(inner) {}
  util::Result<void> append(RecordType type, json::Value data) override {
    if (type == RecordType::kSnapshot) {
      return util::Result<void>::error("record exceeds the frame limit");
    }
    return inner_.append(type, std::move(data));
  }
  util::Result<void> sync() override { return {}; }
  [[nodiscard]] std::uint64_t records_written() const override {
    return inner_.records_written();
  }

 private:
  engine::MemoryJournal& inner_;
};

TEST(Retirement, RefusedSnapshotIsReportedAndReplayUsesRecords) {
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  SnapshotRefusingJournal refusing(disk);
  engine::Engine::Options options;
  options.journal = &refusing;
  options.snapshot_every = kDenseSnapshots;
  engine::Engine original(sim, metrics, proxies, options);
  run_back_to_back(original, sim, alternating_examples(2));
  EXPECT_EQ(count_snapshots(disk.records()), 0u);
  int skipped = 0;
  for (const engine::StatusEvent& event :
       original.events_since(0, 100000, std::chrono::milliseconds(0))) {
    if (event.type == engine::StatusEvent::Type::kError &&
        event.detail.find("journal snapshot skipped") != std::string::npos) {
      ++skipped;
    }
  }
  EXPECT_EQ(skipped, static_cast<int>(disk.records().size() / kDenseSnapshots));
  EXPECT_EQ(original.status("s-2")->status,
            engine::ExecutionStatus::kSucceeded);

  engine::MemoryJournal marker_log;
  options.journal = &marker_log;
  engine::Engine recovered(sim, metrics, proxies, options);
  ASSERT_TRUE(recovered.recover(disk.records()).ok());
  expect_same_list(recovered, original);
}

// ---------------------------------------------------------------------------
// A journal in the previous on-disk format: snapshots that carry retired
// summaries and the definitions of live strategies and intent owners,
// terminal records without a summary. The engine of that format wrote
// tests/golden/retired_summary_snapshots.journal from the two examples
// (no costs, a snapshot every 8 records): darklaunch finished, then
// fastsearch-rollout ran for 5000 s of virtual time, into its first
// state.

constexpr runtime::Time kGoldenWrittenAt = 5060s;

std::vector<std::string> status_lines(const engine::Engine& eng) {
  std::vector<std::string> lines;
  for (const engine::StrategySnapshot& s : eng.list()) {
    std::ostringstream line;
    line << s.id << "|" << s.name << "|"
         << engine::execution_status_name(s.status) << "|" << s.current_state
         << "|" << s.transitions << "|" << s.checks_executed << "|"
         << s.started_seconds << "|" << s.finished_seconds << "|"
         << s.history.size() << "|" << s.enactment_delay_seconds;
    lines.push_back(line.str());
  }
  return lines;
}

/// "epoch=N version=percent ..." per service.
std::map<std::string, std::string> splits_of(
    const sim::SimProxyController& proxies) {
  std::map<std::string, std::string> splits;
  for (const auto& [service, view] : proxies.states()) {
    std::string line = "epoch=" + std::to_string(view.epoch);
    for (const proxy::BackendTarget& backend : view.config.backends) {
      line += " " + backend.version + "=" + std::to_string(backend.percent);
    }
    splits[service] = line;
  }
  return splits;
}

TEST(Retirement, SummarySnapshotJournalRecoversAndUpgrades) {
  auto read = engine::read_journal_file(std::string(BIFROST_GOLDEN_DIR) +
                                        "/retired_summary_snapshots.journal");
  ASSERT_TRUE(read.ok()) << read.error_message();
  ASSERT_FALSE(read.value().truncated_tail);
  const std::vector<engine::JournalRecord> golden = read.value().records;
  ASSERT_EQ(golden.size(), 34u);
  ASSERT_EQ(count_snapshots(golden), 3u);

  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  sim.run_until(kGoldenWrittenAt);
  engine::MemoryJournal disk;
  for (const engine::JournalRecord& record : golden) {
    ASSERT_TRUE(disk.append(record.type, record.data).ok());
  }
  engine::Engine::Options options;
  options.journal = &disk;
  options.snapshot_every = 4;  // a snapshot follows every terminal record
  engine::Engine eng(sim, metrics, proxies, options);
  ASSERT_TRUE(eng.recover(golden).ok());
  ASSERT_TRUE(eng.reconcile().ok());
  EXPECT_EQ(status_lines(eng),
            (std::vector<std::string>{
                "s-1|fastsearch-darklaunch|succeeded|done|1|0|0|60|2|0",
                "s-2|fastsearch-rollout|running|canary-1|0|16|60|0|1|0"}));
  EXPECT_EQ(splits_of(proxies),
            (std::map<std::string, std::string>{
                {"search", "epoch=3 stable=99.000000 fast=1.000000"}}));

  // The upgrade path: the recovered engine finishes the rollout and runs
  // one more strategy, writing snapshots in the new format. s-1's
  // summary is on no record, so those snapshots keep it.
  sim.run_all();
  ASSERT_TRUE(eng.submit(load_example("darklaunch.yaml")).ok());
  sim.run_all();
  ASSERT_EQ(eng.status("s-2")->status, engine::ExecutionStatus::kSucceeded);
  ASSERT_EQ(eng.status("s-3")->status, engine::ExecutionStatus::kSucceeded);
  std::size_t written = 0;
  std::size_t s2_finished = 0;
  std::size_t newest_snapshot = 0;
  for (std::size_t i = golden.size(); i < disk.records().size(); ++i) {
    const engine::JournalRecord& record = disk.records()[i];
    if (record.type == RecordType::kFinished &&
        record.data.get_string("id") == "s-2") {
      s2_finished = i;
    }
    if (record.type != RecordType::kSnapshot) continue;
    ++written;
    newest_snapshot = i;
    for (const json::Value& entry :
         record.data.find("strategies")->as_array()) {
      EXPECT_EQ(entry.find("def"), nullptr);
      EXPECT_TRUE(!entry.get_bool("terminal") ||
                  entry.get_string("id") == "s-1");
    }
  }
  EXPECT_GT(written, 2u);
  // The second recovery reads s-2's summary from its terminal record.
  EXPECT_GT(newest_snapshot, s2_finished);

  sim::SimProxyController fresh(sim, zero_proxy_costs());
  engine::MemoryJournal marker_log;
  options.journal = &marker_log;
  engine::Engine again(sim, metrics, fresh, options);
  ASSERT_TRUE(again.recover(disk.records()).ok());
  ASSERT_TRUE(again.reconcile().ok());
  expect_same_list(again, eng);
  EXPECT_EQ(routing_of(fresh), routing_of(proxies));
}

// ---------------------------------------------------------------------------
// Journal oracle: the loader survives bad input. Seeded mutations of
// what replay reads besides the records it re-applies — the summaries
// on terminal records, a snapshot's strategy entries, and the kSubmit
// records a snapshot relies on — must make recover() return an error or
// a state, never crash (the suite also runs under ASan/UBSan).

/// A value of a different JSON type than `value`.
json::Value other_type(const json::Value& value, std::uint64_t pick) {
  std::vector<json::Value> others;
  if (!value.is_null()) others.emplace_back(nullptr);
  if (!value.is_bool()) others.emplace_back(true);
  if (!value.is_number()) others.emplace_back(7.0);
  if (!value.is_string()) others.emplace_back("x");
  if (!value.is_array()) others.emplace_back(json::Array{json::Value(1.0)});
  if (!value.is_object()) others.emplace_back(json::Object{{"k", 1.0}});
  return others[pick % others.size()];
}

/// Drops a key, changes a field's type, or truncates: keeps half of
/// the keys, or half of the history.
void mutate_entry(json::Value& entry, std::mt19937_64& rng) {
  if (!entry.is_object() || entry.as_object().empty()) return;
  json::Object& fields = entry.as_object();
  auto field = std::next(fields.begin(),
                         static_cast<std::ptrdiff_t>(rng() % fields.size()));
  switch (rng() % 4) {
    case 0:
      fields.erase(field);
      break;
    case 1:
      field->second = other_type(field->second, rng());
      break;
    case 2:
      while (fields.size() > 1 && rng() % 2 == 0) {
        fields.erase(std::prev(fields.end()));
      }
      break;
    default:
      if (auto it = fields.find("history");
          it != fields.end() && it->second.is_array()) {
        json::Array& visits = it->second.as_array();
        visits.resize(visits.size() / 2);
      }
      break;
  }
}

TEST(JournalOracle, MutatedSummariesEntriesAndSubmitsNeverCrashRecovery) {
  // Every shape replay reads: retired summaries on terminal records, a
  // live strategy and intents in the newest snapshot.
  sim::Simulation base_sim(no_overhead());
  sim::SimMetricsClient base_metrics(base_sim, example_metrics(),
                                     zero_metric_costs());
  sim::SimProxyController base_proxies(base_sim, zero_proxy_costs());
  engine::MemoryJournal base_disk;
  engine::Engine::Options options;
  options.journal = &base_disk;
  options.snapshot_every = kDenseSnapshots;
  {
    engine::Engine eng(base_sim, base_metrics, base_proxies, options);
    run_back_to_back(eng, base_sim, alternating_examples(3));
    ASSERT_TRUE(eng.submit(load_example("fastsearch_rollout.yaml")).ok());
    base_sim.run_until(base_sim.now() + runtime::Duration(5000s));
  }
  const std::vector<engine::JournalRecord> base = base_disk.records();
  std::vector<std::size_t> sites;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (base[i].type == RecordType::kSubmit ||
        base[i].type == RecordType::kSnapshot ||
        base[i].data.find("summary") != nullptr) {
      sites.push_back(i);
    }
  }
  ASSERT_GT(count_snapshots(base), 10u);

  std::mt19937_64 rng(20261020);
  int errors = 0;
  int states = 0;
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<engine::JournalRecord> mutated = base;
    std::set<std::size_t> removed;
    for (std::uint64_t m = 1 + rng() % 3; m > 0; --m) {
      const std::size_t site = sites[rng() % sites.size()];
      json::Object& data = mutated[site].data.as_object();
      if (mutated[site].type == RecordType::kSubmit) {
        removed.insert(site);
      } else if (mutated[site].type == RecordType::kSnapshot) {
        json::Array& entries = data["strategies"].as_array();
        if (!entries.empty()) mutate_entry(entries[rng() % entries.size()], rng);
      } else {
        mutate_entry(data["summary"], rng);
      }
    }
    std::vector<engine::JournalRecord> records;
    for (std::size_t i = 0; i < mutated.size(); ++i) {
      if (removed.count(i) == 0) records.push_back(std::move(mutated[i]));
    }
    sim::Simulation sim(no_overhead());
    sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
    sim::SimProxyController proxies(sim, zero_proxy_costs());
    engine::MemoryJournal marker_log;
    options.journal = &marker_log;
    engine::Engine eng(sim, metrics, proxies, options);
    if (!eng.recover(records).ok()) {
      ++errors;
      continue;
    }
    ++states;
    (void)eng.reconcile();
    (void)eng.list();
  }
  EXPECT_GT(errors, 0);
  EXPECT_GT(states, 0);
}

// ---------------------------------------------------------------------------
// Guard rails
// ---------------------------------------------------------------------------
// Guard rails

TEST(Recovery, ReadyLifecycle) {
  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  // Journal-less engines are ready immediately.
  engine::Engine plain(sim, metrics, proxies);
  EXPECT_TRUE(plain.ready());

  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;
  engine::Engine durable(sim, metrics, proxies, options);
  EXPECT_FALSE(durable.ready());
  ASSERT_TRUE(durable.recover({}).ok());
  EXPECT_FALSE(durable.ready());  // not ready until reconciled
  ASSERT_TRUE(durable.reconcile().ok());
  EXPECT_TRUE(durable.ready());
}

TEST(Recovery, JournaledEngineRejectsCustomEvaluators) {
  core::StrategyDef def = load_example("darklaunch.yaml");
  def.states[0].checks.emplace_back();
  core::CheckDef& check = def.states[0].checks.back();
  check.name = "custom";
  check.custom = [](core::EvalContext&) { return true; };
  check.interval = 10s;
  check.executions = 1;
  ASSERT_TRUE(core::has_custom_eval(def));

  sim::Simulation sim(no_overhead());
  sim::SimMetricsClient metrics(sim, example_metrics(), zero_metric_costs());
  sim::SimProxyController proxies(sim, zero_proxy_costs());
  engine::MemoryJournal disk;
  engine::Engine::Options options;
  options.journal = &disk;
  engine::Engine eng(sim, metrics, proxies, options);
  auto submitted = eng.submit(def);
  ASSERT_FALSE(submitted.ok());
  EXPECT_NE(submitted.error_message().find("custom"), std::string::npos);
  EXPECT_EQ(disk.records_written(), 0u);
}

// ---------------------------------------------------------------------------
// FaultPlan validation (a misspelled target name would never fire)

TEST(FaultPlanValidation, UnknownProxyServiceIsRejected) {
  const core::StrategyDef def = load_example("darklaunch.yaml");
  sim::FaultPlan plan;
  plan.add_window({sim::FaultPlan::Target::kProxy, runtime::Time{0s},
                   runtime::Time::max(), "serch"});
  const auto result = plan.validate_against(def);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error_message().find("unknown service 'serch'"),
            std::string::npos);
  EXPECT_NE(result.error_message().find("'search'"), std::string::npos);
}

TEST(FaultPlanValidation, UnknownProviderHostIsRejected) {
  const core::StrategyDef def = load_example("darklaunch.yaml");
  sim::FaultPlan plan;
  // Provider windows are keyed by HOST, not by the provider's name.
  plan.add_window({sim::FaultPlan::Target::kMetrics, runtime::Time{0s},
                   runtime::Time::max(), "prometheus"});
  const auto result = plan.validate_against(def);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error_message().find("unknown provider host 'prometheus'"),
            std::string::npos);
}

TEST(FaultPlanValidation, KnownNamesAndWildcardsPass) {
  const core::StrategyDef def = load_example("darklaunch.yaml");
  sim::FaultPlan plan;
  plan.add_window({sim::FaultPlan::Target::kProxy, runtime::Time{0s},
                   runtime::Time::max(), "search"});
  plan.add_window({sim::FaultPlan::Target::kMetrics, runtime::Time{0s},
                   runtime::Time::max(), "127.0.0.1"});
  plan.add_window({sim::FaultPlan::Target::kMetrics, runtime::Time{0s},
                   runtime::Time::max(), ""});  // wildcard
  EXPECT_TRUE(plan.validate_against(def).ok());
}

}  // namespace
}  // namespace bifrost

// The Bifrost engine: owns strategy executions on one scheduler, keeps
// thread-safe status records (snapshots are served from the engine's own
// bookkeeping, never by poking execution internals across threads), and
// maintains the status event log that feeds the CLI/dashboard stream.
//
// Durability: with Options::journal set, the engine is the journal's
// single writer — every execution's transition records funnel through
// it (DurabilitySink), it interleaves compacted snapshots, and after a
// restart recover() + reconcile() rebuild the executions from the
// journal and re-align the proxies with the journaled intents.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "engine/execution.hpp"
#include "engine/interfaces.hpp"
#include "engine/journal.hpp"
#include "engine/recovery.hpp"
#include "runtime/executor.hpp"
#include "runtime/scheduler.hpp"

namespace bifrost::engine {

/// Thread-safe view of one execution's progress.
struct StrategySnapshot {
  std::string id;
  std::string name;
  ExecutionStatus status = ExecutionStatus::kPending;
  std::string current_state;
  double started_seconds = 0.0;
  double finished_seconds = 0.0;
  std::uint64_t transitions = 0;
  std::uint64_t checks_executed = 0;
  std::vector<StateVisit> history;
  double enactment_delay_seconds = 0.0;  ///< valid once finished
};

class Engine : private DurabilitySink {
 public:
  struct Options {
    std::size_t event_log_capacity = 100000;
    /// Write-ahead journal (not owned; may be null = no durability).
    Journal* journal = nullptr;
    /// A compacted kSnapshot record is interleaved after every this
    /// many appended records, so replay is O(recent). 0 disables.
    std::size_t snapshot_every = 256;
    /// Parallel check scheduler (not owned; must outlive the engine):
    /// check evaluations of every execution run as jobs on this
    /// executor — typically a runtime::WorkStealingPool — instead of
    /// inline on the scheduler thread. It also carries the region
    /// applies of multi-region pushes, which then run concurrently
    /// (engine/fleet.hpp). So the MetricsClient and
    /// ProxyController::apply_region must be thread-safe when set.
    /// Null = inline evaluation and sequential pushes (paper behavior).
    runtime::Executor* check_executor = nullptr;
  };

  Engine(runtime::Scheduler& scheduler, MetricsClient& metrics,
         ProxyController& proxies, Options options);
  Engine(runtime::Scheduler& scheduler, MetricsClient& metrics,
         ProxyController& proxies)
      : Engine(scheduler, metrics, proxies, Options{}) {}
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Validates and schedules a strategy; returns its id or the
  /// validation error. `extra_listener` (optional) receives every event
  /// of this strategy in addition to the engine log. With a journal
  /// attached, strategies using custom in-process check evaluators are
  /// rejected (they cannot be reconstructed from the journal).
  util::Result<std::string> submit(core::StrategyDef def,
                                   StatusListener extra_listener = nullptr);

  /// Requests an abort (delivered on the scheduler thread).
  bool abort(const std::string& id, const std::string& reason = "user abort");

  /// Rebuilds bookkeeping and live executions from a freshly read
  /// journal (call before the scheduler delivers timers). Non-terminal
  /// strategies are resumed exactly where their last record left off;
  /// a kRecovered marker is journaled and emitted for each.
  util::Result<void> recover(const std::vector<JournalRecord>& records);

  /// Re-aligns every proxy with the newest journaled apply intent:
  /// fetches the proxy's installed epoch, re-applies the journaled
  /// config (same epoch — the proxy dedupes) when the proxy is behind
  /// or unreadable, and journals/emits a kReconciled marker per
  /// service. Federated services converge region by region: every
  /// region is brought up to the fleet epoch floor (regions already at
  /// or past it ack as no-ops), each convergence emitting a
  /// kRegionResynced event. Marks the engine ready.
  util::Result<void> reconcile();

  /// Lighter-weight re-convergence for federated services only, safe to
  /// call on a live engine (e.g. after a network partition heals):
  /// walks the journaled intents and re-pushes the fleet-epoch config
  /// to every region still behind the floor. Returns the number of
  /// regions resynced.
  util::Result<int> resync_regions();

  /// True once the engine serves traffic safely: immediately for
  /// journal-less engines, after recover()+reconcile() otherwise.
  [[nodiscard]] bool ready() const { return ready_.load(); }

  /// Appends an externally produced event (e.g. from the resilience
  /// decorators wrapping the metrics/proxy clients) to the engine event
  /// log; the sequence number is assigned here. Strategy bookkeeping is
  /// untouched — these events carry no (or a foreign) strategy id.
  void log_event(StatusEvent event);

  /// Listener adapter for log_event, for wiring decorators:
  /// `resilient_metrics.set_listener(engine.event_logger())`.
  [[nodiscard]] StatusListener event_logger() {
    return [this](const StatusEvent& event) { log_event(event); };
  }

  [[nodiscard]] std::optional<StrategySnapshot> status(
      const std::string& id) const;
  [[nodiscard]] std::vector<StrategySnapshot> list() const;
  [[nodiscard]] std::size_t running_count() const;

  /// Events with sequence > `after`, up to `max`; blocks up to `wait`
  /// when none are available yet (long-poll support). Pass wait = 0 for
  /// a non-blocking read.
  [[nodiscard]] std::vector<StatusEvent> events_since(
      std::uint64_t after, std::size_t max,
      std::chrono::milliseconds wait) const;

  [[nodiscard]] std::uint64_t last_event_sequence() const;

  /// Graphviz rendering of a submitted strategy's automaton (the
  /// definition is immutable after submit, so this is thread-safe).
  [[nodiscard]] std::optional<std::string> dot(const std::string& id) const;

 private:
  void on_event(StatusEvent event, const StatusListener& extra);

  /// DurabilitySink: executions deliver their transition records here.
  void record(RecordType type, json::Value data) override;

  /// Single choke point for journal writes: appends, feeds the live
  /// tracker (snapshot source; `def` as in StateTracker::apply), adds
  /// the retired summary to terminal records, interleaves snapshots.
  /// Propagates whatever Journal::append throws (sim::CrashInjected in
  /// tests).
  void append_record(RecordType type, json::Value data,
                     std::optional<core::StrategyDef> def = {});

  [[nodiscard]] StrategyExecution::Options execution_options();
  [[nodiscard]] static StrategySnapshot snapshot_from_resume(
      const std::string& id, const StateTracker::Strategy& strategy);

  /// The journaled apply intents, plus the ServiceDef each intent's
  /// service has in the strategy that journaled it (copied under the
  /// journal mutex for reconcile() and resync_regions()).
  struct JournaledIntents {
    std::map<std::string, StateTracker::Intent> intents;
    std::map<std::string, StateTracker::Intent> fleet;
    std::map<std::string, StateTracker::Intent> regions;
    std::map<std::string, core::ServiceDef> services;
  };
  [[nodiscard]] JournaledIntents journaled_intents();

  /// Converges every region of a federated service to the intent's
  /// fleet epoch (fetch, re-apply when behind, emit kRegionResynced).
  /// Appends "region=verdict" pairs to `detail`; returns the number of
  /// regions actually re-pushed.
  int converge_regions(
      const core::ServiceDef& service, const StateTracker::Intent* fleet,
      const std::map<std::string, StateTracker::Intent>& region_intents,
      runtime::Time now, std::string& detail);

  runtime::Scheduler& scheduler_;
  MetricsClient& metrics_;
  ProxyController& proxies_;
  Options options_;

  mutable std::mutex mutex_;
  mutable std::condition_variable event_cv_;
  std::map<std::string, std::unique_ptr<StrategyExecution>> executions_;
  std::map<std::string, StrategySnapshot> records_;
  std::deque<StatusEvent> events_;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t next_id_ = 1;

  /// Journal + live tracker + epoch counters share one mutex because
  /// submit() journals from API threads while executions journal from
  /// the scheduler thread. Never held together with mutex_.
  std::mutex journal_mutex_;
  StateTracker tracker_;
  std::map<std::string, std::uint64_t> epochs_;
  std::uint64_t records_appended_ = 0;
  std::atomic<bool> ready_{false};
};

}  // namespace bifrost::engine

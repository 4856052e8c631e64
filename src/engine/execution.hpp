// Enactment of a single strategy: the engine-side interpreter of the
// formal model's automaton. The automaton step is single-threaded: all
// state mutation, journaling, and event emission run on the owning
// Scheduler's thread (run-to-completion, as in the paper's Node.js
// engine).
//
// Parallel check scheduling: with Options::check_executor set, the
// *evaluation* of a check (metric fetches + condition checks — the
// paper's engine bottleneck, Figures 9-10) runs as a job on that
// executor, off the scheduler thread. The job touches only immutable
// strategy definition data and the MetricsClient (which must then be
// thread-safe); its result is marshalled back onto the owning Scheduler
// via a posted timer, so CheckRuntime aggregates, checks_executed_, the
// journal, and the status stream are still touched single-threaded and
// records stay in a deterministic order under deterministic schedulers.
// The same executor runs the region applies of a fleet push
// concurrently; the push itself still joins them on the scheduler
// thread and journals their acks in canary order (engine/fleet.hpp).
//
// Durability: when Options::durability is set, every externally visible
// transition is journaled through it *at the moment it happens*, and a
// crashed engine can rebuild the execution from the journal (see
// engine/recovery.hpp) and call resume() to continue exactly where the
// last record left off.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/model.hpp"
#include "engine/fleet.hpp"
#include "engine/interfaces.hpp"
#include "engine/journal.hpp"
#include "runtime/executor.hpp"
#include "runtime/scheduler.hpp"

namespace bifrost::engine {

/// Per-state timing of one visit (used to compute enactment delay, the
/// metric of the paper's Figures 8 and 10).
struct StateVisit {
  std::string state;
  runtime::Time entered{0};
  runtime::Time exited{0};
  double outcome = 0.0;
  bool via_exception = false;
};

enum class ExecutionStatus {
  kPending,
  kRunning,
  kSucceeded,   ///< reached a FinalKind::kSuccess state
  kRolledBack,  ///< reached a FinalKind::kRollback state
  kAborted,
  kFailed,  ///< internal error (e.g. transition-loop guard)
};

[[nodiscard]] const char* execution_status_name(ExecutionStatus status);
[[nodiscard]] std::optional<ExecutionStatus> execution_status_from_name(
    std::string_view name);

/// Reconstructed execution context, built by journal replay (see
/// engine/recovery.hpp) and handed to StrategyExecution::resume().
/// Mirrors the in-memory progress the execution had when its last
/// journal record was written, plus the continuation ("pending") that
/// the record implies but that was not itself journaled yet.
struct ResumeState {
  ExecutionStatus status = ExecutionStatus::kRunning;
  std::string current_state;
  runtime::Time started_at{0};
  runtime::Time finished_at{0};
  std::vector<StateVisit> history;  ///< includes the current (open) visit
  std::uint64_t transitions = 0;
  std::uint64_t checks_executed = 0;

  /// Routing-application progress of the current state visit, indexed
  /// like StateDef::routing of the current state.
  struct ApplyProgress {
    bool intent_journaled = false;
    std::uint64_t epoch = 0;  ///< valid when intent_journaled
    bool acked = false;
    bool ok = false;  ///< ack verdict when acked
    /// Federated services only: journaled per-region verdicts of the
    /// in-flight fleet push (region name -> ok). A crash between two
    /// region acks resumes here — acked regions are not re-pushed,
    /// the rest re-push with the journaled epoch (the proxy dedupes).
    std::map<std::string, bool> region_acks;
  };
  std::vector<ApplyProgress> applies;

  /// Check aggregates of the current state visit, indexed like
  /// StateDef::checks of the current state.
  struct CheckProgress {
    int executed = 0;
    int successes = 0;
    bool done = false;
    /// Absolute deadline of the next execution; Time{0} means no
    /// execution happened yet this visit (first deadline is then
    /// entered + interval).
    runtime::Time next_deadline{0};
  };
  std::vector<CheckProgress> checks;

  /// The work between the last journal record and the next one — what
  /// the engine was about to do when it died.
  enum class Pending {
    kNone,        ///< mid-state: finish applies, re-arm timers, keep going
    kStart,       ///< submitted but never started
    kEnterState,  ///< enter `target` fresh (after kStarted; no exit work)
    kTransition,  ///< leave the current state for `target` (after completion)
    kException,   ///< exception fired: transition to `target` via exception
    kRollback,    ///< unrecoverable proxy failure: divert to rollback path
  };
  Pending pending = Pending::kNone;
  std::string target;  ///< successor (kEnterState/kTransition/kException)
  std::string pending_check;  ///< check that fired (kException)
  bool exception_journaled = false;  ///< kExceptionTriggered already journaled
  std::string pending_reason;        ///< failure reason (kRollback)
};

class StrategyExecution {
 public:
  struct Options {
    /// Abort guard against zero-duration transition cycles.
    std::uint64_t max_transitions = 100000;
    /// Optional write-ahead journal sink (owned by the Engine).
    DurabilitySink* durability = nullptr;
    /// Allocates the config epoch for an apply intent against a
    /// service's proxy. Null means unversioned applies (epoch 0).
    std::function<std::uint64_t(const std::string& service)> epoch_allocator;
    /// Runs check evaluations (metric fetches + condition checks) and
    /// the per-region applies of a fleet push (engine/fleet.hpp) as
    /// jobs instead of inline on the scheduler thread. Not owned; must
    /// outlive the execution. The MetricsClient and
    /// ProxyController::apply_region must be thread-safe when this is
    /// set. Null = the classic inline, run-to-completion engine.
    runtime::Executor* check_executor = nullptr;
  };

  /// `def` must already pass core::validate(). The listener receives
  /// every status event (sequence is left 0; the Engine assigns it).
  StrategyExecution(std::string id, runtime::Scheduler& scheduler,
                    MetricsClient& metrics, ProxyController& proxies,
                    core::StrategyDef def, StatusListener listener,
                    Options options);
  StrategyExecution(std::string id, runtime::Scheduler& scheduler,
                    MetricsClient& metrics, ProxyController& proxies,
                    core::StrategyDef def, StatusListener listener)
      : StrategyExecution(std::move(id), scheduler, metrics, proxies,
                          std::move(def), std::move(listener), Options{}) {}
  /// Cancels every timer this execution still has pending, so the
  /// scheduler never fires into a destroyed object (the engine may be
  /// torn down mid-run — deliberately so in the crash-recovery tests).
  ~StrategyExecution();

  StrategyExecution(const StrategyExecution&) = delete;
  StrategyExecution& operator=(const StrategyExecution&) = delete;

  /// Enters the initial state. Must be called on the scheduler thread
  /// (or before the scheduler starts delivering timers).
  void start();

  /// Stops all timers and marks the execution aborted.
  void abort(const std::string& reason);

  /// Thread-safe: schedules start()/abort() onto the scheduler thread
  /// through a tracked (cancellable) timer.
  void request_start();
  void request_abort(std::string reason);

  /// Continues an execution reconstructed from the journal: re-installs
  /// aggregates and history, finishes any half-applied routing, re-arms
  /// timers at their journaled absolute deadlines, and runs the pending
  /// continuation. Call instead of start(), from the scheduler thread
  /// or before the scheduler delivers timers.
  void resume(ResumeState state);

  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] ExecutionStatus status() const { return status_; }
  [[nodiscard]] const std::string& current_state() const {
    return current_state_;
  }
  [[nodiscard]] const core::StrategyDef& definition() const { return def_; }
  [[nodiscard]] const std::vector<StateVisit>& history() const {
    return history_;
  }
  [[nodiscard]] runtime::Time started_at() const { return started_at_; }
  [[nodiscard]] runtime::Time finished_at() const { return finished_at_; }

  /// Total enactment wall time minus the specified (nominal) duration of
  /// the states actually visited — the "delay of specified execution
  /// time" in the paper's Figures 8 and 10. Only valid once finished.
  [[nodiscard]] runtime::Duration enactment_delay() const;

  [[nodiscard]] std::uint64_t checks_executed() const {
    return checks_executed_;
  }

 private:
  struct CheckRuntime {
    const core::CheckDef* def = nullptr;
    int executed = 0;
    int successes = 0;
    bool done = false;
  };

  enum class ApplyOutcome { kContinue, kDiverted };

  void enter_state(const std::string& name);
  /// Pushes the state's routing tables. Returns false when a proxy
  /// update failed past its retry budget and the execution was diverted
  /// into its rollback path (or aborted) — the caller must stop
  /// processing the state it was entering.
  bool apply_routing(const core::StateDef& state);
  /// Applies routing entry `index` of `state`: journals the intent
  /// (unless already journaled pre-crash), calls the proxy, journals
  /// the ack. `forced_epoch` re-uses a journaled epoch during resume;
  /// `region_acks` carries journaled per-region verdicts of a fleet
  /// push interrupted mid-fan-out (null outside resume).
  ApplyOutcome apply_one_routing(
      const core::StateDef& state, std::size_t index,
      std::optional<std::uint64_t> forced_epoch,
      bool intent_already_journaled,
      const std::map<std::string, bool>* region_acks = nullptr);
  /// Fleet arm of apply_one_routing: fans the config out to the
  /// routing's targeted regions, journals one kRegionAck per region and
  /// a final kApplyAck whose verdict is the quorum test, and maintains
  /// the degraded-region set (kRegionDegraded / kRegionRecovered).
  ApplyOutcome apply_fleet_routing(
      const core::StateDef& state, std::size_t index,
      const core::ServiceDef& service, const proxy::ProxyConfig& config,
      std::uint64_t epoch, const std::map<std::string, bool>* region_acks);
  /// Aborts into the strategy's first rollback-final state (or aborts
  /// outright when none exists) after an unrecoverable proxy failure.
  void rollback_or_abort(const std::string& reason);
  void schedule_check(std::size_t check_index);
  void arm_check_at(std::size_t check_index, runtime::Time deadline);
  /// One due execution of check `check_index`: evaluates inline (no
  /// executor) or submits the evaluation as a pool job whose result is
  /// marshalled back onto the scheduler thread.
  void run_check_execution(std::size_t check_index);
  /// Scheduler-thread half of a check execution: applies `success` /
  /// `degraded_detail` to the aggregates, emits + journals, and either
  /// re-arms, fires the exception fallback, or completes the state.
  void finish_check_execution(std::size_t check_index, bool success,
                              const std::string& degraded_detail);
  /// One execution of the check's evaluation function. Provider errors
  /// encountered along the way are appended to `degraded_detail` so the
  /// caller can surface them on the event stream. Const and touching
  /// only immutable definition data + the MetricsClient, so it is safe
  /// to run off-thread as a check_executor job.
  bool evaluate_check_once(const core::CheckDef& check,
                           std::string& degraded_detail) const;
  /// Evaluates a cross-region condition: queries the metric once per
  /// region of the condition's federated service ("$region" in the
  /// query is substituted with the region name) and folds the values
  /// through the condition's aggregate (max / min / weighted mean /
  /// delta = canary minus weighted mean of the rest). Regions without
  /// data are skipped; no region reporting = no data.
  [[nodiscard]] util::Result<std::optional<double>> aggregate_condition(
      core::EvalContext& context, const core::MetricCondition& condition) const;
  void maybe_complete_state();
  void complete_state();
  void transition_to(const std::string& next, bool via_exception);
  void finish(ExecutionStatus status);
  /// Continues in the middle of a state after a restart (the
  /// Pending::kNone arm of resume()).
  void resume_in_state(const ResumeState& state);
  void emit(StatusEvent::Type type, const std::string& state,
            const std::string& check = "", double value = 0.0,
            const std::string& detail = "");
  void journal(RecordType type, json::Object data);
  [[nodiscard]] double now_seconds() const;
  [[nodiscard]] std::int64_t now_ns() const;
  /// Schedules `body` at `when` through a timer tracked for destructor
  /// cancellation. All internal scheduling goes through this.
  void arm_at(runtime::Time when, std::function<void()> body);

  std::string id_;
  runtime::Scheduler& scheduler_;
  MetricsClient& metrics_;
  ProxyController& proxies_;
  core::StrategyDef def_;
  StatusListener listener_;
  Options options_;
  Fleet fleet_;  ///< fan-out for federated services (wraps proxies_)
  /// Regions per service currently marked degraded (missed a quorate
  /// push and not yet converged by a later push or an engine resync).
  std::map<std::string, std::set<std::string>> degraded_regions_;

  ExecutionStatus status_ = ExecutionStatus::kPending;
  std::string current_state_;
  const core::StateDef* state_ = nullptr;
  std::uint64_t generation_ = 0;  ///< invalidates timers of left states
  std::vector<CheckRuntime> checks_;
  bool dwell_elapsed_ = false;
  std::vector<StateVisit> history_;
  runtime::Time started_at_{0};
  runtime::Time finished_at_{0};
  std::uint64_t transitions_ = 0;
  std::uint64_t checks_executed_ = 0;

  /// Timers armed but not yet fired; guarded by timers_mutex_ because
  /// request_start()/request_abort() arm from foreign threads (and
  /// check-evaluation jobs arm their marshalling timers from workers).
  std::mutex timers_mutex_;
  std::unordered_set<runtime::TimerId> live_timers_;

  /// Lifetime guard shared with in-flight check-evaluation jobs: a job
  /// holds the lock shared while it reads `this`; the destructor takes
  /// it exclusive, flips `dead`, and thereby waits out running jobs —
  /// a queued job that starts later sees `dead` and returns without
  /// touching the (destroyed) execution.
  struct AsyncGuard {
    std::shared_mutex mutex;
    bool dead = false;  ///< write under exclusive, read under shared lock
  };
  std::shared_ptr<AsyncGuard> async_guard_ =
      std::make_shared<AsyncGuard>();
};

}  // namespace bifrost::engine

#include "engine/execution.hpp"

#include <algorithm>

#include <chrono>
#include <string_view>
#include <utility>

#include "util/log.hpp"

namespace bifrost::engine {
namespace {

/// EvalContext bound to the engine's MetricsClient and the strategy's
/// provider table.
class ClientEvalContext final : public core::EvalContext {
 public:
  ClientEvalContext(MetricsClient& client, const core::StrategyDef& def,
                    double now_seconds)
      : client_(client), def_(def), now_seconds_(now_seconds) {}

  util::Result<std::optional<double>> query(const std::string& provider,
                                            const std::string& query) override {
    const auto it = def_.providers.find(provider);
    if (it == def_.providers.end()) {
      return util::Result<std::optional<double>>::error(
          "unknown provider '" + provider + "'");
    }
    return client_.query(it->second, query);
  }

  [[nodiscard]] double now_seconds() const override { return now_seconds_; }

 private:
  MetricsClient& client_;
  const core::StrategyDef& def_;
  double now_seconds_;
};

}  // namespace

const char* execution_status_name(ExecutionStatus status) {
  switch (status) {
    case ExecutionStatus::kPending:
      return "pending";
    case ExecutionStatus::kRunning:
      return "running";
    case ExecutionStatus::kSucceeded:
      return "succeeded";
    case ExecutionStatus::kRolledBack:
      return "rolled_back";
    case ExecutionStatus::kAborted:
      return "aborted";
    case ExecutionStatus::kFailed:
      return "failed";
  }
  return "?";
}

std::optional<ExecutionStatus> execution_status_from_name(
    std::string_view name) {
  static constexpr ExecutionStatus kAll[] = {
      ExecutionStatus::kPending,    ExecutionStatus::kRunning,
      ExecutionStatus::kSucceeded,  ExecutionStatus::kRolledBack,
      ExecutionStatus::kAborted,    ExecutionStatus::kFailed,
  };
  for (ExecutionStatus s : kAll) {
    if (name == execution_status_name(s)) return s;
  }
  return std::nullopt;
}

StrategyExecution::StrategyExecution(std::string id,
                                     runtime::Scheduler& scheduler,
                                     MetricsClient& metrics,
                                     ProxyController& proxies,
                                     core::StrategyDef def,
                                     StatusListener listener, Options options)
    : id_(std::move(id)),
      scheduler_(scheduler),
      metrics_(metrics),
      proxies_(proxies),
      def_(std::move(def)),
      listener_(std::move(listener)),
      options_(std::move(options)),
      fleet_(proxies, options_.check_executor) {}

StrategyExecution::~StrategyExecution() {
  // Quiesce off-thread check evaluations first: the exclusive lock
  // waits out any job currently reading `this` (each such job has
  // already armed its tracked marshalling timer by the time it releases
  // its shared lock), and marks later-starting jobs dead so they return
  // without touching the destroyed execution. Only then cancel the
  // tracked timers — including marshalling timers the jobs just armed.
  {
    const std::unique_lock<std::shared_mutex> lock(async_guard_->mutex);
    async_guard_->dead = true;
  }
  const std::lock_guard<std::mutex> lock(timers_mutex_);
  for (const runtime::TimerId id : live_timers_) scheduler_.cancel(id);
}

double StrategyExecution::now_seconds() const {
  return std::chrono::duration<double>(scheduler_.now()).count();
}

std::int64_t StrategyExecution::now_ns() const {
  return scheduler_.now().count();
}

void StrategyExecution::arm_at(runtime::Time when,
                               std::function<void()> body) {
  // The callback needs its own id to deregister itself, but the id only
  // exists after schedule_at returns — hand it over through a token.
  auto token = std::make_shared<runtime::TimerId>(runtime::kInvalidTimer);
  const runtime::TimerId id = scheduler_.schedule_at(
      when, [this, token, body = std::move(body)] {
        {
          const std::lock_guard<std::mutex> lock(timers_mutex_);
          live_timers_.erase(*token);
        }
        body();
      });
  {
    const std::lock_guard<std::mutex> lock(timers_mutex_);
    *token = id;
    live_timers_.insert(id);
  }
}

void StrategyExecution::emit(StatusEvent::Type type, const std::string& state,
                             const std::string& check, double value,
                             const std::string& detail) {
  if (!listener_) return;
  StatusEvent event;
  event.time_seconds = now_seconds();
  event.strategy_id = id_;
  event.type = type;
  event.state = state;
  event.check = check;
  event.value = value;
  event.detail = detail;
  listener_(event);
}

void StrategyExecution::journal(RecordType type, json::Object data) {
  if (options_.durability == nullptr) return;
  data["id"] = id_;
  options_.durability->record(type, json::Value(std::move(data)));
}

void StrategyExecution::request_start() {
  arm_at(scheduler_.now(), [this] { start(); });
}

void StrategyExecution::request_abort(std::string reason) {
  arm_at(scheduler_.now(),
         [this, reason = std::move(reason)] { abort(reason); });
}

void StrategyExecution::start() {
  if (status_ != ExecutionStatus::kPending) return;
  status_ = ExecutionStatus::kRunning;
  started_at_ = scheduler_.now();
  journal(RecordType::kStarted, json::Object{{"tNs", now_ns()}});
  emit(StatusEvent::Type::kStarted, def_.initial_state);
  enter_state(def_.initial_state);
}

void StrategyExecution::abort(const std::string& reason) {
  if (status_ != ExecutionStatus::kRunning &&
      status_ != ExecutionStatus::kPending) {
    return;
  }
  ++generation_;  // invalidate all pending timers
  if (!history_.empty() && history_.back().exited == runtime::Time{0}) {
    history_.back().exited = scheduler_.now();
  }
  finished_at_ = scheduler_.now();
  status_ = ExecutionStatus::kAborted;
  journal(RecordType::kAborted,
          json::Object{{"state", current_state_},
                       {"reason", reason},
                       {"tNs", now_ns()}});
  // Emit after the status flip so listeners observe the final state.
  emit(StatusEvent::Type::kAborted, current_state_, "", 0.0, reason);
}

void StrategyExecution::enter_state(const std::string& name) {
  const core::StateDef* state = def_.find_state(name);
  if (state == nullptr) {  // unreachable after validation
    emit(StatusEvent::Type::kError, name, "", 0.0, "state not found");
    finish(ExecutionStatus::kFailed);
    return;
  }
  ++generation_;
  const std::uint64_t gen = generation_;
  current_state_ = name;
  state_ = state;
  dwell_elapsed_ = state->min_duration <= runtime::Duration::zero();
  history_.push_back(StateVisit{name, scheduler_.now(), runtime::Time{0}, 0.0,
                                false});
  journal(RecordType::kStateEntered,
          json::Object{{"state", name}, {"tNs", now_ns()}});
  emit(StatusEvent::Type::kStateEntered, name);

  if (!apply_routing(*state)) return;  // diverted into the rollback path

  if (state->is_final()) {
    history_.back().exited = scheduler_.now();
    finish(state->final_kind == core::FinalKind::kSuccess
               ? ExecutionStatus::kSucceeded
               : ExecutionStatus::kRolledBack);
    return;
  }

  checks_.clear();
  checks_.reserve(state->checks.size());
  for (const core::CheckDef& check : state->checks) {
    checks_.push_back(CheckRuntime{&check, 0, 0, false});
  }
  for (std::size_t i = 0; i < checks_.size(); ++i) schedule_check(i);

  if (!dwell_elapsed_) {
    arm_at(scheduler_.now() + state->min_duration, [this, gen] {
      if (gen != generation_ || status_ != ExecutionStatus::kRunning) return;
      dwell_elapsed_ = true;
      maybe_complete_state();
    });
  }
  // A state with no checks and no dwell completes immediately (but via
  // the scheduler so re-entrant transitions unwind).
  if (checks_.empty() && dwell_elapsed_) {
    arm_at(scheduler_.now(), [this, gen] {
      if (gen != generation_ || status_ != ExecutionStatus::kRunning) return;
      maybe_complete_state();
    });
  }
}

bool StrategyExecution::apply_routing(const core::StateDef& state) {
  for (std::size_t i = 0; i < state.routing.size(); ++i) {
    if (apply_one_routing(state, i, std::nullopt, false) ==
        ApplyOutcome::kDiverted) {
      return false;
    }
  }
  return true;
}

StrategyExecution::ApplyOutcome StrategyExecution::apply_one_routing(
    const core::StateDef& state, std::size_t index,
    std::optional<std::uint64_t> forced_epoch, bool intent_already_journaled,
    const std::map<std::string, bool>* region_acks) {
  const core::ServiceRouting& routing = state.routing[index];
  const core::ServiceDef* service = def_.find_service(routing.service);
  if (service == nullptr) return ApplyOutcome::kContinue;  // validated earlier
  auto config = build_proxy_config(*service, routing);
  if (!config.ok()) {
    emit(StatusEvent::Type::kError, state.name, "", 0.0,
         config.error_message());
    return ApplyOutcome::kContinue;
  }
  std::uint64_t epoch = 0;
  if (forced_epoch.has_value()) {
    epoch = *forced_epoch;
  } else if (options_.epoch_allocator) {
    epoch = options_.epoch_allocator(routing.service);
  }
  config.value().epoch = epoch;
  if (!intent_already_journaled) {
    json::Object intent{{"service", routing.service},
                        {"routingIndex", index},
                        {"epoch", static_cast<std::int64_t>(epoch)},
                        {"state", state.name},
                        {"config", config.value().to_json()},
                        {"tNs", now_ns()}};
    if (!routing.regions.empty()) {
      // Region scope travels with the intent: reconcile must converge
      // only the regions this push targeted, never the whole fleet.
      json::Array scope;
      for (const std::string& region : routing.regions) {
        scope.push_back(region);
      }
      intent["regions"] = std::move(scope);
    }
    journal(RecordType::kApplyIntent, std::move(intent));
  }
  if (service->federated()) {
    return apply_fleet_routing(state, index, *service, config.value(), epoch,
                               region_acks);
  }
  auto applied = proxies_.apply(*service, config.value());
  journal(RecordType::kApplyAck,
          json::Object{{"service", routing.service},
                       {"routingIndex", index},
                       {"epoch", static_cast<std::int64_t>(epoch)},
                       {"ok", applied.ok()},
                       {"error", applied.ok() ? "" : applied.error_message()},
                       {"tNs", now_ns()}});
  if (!applied.ok()) {
    // Routing is the engine's hold on live traffic: a state whose
    // split cannot be installed (past the retry budget of the
    // resilience layer, if configured) must not run its checks
    // against the wrong traffic mix. Divert to the rollback path —
    // unless this state IS a final state, where the execution is
    // ending anyway and the failure is only reported.
    emit(StatusEvent::Type::kError, state.name, routing.service, 0.0,
         "proxy update failed: " + applied.error_message());
    if (!state.is_final()) {
      rollback_or_abort("proxy update for service '" + routing.service +
                        "' failed: " + applied.error_message());
      return ApplyOutcome::kDiverted;
    }
    return ApplyOutcome::kContinue;
  }
  emit(StatusEvent::Type::kRoutingApplied, state.name, routing.service);
  return ApplyOutcome::kContinue;
}

StrategyExecution::ApplyOutcome StrategyExecution::apply_fleet_routing(
    const core::StateDef& state, std::size_t index,
    const core::ServiceDef& service, const proxy::ProxyConfig& config,
    std::uint64_t epoch, const std::map<std::string, bool>* region_acks) {
  const core::ServiceRouting& routing = state.routing[index];
  Fleet::SkipFn skip;
  if (region_acks != nullptr && !region_acks->empty()) {
    skip = [region_acks](const std::string& region) -> std::optional<bool> {
      const auto it = region_acks->find(region);
      if (it == region_acks->end()) return std::nullopt;
      return it->second;
    };
  }
  // One kRegionAck per fresh region outcome, in canary order: the WAL
  // captures every region boundary a crash can land between, so resume
  // re-pushes exactly the regions whose verdict is missing.
  const Fleet::AckFn on_ack = [&](const Fleet::RegionOutcome& outcome) {
    journal(RecordType::kRegionAck,
            json::Object{{"service", routing.service},
                         {"routingIndex", index},
                         {"region", outcome.region->name},
                         {"epoch", static_cast<std::int64_t>(epoch)},
                         {"ok", outcome.ok},
                         {"error", outcome.error},
                         {"tNs", now_ns()}});
  };
  const Fleet::PushResult result =
      fleet_.push(service, config, routing.regions, skip, on_ack);

  // The final kApplyAck verdict is the quorum test, so the existing
  // !ok -> rollback resume machinery covers sub-quorum pushes too.
  const std::string quorum_error =
      result.quorum_met()
          ? ""
          : "quorum not met: " + std::to_string(result.acked) + "/" +
                std::to_string(result.required) +
                " regions acked (missed: " + result.failed_regions() + ")";
  journal(RecordType::kApplyAck,
          json::Object{{"service", routing.service},
                       {"routingIndex", index},
                       {"epoch", static_cast<std::int64_t>(epoch)},
                       {"ok", result.quorum_met()},
                       {"error", quorum_error},
                       {"tNs", now_ns()}});

  // Degraded-region bookkeeping. Journaled (skipped) verdicts replayed
  // on resume update the set silently — the pre-crash process already
  // announced them; fresh state transitions are announced here.
  std::set<std::string>& degraded = degraded_regions_[routing.service];
  for (const Fleet::RegionOutcome& outcome : result.outcomes) {
    const std::string& region = outcome.region->name;
    if (outcome.ok) {
      const bool was_degraded = degraded.erase(region) > 0;
      if (was_degraded && !outcome.skipped) {
        emit(StatusEvent::Type::kRegionRecovered, state.name, routing.service,
             static_cast<double>(epoch),
             "region '" + region + "' accepted epoch " +
                 std::to_string(epoch));
      }
    } else if (result.quorum_met()) {
      const bool newly = degraded.insert(region).second;
      if (newly && !outcome.skipped) {
        emit(StatusEvent::Type::kRegionDegraded, state.name, routing.service,
             static_cast<double>(epoch),
             "region '" + region + "' missed epoch " + std::to_string(epoch) +
                 ": " + outcome.error);
      }
    }
  }

  if (!result.quorum_met()) {
    emit(StatusEvent::Type::kError, state.name, routing.service, 0.0,
         "fleet push failed: " + quorum_error);
    if (!state.is_final()) {
      rollback_or_abort("fleet push for service '" + routing.service +
                        "' " + quorum_error);
      return ApplyOutcome::kDiverted;
    }
    return ApplyOutcome::kContinue;
  }
  emit(StatusEvent::Type::kRoutingApplied, state.name, routing.service,
       static_cast<double>(result.acked),
       result.failed_regions().empty()
           ? ""
           : "degraded regions: " + result.failed_regions());
  return ApplyOutcome::kContinue;
}

void StrategyExecution::rollback_or_abort(const std::string& reason) {
  const core::StateDef* rollback = nullptr;
  for (const core::StateDef& state : def_.states) {
    if (state.final_kind == core::FinalKind::kRollback) {
      rollback = &state;
      break;
    }
  }
  if (rollback == nullptr || rollback->name == current_state_) {
    abort(reason);
    return;
  }
  emit(StatusEvent::Type::kDegraded, current_state_, "", 0.0,
       reason + "; rolling back");
  transition_to(rollback->name, /*via_exception=*/true);
}

void StrategyExecution::schedule_check(std::size_t check_index) {
  // Node-style chained timer: the next execution is armed `interval`
  // after the previous one *completes*, so engine-side processing delay
  // accumulates — the effect measured in the paper's Figures 8/10.
  arm_check_at(check_index,
               scheduler_.now() + checks_[check_index].def->interval);
}

void StrategyExecution::arm_check_at(std::size_t check_index,
                                     runtime::Time deadline) {
  const std::uint64_t gen = generation_;
  arm_at(deadline, [this, gen, check_index] {
    if (gen != generation_ || status_ != ExecutionStatus::kRunning) return;
    run_check_execution(check_index);
  });
}

void StrategyExecution::run_check_execution(std::size_t check_index) {
  runtime::Executor* executor = options_.check_executor;
  if (executor != nullptr) {
    // Parallel path: evaluate on the pool, mutate on the scheduler. The
    // job reads only the immutable check definition and the (thread-
    // safe) MetricsClient; everything else happens in the marshalled
    // continuation below, on the scheduler thread, exactly as inline.
    const core::CheckDef* check = checks_[check_index].def;
    const std::uint64_t gen = generation_;
    const bool submitted = executor->submit(
        [this, guard = async_guard_, gen, check_index, check] {
          const std::shared_lock<std::shared_mutex> lock(guard->mutex);
          if (guard->dead) return;
          std::string degraded_detail;
          const bool success = evaluate_check_once(*check, degraded_detail);
          // Marshal the result back onto the owning scheduler through a
          // tracked timer; the guard is held until it is armed, so the
          // destructor can still cancel it.
          arm_at(scheduler_.now(),
                 [this, gen, check_index, success,
                  degraded_detail = std::move(degraded_detail)] {
                   if (gen != generation_ ||
                       status_ != ExecutionStatus::kRunning) {
                     return;
                   }
                   finish_check_execution(check_index, success,
                                          degraded_detail);
                 });
        });
    if (submitted) return;
    // Executor refused (shutting down): fall through to the inline path
    // rather than losing the execution — the drain contract says a
    // refused job never runs.
    util::log_debug("execution", id_,
                    ": check executor refused job, evaluating inline");
  }
  std::string degraded_detail;
  const bool success =
      evaluate_check_once(*checks_[check_index].def, degraded_detail);
  finish_check_execution(check_index, success, degraded_detail);
}

void StrategyExecution::finish_check_execution(
    std::size_t check_index, const bool success,
    const std::string& degraded_detail) {
  CheckRuntime& runtime = checks_[check_index];
  const core::CheckDef& check = *runtime.def;
  ++runtime.executed;
  ++checks_executed_;
  if (success) ++runtime.successes;
  if (!degraded_detail.empty()) {
    // A provider failed past its budget during this execution; the
    // check outcome degrades to whatever the remaining conditions say,
    // but the outage must be visible on the event stream (not only in
    // debug logs) so dashboards and operators can tell "metrics said
    // no" apart from "metrics were unreachable".
    emit(StatusEvent::Type::kDegraded, current_state_, check.name,
         success ? 1.0 : 0.0, degraded_detail);
  }
  emit(StatusEvent::Type::kCheckExecuted, current_state_, check.name,
       success ? 1.0 : 0.0);

  const bool exception_fired =
      check.kind == core::CheckKind::kException && !success;
  if (!exception_fired && runtime.executed >= check.executions) {
    runtime.done = true;
  }
  // The deadline of the follow-up execution is fixed (and journaled)
  // here, after the result events, so virtual time charged by listeners
  // is part of the chained-timer delay exactly as before.
  runtime::Time next_deadline{0};
  if (!exception_fired && !runtime.done) {
    next_deadline = scheduler_.now() + check.interval;
  }
  if (options_.durability != nullptr) {
    json::Object data{{"state", current_state_},
                      {"check", check.name},
                      {"checkIndex", check_index},
                      {"success", success},
                      {"executed", runtime.executed},
                      {"successes", runtime.successes},
                      {"done", runtime.done},
                      {"tNs", now_ns()}};
    if (exception_fired) data["exceptionFallback"] = check.fallback_state;
    if (next_deadline != runtime::Time{0}) {
      data["nextDeadlineNs"] =
          static_cast<std::int64_t>(next_deadline.count());
    }
    journal(RecordType::kCheckExecuted, std::move(data));
  }

  if (exception_fired) {
    // A failing exception check rolls back immediately (paper §3.2).
    emit(StatusEvent::Type::kExceptionTriggered, current_state_, check.name);
    journal(RecordType::kExceptionTriggered,
            json::Object{{"state", current_state_},
                         {"check", check.name},
                         {"fallback", check.fallback_state},
                         {"tNs", now_ns()}});
    transition_to(check.fallback_state, /*via_exception=*/true);
    return;
  }

  if (runtime.done) {
    double contribution;
    if (check.kind == core::CheckKind::kBasic) {
      contribution = core::map_through_thresholds(
          check.thresholds, check.outputs,
          static_cast<double>(runtime.successes));
    } else {
      // All executions of an exception check succeeded: its aggregated
      // outcome equals n (paper §3.2).
      contribution = static_cast<double>(runtime.successes);
    }
    emit(StatusEvent::Type::kCheckCompleted, current_state_, check.name,
         contribution);
    maybe_complete_state();
    return;
  }
  arm_check_at(check_index, next_deadline);
}

bool StrategyExecution::evaluate_check_once(
    const core::CheckDef& check, std::string& degraded_detail) const {
  ClientEvalContext context(metrics_, def_, now_seconds());
  for (const core::MetricCondition& condition : check.conditions) {
    auto value = condition.aggregate == core::RegionAggregate::kNone
                     ? context.query(condition.provider, condition.query)
                     : aggregate_condition(context, condition);
    if (!value.ok()) {
      util::log_debug("execution", id_, ": provider error for '",
                      condition.query, "': ", value.error_message());
      if (!degraded_detail.empty()) degraded_detail += "; ";
      degraded_detail +=
          "provider '" + condition.provider + "': " + value.error_message();
      if (condition.fail_on_no_data) return false;
      continue;
    }
    if (!value.value().has_value()) {
      if (condition.fail_on_no_data) return false;
      continue;
    }
    if (!condition.validator.eval(*value.value())) return false;
  }
  if (check.custom && !check.custom(context)) return false;
  return true;
}

util::Result<std::optional<double>> StrategyExecution::aggregate_condition(
    core::EvalContext& context, const core::MetricCondition& condition) const {
  using R = util::Result<std::optional<double>>;
  const core::ServiceDef* service = def_.find_service(condition.region_service);
  if (service == nullptr || !service->federated()) {  // validated earlier
    return R::error("aggregate over unknown federated service '" +
                    condition.region_service + "'");
  }
  // Canary order, so kDelta's "canary minus the rest" picks the same
  // region the fleet ramps first. Regions without data are skipped —
  // a partitioned region must not veto the fleet-wide check; total
  // silence (or total provider failure) degrades like a normal
  // no-data/provider-error condition.
  const std::vector<const core::RegionDef*> regions =
      service->regions_in_canary_order();
  double weighted_sum = 0.0;
  double weight_total = 0.0;
  double min_value = 0.0;
  double max_value = 0.0;
  std::optional<double> canary_value;
  double rest_sum = 0.0;
  double rest_weight = 0.0;
  std::size_t seen = 0;
  std::string errors;
  for (std::size_t i = 0; i < regions.size(); ++i) {
    const core::RegionDef& region = *regions[i];
    std::string query = condition.query;
    static constexpr std::string_view kPlaceholder = "$region";
    for (std::size_t pos = query.find(kPlaceholder);
         pos != std::string::npos; pos = query.find(kPlaceholder, pos)) {
      query.replace(pos, kPlaceholder.size(), region.name);
      pos += region.name.size();
    }
    auto value = context.query(condition.provider, query);
    if (!value.ok()) {
      if (!errors.empty()) errors += "; ";
      errors += "region '" + region.name + "': " + value.error_message();
      continue;
    }
    if (!value.value().has_value()) continue;
    const double v = *value.value();
    if (seen == 0 || v < min_value) min_value = v;
    if (seen == 0 || v > max_value) max_value = v;
    weighted_sum += v * region.weight;
    weight_total += region.weight;
    if (i == 0) {
      canary_value = v;
    } else {
      rest_sum += v * region.weight;
      rest_weight += region.weight;
    }
    ++seen;
  }
  if (seen == 0) {
    if (!errors.empty()) return R::error(errors);
    return R(std::nullopt);
  }
  switch (condition.aggregate) {
    case core::RegionAggregate::kMax:
      return R(std::optional<double>(max_value));
    case core::RegionAggregate::kMin:
      return R(std::optional<double>(min_value));
    case core::RegionAggregate::kMean:
      return R(std::optional<double>(
          weight_total > 0.0 ? weighted_sum / weight_total : 0.0));
    case core::RegionAggregate::kDelta:
      // Needs the canary AND at least one comparison region reporting.
      if (!canary_value.has_value() || rest_weight <= 0.0) {
        return R(std::nullopt);
      }
      return R(std::optional<double>(*canary_value - rest_sum / rest_weight));
    case core::RegionAggregate::kNone:
      break;
  }
  return R(std::nullopt);
}

void StrategyExecution::maybe_complete_state() {
  if (!dwell_elapsed_) return;
  for (const CheckRuntime& check : checks_) {
    if (!check.done) return;
  }
  complete_state();
}

void StrategyExecution::complete_state() {
  std::vector<std::pair<double, double>> contributions;
  contributions.reserve(checks_.size());
  for (const CheckRuntime& runtime : checks_) {
    const core::CheckDef& check = *runtime.def;
    double value;
    if (check.kind == core::CheckKind::kBasic) {
      value = core::map_through_thresholds(
          check.thresholds, check.outputs,
          static_cast<double>(runtime.successes));
    } else {
      value = static_cast<double>(runtime.successes);
    }
    contributions.emplace_back(value, check.weight);
  }
  const double outcome = core::weighted_outcome(contributions);
  history_.back().outcome = outcome;
  emit(StatusEvent::Type::kStateCompleted, current_state_, "", outcome);
  journal(RecordType::kStateCompleted,
          json::Object{{"state", current_state_},
                       {"outcome", outcome},
                       {"tNs", now_ns()}});

  const std::string& next =
      state_->transitions.empty()
          ? current_state_  // unreachable: non-final states have transitions
          : core::next_state_name(*state_, outcome);
  transition_to(next, /*via_exception=*/false);
}

void StrategyExecution::transition_to(const std::string& next,
                                      bool via_exception) {
  history_.back().exited = scheduler_.now();
  history_.back().via_exception = via_exception;
  if (++transitions_ > options_.max_transitions) {
    emit(StatusEvent::Type::kError, current_state_, "", 0.0,
         "transition limit exceeded (loop guard)");
    finish(ExecutionStatus::kFailed);
    return;
  }
  enter_state(next);
}

void StrategyExecution::finish(ExecutionStatus status) {
  ++generation_;
  status_ = status;
  finished_at_ = scheduler_.now();
  journal(RecordType::kFinished,
          json::Object{{"state", current_state_},
                       {"status", execution_status_name(status)},
                       {"tNs", now_ns()}});
  emit(StatusEvent::Type::kFinished, current_state_, "",
       status == ExecutionStatus::kSucceeded ? 1.0 : 0.0,
       status == ExecutionStatus::kSucceeded    ? "success"
       : status == ExecutionStatus::kRolledBack ? "rollback"
                                                : "failed");
}

// ---------------------------------------------------------------------------
// Resume after a restart

void StrategyExecution::resume(ResumeState state) {
  current_state_ = state.current_state;
  started_at_ = state.started_at;
  finished_at_ = state.finished_at;
  history_ = std::move(state.history);
  transitions_ = state.transitions;
  checks_executed_ = state.checks_executed;
  state_ = current_state_.empty() ? nullptr
                                  : def_.find_state(current_state_);

  using Pending = ResumeState::Pending;
  switch (state.pending) {
    case Pending::kStart:
      // Submitted but never started: run the normal start path (which
      // journals kStarted itself).
      status_ = ExecutionStatus::kPending;
      request_start();
      return;
    case Pending::kEnterState:
      status_ = ExecutionStatus::kRunning;
      arm_at(scheduler_.now(),
             [this, target = state.target] { enter_state(target); });
      return;
    case Pending::kTransition:
      status_ = ExecutionStatus::kRunning;
      arm_at(scheduler_.now(), [this, target = state.target] {
        transition_to(target, /*via_exception=*/false);
      });
      return;
    case Pending::kException:
      status_ = ExecutionStatus::kRunning;
      arm_at(scheduler_.now(), [this, target = state.target,
                                check = state.pending_check,
                                journaled = state.exception_journaled] {
        if (!journaled) {
          emit(StatusEvent::Type::kExceptionTriggered, current_state_, check);
          journal(RecordType::kExceptionTriggered,
                  json::Object{{"state", current_state_},
                               {"check", check},
                               {"fallback", target},
                               {"tNs", now_ns()}});
        }
        transition_to(target, /*via_exception=*/true);
      });
      return;
    case Pending::kRollback:
      status_ = ExecutionStatus::kRunning;
      arm_at(scheduler_.now(), [this, reason = state.pending_reason] {
        rollback_or_abort(reason);
      });
      return;
    case Pending::kNone:
      status_ = ExecutionStatus::kRunning;
      arm_at(scheduler_.now(), [this, rs = std::move(state)] {
        resume_in_state(rs);
      });
      return;
  }
}

void StrategyExecution::resume_in_state(const ResumeState& rs) {
  if (state_ == nullptr) {  // unreachable: replay validated the journal
    emit(StatusEvent::Type::kError, current_state_, "", 0.0,
         "resume: state not found");
    finish(ExecutionStatus::kFailed);
    return;
  }
  const core::StateDef& state = *state_;
  ++generation_;
  const std::uint64_t gen = generation_;

  // 1. Finish the routing application of the current visit: entries
  // whose ack is journaled already reached (or deliberately skipped)
  // the proxy; an intent without ack is re-issued with its journaled
  // epoch (the proxy dedupes); entries past the crash point run fresh.
  for (std::size_t i = 0; i < state.routing.size(); ++i) {
    const ResumeState::ApplyProgress progress =
        i < rs.applies.size() ? rs.applies[i] : ResumeState::ApplyProgress{};
    if (progress.acked) {
      if (!progress.ok && !state.is_final()) {
        rollback_or_abort("proxy update for service '" +
                          state.routing[i].service +
                          "' failed before restart");
        return;
      }
      // A quorate fleet push that left regions behind re-establishes
      // the degraded set (the restarted process starts empty).
      for (const auto& [region, ok] : progress.region_acks) {
        if (!ok) degraded_regions_[state.routing[i].service].insert(region);
      }
      continue;
    }
    const std::optional<std::uint64_t> epoch =
        progress.intent_journaled ? std::optional<std::uint64_t>(progress.epoch)
                                  : std::nullopt;
    if (apply_one_routing(state, i, epoch, progress.intent_journaled,
                          &progress.region_acks) == ApplyOutcome::kDiverted) {
      return;
    }
  }

  if (state.is_final()) {
    history_.back().exited = scheduler_.now();
    finish(state.final_kind == core::FinalKind::kSuccess
               ? ExecutionStatus::kSucceeded
               : ExecutionStatus::kRolledBack);
    return;
  }

  // 2. Rebuild check aggregates and re-arm their timers at the
  // journaled absolute deadlines. A check that never executed this
  // visit is due `interval` after state entry — in a live run the
  // original timer was armed after the routing pushes, so this resumes
  // it no later (and in the zero-cost simulation, exactly) on time.
  //
  // Arming ORDER matters for exact replay: schedulers break same-time
  // ties by insertion order, and the original timers were inserted when
  // they were (re-)armed — at `deadline - interval` — checks before the
  // dwell timer at state entry. Re-arming in that order makes a resumed
  // deterministic run fire same-instant timers exactly like the
  // uninterrupted one would have.
  const runtime::Time entered = history_.back().entered;
  checks_.clear();
  checks_.reserve(state.checks.size());
  struct PendingArm {
    runtime::Time armed;     ///< when the original timer was inserted
    int rank;                ///< at equal times: checks (0) before dwell (1)
    std::size_t index;       ///< check index (stable tiebreak)
    runtime::Time deadline;
  };
  std::vector<PendingArm> arms;
  for (std::size_t i = 0; i < state.checks.size(); ++i) {
    const ResumeState::CheckProgress progress =
        i < rs.checks.size() ? rs.checks[i] : ResumeState::CheckProgress{};
    checks_.push_back(CheckRuntime{&state.checks[i], progress.executed,
                                   progress.successes, progress.done});
    if (progress.done) continue;
    const runtime::Time deadline =
        progress.next_deadline != runtime::Time{0}
            ? progress.next_deadline
            : entered + state.checks[i].interval;
    arms.push_back(PendingArm{deadline - state.checks[i].interval, 0, i,
                              deadline});
  }

  // 3. Dwell: re-arm against the absolute entry time.
  const runtime::Time dwell_deadline = entered + state.min_duration;
  dwell_elapsed_ = dwell_deadline <= scheduler_.now();
  if (!dwell_elapsed_) {
    arms.push_back(PendingArm{entered, 1, 0, dwell_deadline});
  }

  std::stable_sort(arms.begin(), arms.end(),
                   [](const PendingArm& a, const PendingArm& b) {
                     if (a.armed != b.armed) return a.armed < b.armed;
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.index < b.index;
                   });
  for (const PendingArm& arm : arms) {
    if (arm.rank == 0) {
      arm_check_at(arm.index, arm.deadline);
    } else {
      arm_at(arm.deadline, [this, gen] {
        if (gen != generation_ || status_ != ExecutionStatus::kRunning) return;
        dwell_elapsed_ = true;
        maybe_complete_state();
      });
    }
  }

  // 4. Completion sweep: covers "all checks finished before the crash
  // but the state-completed record was never written" and empty states.
  arm_at(scheduler_.now(), [this, gen] {
    if (gen != generation_ || status_ != ExecutionStatus::kRunning) return;
    maybe_complete_state();
  });
}

runtime::Duration StrategyExecution::enactment_delay() const {
  // Nominal time = sum of specified durations of the transient states
  // actually visited (a check's first execution waits one interval, but
  // interval * executions already accounts for that).
  runtime::Duration specified{0};
  for (const StateVisit& visit : history_) {
    const core::StateDef* state = def_.find_state(visit.state);
    if (state != nullptr && !state->is_final()) {
      specified += state->duration();
    }
  }
  const runtime::Duration actual = finished_at_ - started_at_;
  return actual - specified;
}

}  // namespace bifrost::engine

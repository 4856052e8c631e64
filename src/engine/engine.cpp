#include "engine/engine.hpp"

#include <chrono>
#include <utility>

#include "core/serialize.hpp"

namespace bifrost::engine {
namespace {

double to_seconds(runtime::Time t) {
  return std::chrono::duration<double>(t).count();
}

}  // namespace

Engine::Engine(runtime::Scheduler& scheduler, MetricsClient& metrics,
               ProxyController& proxies, Options options)
    : scheduler_(scheduler),
      metrics_(metrics),
      proxies_(proxies),
      options_(options) {
  // A journal-less engine has nothing to recover; one with a journal
  // becomes ready after recover() + reconcile().
  ready_.store(options_.journal == nullptr);
}

Engine::~Engine() = default;

StrategyExecution::Options Engine::execution_options() {
  StrategyExecution::Options options;
  options.check_executor = options_.check_executor;
  if (options_.journal != nullptr) {
    options.durability = this;
    options.epoch_allocator = [this](const std::string& service) {
      const std::lock_guard<std::mutex> lock(journal_mutex_);
      return ++epochs_[service];
    };
  }
  return options;
}

util::Result<std::string> Engine::submit(core::StrategyDef def,
                                         StatusListener extra_listener) {
  if (auto v = core::validate(def); !v) {
    return util::Result<std::string>::error(v.error_message());
  }
  json::Value def_json;
  std::optional<core::StrategyDef> tracked;
  if (options_.journal != nullptr) {
    if (core::has_custom_eval(def)) {
      return util::Result<std::string>::error(
          "strategy uses a custom in-process check evaluator, which "
          "cannot be reconstructed from the journal; submit it to an "
          "engine without --journal or express the check in the DSL");
    }
    def_json = core::strategy_to_json(def);
    tracked = def;  // the live tracker's copy; it parses nothing back
  }
  std::string id;
  std::string name = def.name;
  StrategyExecution* execution = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = "s-" + std::to_string(next_id_++);
    StrategySnapshot record;
    record.id = id;
    record.name = def.name;
    record.status = ExecutionStatus::kPending;
    records_[id] = std::move(record);

    auto listener = [this, extra = std::move(extra_listener)](
                        const StatusEvent& event) {
      on_event(event, extra);
    };
    auto owned = std::make_unique<StrategyExecution>(
        id, scheduler_, metrics_, proxies_, std::move(def),
        std::move(listener), execution_options());
    execution = owned.get();
    executions_[id] = std::move(owned);
  }
  if (options_.journal != nullptr) {
    // Write-ahead: the submit record must be durable before the
    // execution can produce any successor records.
    append_record(RecordType::kSubmit,
                  json::Object{{"id", id},
                               {"name", std::move(name)},
                               {"def", std::move(def_json)}},
                  std::move(tracked));
  }
  execution->request_start();
  return id;
}

bool Engine::abort(const std::string& id, const std::string& reason) {
  StrategyExecution* execution = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = executions_.find(id);
    if (it == executions_.end()) return false;
    execution = it->second.get();
  }
  execution->request_abort(reason);
  return true;
}

void Engine::record(RecordType type, json::Value data) {
  append_record(type, std::move(data));
}

void Engine::append_record(RecordType type, json::Value data,
                           std::optional<core::StrategyDef> def) {
  std::vector<std::string> errors;
  {
    const std::lock_guard<std::mutex> lock(journal_mutex_);
    if (options_.journal == nullptr) return;
    JournalRecord record{type, std::move(data)};
    // The live tracker mirrors what a replay of the journal would
    // produce; feeding it here is what makes snapshots compacted state
    // rather than a second log. Tracker errors are impossible for
    // records the engine itself produced, so they are not fatal. It
    // reads the record before the journal takes it over, which saves a
    // copy of every record.
    (void)tracker_.apply(record, std::move(def));
    // A terminal record carries the strategy's retired summary, so the
    // summary and the terminal state are journaled atomically and no
    // snapshot needs to repeat it.
    std::string retired;
    if (is_terminal(type)) {
      retired = record.data.get_string("id");
      record.data.as_object()["summary"] = tracker_.summary(retired);
    }
    auto appended = options_.journal->append(type, std::move(record.data));
    if (!appended.ok()) {
      errors.push_back("journal append failed: " + appended.error_message());
    } else if (!retired.empty()) {
      tracker_.mark_summary_journaled(retired);
    }
    ++records_appended_;
    if (options_.snapshot_every > 0 &&
        records_appended_ % options_.snapshot_every == 0) {
      // A refused snapshot loses nothing: replay falls back to the
      // previous snapshot plus the records after it.
      auto snapshot = options_.journal->append(RecordType::kSnapshot,
                                               tracker_.to_snapshot());
      if (!snapshot.ok()) {
        errors.push_back("journal snapshot skipped: " +
                         snapshot.error_message());
      }
    }
  }
  for (std::string& error : errors) {
    StatusEvent event;
    event.time_seconds = to_seconds(scheduler_.now());
    event.type = StatusEvent::Type::kError;
    event.detail = std::move(error);
    log_event(std::move(event));
  }
}

StrategySnapshot Engine::snapshot_from_resume(
    const std::string& id, const StateTracker::Strategy& strategy) {
  const ResumeState& rs = strategy.resume;
  StrategySnapshot snapshot;
  snapshot.id = id;
  snapshot.name = strategy.name.empty() ? strategy.def.name : strategy.name;
  snapshot.status = rs.status;
  snapshot.current_state = rs.current_state;
  snapshot.started_seconds = to_seconds(rs.started_at);
  snapshot.finished_seconds = to_seconds(rs.finished_at);
  snapshot.transitions = rs.transitions;
  snapshot.checks_executed = rs.checks_executed;
  snapshot.history = rs.history;
  if (strategy.terminal) {
    snapshot.enactment_delay_seconds =
        to_seconds(rs.finished_at) - to_seconds(rs.started_at) -
        std::chrono::duration<double>(strategy.specified).count();
  }
  return snapshot;
}

util::Result<void> Engine::recover(const std::vector<JournalRecord>& records) {
  if (options_.journal == nullptr) {
    return util::Result<void>::error("engine has no journal to recover from");
  }
  std::map<std::string, StateTracker::Strategy> strategies;
  std::uint64_t next_id = 1;
  {
    const std::lock_guard<std::mutex> lock(journal_mutex_);
    if (auto r = tracker_.replay(records); !r) return r;
    strategies = tracker_.strategies();
    epochs_ = tracker_.epochs();
    next_id = tracker_.next_numeric_id();
    records_appended_ = tracker_.records_seen();
  }
  const runtime::Time now = scheduler_.now();
  for (auto& [id, strategy] : strategies) {
    StrategyExecution* execution = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      next_id_ = std::max(next_id_, next_id);
      records_[id] = snapshot_from_resume(id, strategy);
      if (!strategy.terminal) {
        auto listener = [this](const StatusEvent& event) {
          on_event(event, nullptr);
        };
        auto owned = std::make_unique<StrategyExecution>(
            id, scheduler_, metrics_, proxies_, strategy.def,
            std::move(listener), execution_options());
        execution = owned.get();
        executions_[id] = std::move(owned);
      }
    }
    if (execution == nullptr) continue;
    // Marker first: if we crash between the marker and the resume, the
    // next recovery replays to the identical state (markers are ignored
    // by the tracker).
    append_record(RecordType::kRecovered,
                  json::Object{{"id", id},
                               {"state", strategy.resume.current_state},
                               {"tNs", now.count()}});
    StatusEvent event;
    event.time_seconds = to_seconds(now);
    event.strategy_id = id;
    event.type = StatusEvent::Type::kRecovered;
    event.state = strategy.resume.current_state;
    event.detail = "resumed from journal";
    log_event(std::move(event));
    execution->resume(strategy.resume);
  }
  return {};
}

util::Result<void> Engine::reconcile() {
  if (options_.journal == nullptr) {
    ready_.store(true);
    return {};
  }
  const JournaledIntents journaled = journaled_intents();
  const runtime::Time now = scheduler_.now();
  for (const auto& [service_name, intent] : journaled.intents) {
    const auto service_it = journaled.services.find(service_name);
    const core::ServiceDef* service =
        service_it != journaled.services.end() ? &service_it->second : nullptr;
    std::string action;
    if (service == nullptr) {
      action = "skipped: service not in journaled strategy definition";
    } else if (service->federated()) {
      // Each region converges to its governing intent: the fleet-wide
      // epoch floor, or a newer scoped intent that named the region.
      // Regions at (or past) their floor ack as no-ops; partitioned
      // regions that come back get the config re-pushed with the
      // original epoch (the proxy dedupes).
      const auto fleet_it = journaled.fleet.find(service_name);
      std::string detail;
      converge_regions(
          *service,
          fleet_it != journaled.fleet.end() ? &fleet_it->second : nullptr,
          journaled.regions, now, detail);
      action = "fleet: " + detail;
    } else {
      auto fetched = proxies_.fetch(*service);
      if (fetched.ok() && fetched.value().epoch >= intent.epoch) {
        action = "in_sync";
      } else {
        // Proxy is behind (or unreadable): re-issue the journaled
        // intent with its original epoch — the proxy applies it at
        // most once.
        proxy::ProxyConfig config = intent.config;
        config.epoch = intent.epoch;
        auto applied = proxies_.apply(*service, config);
        action = applied.ok()
                     ? "reapplied"
                     : "reapply_failed: " + applied.error_message();
      }
    }
    append_record(
        RecordType::kReconciled,
        json::Object{{"service", service_name},
                     {"epoch", static_cast<std::int64_t>(intent.epoch)},
                     {"action", action},
                     {"tNs", now.count()}});
    StatusEvent event;
    event.time_seconds = to_seconds(now);
    event.strategy_id = intent.strategy_id;
    event.type = StatusEvent::Type::kReconciled;
    event.detail = service_name + ": " + action;
    log_event(std::move(event));
  }
  ready_.store(true);
  return {};
}

Engine::JournaledIntents Engine::journaled_intents() {
  const std::lock_guard<std::mutex> lock(journal_mutex_);
  JournaledIntents journaled{tracker_.intents(), tracker_.fleet_intents(),
                             tracker_.region_intents(), {}};
  for (const auto& [service_name, intent] : journaled.intents) {
    const auto it = tracker_.strategies().find(intent.strategy_id);
    if (it == tracker_.strategies().end()) continue;
    if (const core::ServiceDef* service =
            it->second.def.find_service(service_name)) {
      journaled.services.emplace(service_name, *service);
    }
  }
  return journaled;
}

int Engine::converge_regions(
    const core::ServiceDef& service, const StateTracker::Intent* fleet,
    const std::map<std::string, StateTracker::Intent>& region_intents,
    runtime::Time now, std::string& detail) {
  int resynced = 0;
  for (const core::RegionDef* region : service.regions_in_canary_order()) {
    // The governing intent is the newest push that targeted this
    // region: a scoped intent overrides the fleet-wide floor only for
    // the regions it named.
    const StateTracker::Intent* governing = fleet;
    const auto scoped =
        region_intents.find(service.name + "/" + region->name);
    if (scoped != region_intents.end() &&
        (governing == nullptr || scoped->second.epoch >= governing->epoch)) {
      governing = &scoped->second;
    }
    std::string verdict;
    if (governing == nullptr) {
      // Never pushed to: nothing to converge (leaving it untouched is
      // what makes post-crash reconcile byte-identical to a run that
      // never targeted the region).
      verdict = "never_targeted";
    } else {
      auto fetched = proxies_.fetch_region(service, *region);
      if (fetched.ok() && fetched.value().epoch >= governing->epoch) {
        verdict = "in_sync";
      } else {
        proxy::ProxyConfig config = governing->config;
        config.epoch = governing->epoch;
        auto applied = proxies_.apply_region(service, *region, config);
        if (applied.ok()) {
          verdict = "resynced";
          ++resynced;
          StatusEvent event;
          event.time_seconds = to_seconds(now);
          event.strategy_id = governing->strategy_id;
          event.type = StatusEvent::Type::kRegionResynced;
          event.state = service.name;
          event.check = region->name;
          event.detail = "region '" + region->name +
                         "' converged to fleet epoch " +
                         std::to_string(governing->epoch);
          log_event(std::move(event));
        } else {
          verdict = "resync_failed: " + applied.error_message();
        }
      }
    }
    if (!detail.empty()) detail += ", ";
    detail += region->name + "=" + verdict;
  }
  return resynced;
}

util::Result<int> Engine::resync_regions() {
  if (options_.journal == nullptr) {
    return util::Result<int>::error("engine has no journal to resync from");
  }
  const JournaledIntents journaled = journaled_intents();
  const runtime::Time now = scheduler_.now();
  int total = 0;
  for (const auto& [service_name, intent] : journaled.intents) {
    const auto service_it = journaled.services.find(service_name);
    const core::ServiceDef* service =
        service_it != journaled.services.end() ? &service_it->second : nullptr;
    if (service == nullptr || !service->federated()) continue;
    const auto fleet_it = journaled.fleet.find(service_name);
    std::string detail;
    const int resynced = converge_regions(
        *service,
        fleet_it != journaled.fleet.end() ? &fleet_it->second : nullptr,
        journaled.regions, now, detail);
    total += resynced;
    if (resynced > 0) {
      append_record(
          RecordType::kReconciled,
          json::Object{{"service", service_name},
                       {"epoch", static_cast<std::int64_t>(intent.epoch)},
                       {"action", "resync: " + detail},
                       {"tNs", now.count()}});
    }
  }
  return total;
}

void Engine::log_event(StatusEvent event) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    event.sequence = next_sequence_++;
    events_.push_back(std::move(event));
    if (events_.size() > options_.event_log_capacity) events_.pop_front();
  }
  event_cv_.notify_all();
}

void Engine::on_event(StatusEvent event, const StatusListener& extra) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    event.sequence = next_sequence_++;
    events_.push_back(event);
    if (events_.size() > options_.event_log_capacity) events_.pop_front();

    auto record_it = records_.find(event.strategy_id);
    if (record_it != records_.end()) {
      StrategySnapshot& record = record_it->second;
      const auto exec_it = executions_.find(event.strategy_id);
      switch (event.type) {
        case StatusEvent::Type::kStarted:
          record.status = ExecutionStatus::kRunning;
          record.started_seconds = event.time_seconds;
          break;
        case StatusEvent::Type::kStateEntered: {
          if (!record.current_state.empty()) ++record.transitions;
          record.current_state = event.state;
          const auto entered = std::chrono::duration_cast<runtime::Time>(
              std::chrono::duration<double>(event.time_seconds));
          // A strategy resumed after its state completed never sees that
          // state's kStateCompleted; close the visit on entry, as the
          // journal replay does.
          if (!record.history.empty() &&
              record.history.back().exited == runtime::Time{0}) {
            record.history.back().exited = entered;
          }
          record.history.push_back(
              StateVisit{event.state, entered, runtime::Time{0}, 0.0, false});
          break;
        }
        case StatusEvent::Type::kCheckExecuted:
          ++record.checks_executed;
          break;
        case StatusEvent::Type::kStateCompleted:
          if (!record.history.empty()) {
            record.history.back().outcome = event.value;
            record.history.back().exited =
                std::chrono::duration_cast<runtime::Time>(
                    std::chrono::duration<double>(event.time_seconds));
          }
          break;
        case StatusEvent::Type::kFinished:
        case StatusEvent::Type::kAborted:
          record.finished_seconds = event.time_seconds;
          if (exec_it != executions_.end()) {
            record.status = exec_it->second->status();
            record.enactment_delay_seconds =
                std::chrono::duration<double>(
                    exec_it->second->enactment_delay())
                    .count();
          }
          if (!record.history.empty() &&
              record.history.back().exited == runtime::Time{0}) {
            record.history.back().exited =
                std::chrono::duration_cast<runtime::Time>(
                    std::chrono::duration<double>(event.time_seconds));
          }
          break;
        default:
          break;
      }
    }
  }
  event_cv_.notify_all();
  if (extra) extra(event);
}

std::optional<StrategySnapshot> Engine::status(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

std::vector<StrategySnapshot> Engine::list() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<StrategySnapshot> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) out.push_back(record);
  return out;
}

std::size_t Engine::running_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [id, record] : records_) {
    if (record.status == ExecutionStatus::kRunning ||
        record.status == ExecutionStatus::kPending) {
      ++n;
    }
  }
  return n;
}

std::vector<StatusEvent> Engine::events_since(
    std::uint64_t after, std::size_t max,
    std::chrono::milliseconds wait) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto collect = [&] {
    std::vector<StatusEvent> out;
    for (const StatusEvent& event : events_) {
      if (event.sequence > after) {
        out.push_back(event);
        if (out.size() >= max) break;
      }
    }
    return out;
  };
  auto out = collect();
  if (out.empty() && wait.count() > 0) {
    event_cv_.wait_for(lock, wait,
                       [&] { return next_sequence_ - 1 > after; });
    out = collect();
  }
  return out;
}

std::optional<std::string> Engine::dot(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = executions_.find(id);
  if (it == executions_.end()) return std::nullopt;
  return core::to_dot(it->second->definition());
}

std::uint64_t Engine::last_event_sequence() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_sequence_ - 1;
}

}  // namespace bifrost::engine

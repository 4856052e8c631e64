#include "engine/recovery.hpp"

#include <algorithm>
#include <set>
#include <string_view>
#include <utility>

#include "core/serialize.hpp"

namespace bifrost::engine {
namespace {

using util::Result;

runtime::Time time_from(const json::Value& data, const std::string& key) {
  return runtime::Time(static_cast<std::int64_t>(data.get_number(key)));
}

/// Numeric suffix of an "s-N" strategy id, 0 if foreign.
std::uint64_t id_suffix(const std::string& id) {
  if (id.rfind("s-", 0) != 0) return 0;
  std::uint64_t n = 0;
  for (std::size_t i = 2; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return 0;
    n = n * 10 + static_cast<std::uint64_t>(id[i] - '0');
  }
  return n;
}

/// The definition a kSubmit record carries.
Result<core::StrategyDef> definition_from(const json::Value& submit) {
  const json::Value* def = submit.find("def");
  return core::strategy_from_json(def != nullptr ? *def : json::Value{});
}

/// A journaled intent: an apply_intent record or a snapshot's entry.
Result<StateTracker::Intent> intent_from(const json::Value& data,
                                         std::string strategy_id) {
  StateTracker::Intent intent;
  intent.epoch = static_cast<std::uint64_t>(data.get_number("epoch"));
  intent.strategy_id = std::move(strategy_id);
  if (const json::Value* config = data.find("config")) {
    auto parsed = proxy::ProxyConfig::from_json(*config);
    if (!parsed.ok()) {
      return Result<StateTracker::Intent>::error("intent config: " +
                                                 parsed.error_message());
    }
    intent.config = std::move(parsed).value();
  }
  if (const json::Value* regions = data.find("regions");
      regions != nullptr && regions->is_array()) {
    for (const json::Value& region : regions->as_array()) {
      if (region.is_string()) intent.regions.push_back(region.as_string());
    }
  }
  return intent;
}

const char* pending_name(ResumeState::Pending pending) {
  switch (pending) {
    case ResumeState::Pending::kNone:
      return "none";
    case ResumeState::Pending::kStart:
      return "start";
    case ResumeState::Pending::kEnterState:
      return "enter_state";
    case ResumeState::Pending::kTransition:
      return "transition";
    case ResumeState::Pending::kException:
      return "exception";
    case ResumeState::Pending::kRollback:
      return "rollback";
  }
  return "none";
}

/// The enactment delay's nominal time: specified durations of the
/// transient states a finished strategy actually visited.
runtime::Duration specified_duration(const core::StrategyDef& def,
                                     const std::vector<StateVisit>& history) {
  runtime::Duration specified{0};
  for (const StateVisit& visit : history) {
    const core::StateDef* state = def.find_state(visit.state);
    if (state != nullptr && !state->is_final()) specified += state->duration();
  }
  return specified;
}

ResumeState::Pending pending_from_name(std::string_view name) {
  if (name == "start") return ResumeState::Pending::kStart;
  if (name == "enter_state") return ResumeState::Pending::kEnterState;
  if (name == "transition") return ResumeState::Pending::kTransition;
  if (name == "exception") return ResumeState::Pending::kException;
  if (name == "rollback") return ResumeState::Pending::kRollback;
  return ResumeState::Pending::kNone;
}

}  // namespace

Result<void> StateTracker::replay(const std::vector<JournalRecord>& records) {
  // Replay starts at the newest snapshot. A snapshot holds only live
  // work, so one pass over the records before it indexes definitions
  // (kSubmit) and loads the retired summaries terminal records carry. It
  // reads only the type of other records: each payload is a cache miss.
  std::size_t start = records.size();
  while (start > 0 && records[start - 1].type != RecordType::kSnapshot) {
    --start;
  }
  const auto failed = [&records](std::size_t i, const Result<void>& r) {
    return Result<void>::error("journal record " + std::to_string(i) + " (" +
                               record_type_name(records[i].type) +
                               "): " + r.error_message());
  };
  if (start > 0) {
    if (auto r = apply(records[start - 1]); !r) return failed(start - 1, r);
    std::map<std::string, const json::Value*> submits;
    for (std::size_t i = 0; i + 1 < start; ++i) {
      const json::Value& data = records[i].data;
      const json::Value* summary =
          is_terminal(records[i].type) ? data.find("summary") : nullptr;
      if (records[i].type == RecordType::kSubmit) {
        submits[data.get_string("id")] = &data;
      } else if (summary != nullptr) {
        if (auto r = load_entry(*summary, true); !r) return failed(i, r);
      }
    }
    // Live strategies resume from their definition; reconcile() finds an
    // intent's ServiceDef in the definition of the strategy it names.
    std::set<std::string> owners;
    for (const auto* intents : {&intents_, &fleet_intents_, &region_intents_}) {
      for (const auto& [key, intent] : *intents) {
        owners.insert(intent.strategy_id);
      }
    }
    for (auto& [id, strategy] : strategies_) {
      if (!strategy.def.states.empty() ||
          (strategy.terminal && owners.count(id) == 0)) {
        continue;
      }
      const auto submit = submits.find(id);
      if (submit == submits.end()) {
        return Result<void>::error("no submit record holds strategy '" + id +
                                   "'");
      }
      auto def = definition_from(*submit->second);
      if (!def.ok()) return Result<void>::error(def.error_message());
      strategy.def = std::move(def).value();
    }
  }
  for (std::size_t i = start; i < records.size(); ++i) {
    if (auto r = apply(records[i]); !r) return failed(i, r);
  }
  return {};
}

Result<void> StateTracker::apply(const JournalRecord& record,
                                 std::optional<core::StrategyDef> def) {
  ++records_seen_;
  const json::Value& data = record.data;

  if (record.type == RecordType::kSnapshot) return load_snapshot(data);
  if (record.type == RecordType::kRecovered ||
      record.type == RecordType::kReconciled) {
    return {};  // informational markers
  }

  if (record.type == RecordType::kSubmit) {
    const std::string id = data.get_string("id");
    if (id.empty()) return Result<void>::error("submit record without id");
    if (!def) {
      auto parsed = definition_from(data);
      if (!parsed.ok()) return Result<void>::error(parsed.error_message());
      def = std::move(parsed).value();
    }
    Strategy strategy;
    strategy.def = std::move(*def);
    strategy.name = data.get_string("name", strategy.def.name);
    strategy.resume.pending = ResumeState::Pending::kStart;
    strategy.resume.status = ExecutionStatus::kPending;
    strategies_[id] = std::move(strategy);
    next_id_ = std::max(next_id_, id_suffix(id) + 1);
    return {};
  }

  const std::string id = data.get_string("id");
  const auto it = strategies_.find(id);
  if (it == strategies_.end()) {
    return Result<void>::error("record for unknown strategy '" + id + "'");
  }
  Strategy& strategy = it->second;
  ResumeState& rs = strategy.resume;

  switch (record.type) {
    case RecordType::kStarted: {
      rs.status = ExecutionStatus::kRunning;
      rs.started_at = time_from(data, "tNs");
      rs.pending = ResumeState::Pending::kEnterState;
      rs.target = strategy.def.initial_state;
      return {};
    }

    case RecordType::kStateEntered: {
      const runtime::Time entered = time_from(data, "tNs");
      if (!rs.history.empty() &&
          rs.history.back().exited == runtime::Time{0}) {
        rs.history.back().exited = entered;
        rs.history.back().via_exception =
            rs.pending == ResumeState::Pending::kException ||
            rs.pending == ResumeState::Pending::kRollback;
      }
      rs.current_state = data.get_string("state");
      rs.history.push_back(
          StateVisit{rs.current_state, entered, runtime::Time{0}, 0.0, false});
      rs.transitions = rs.history.size() - 1;
      rs.applies.clear();
      rs.checks.clear();
      rs.pending = ResumeState::Pending::kNone;
      rs.target.clear();
      rs.pending_check.clear();
      rs.pending_reason.clear();
      rs.exception_journaled = false;
      return {};
    }

    case RecordType::kApplyIntent: {
      const auto index = static_cast<std::size_t>(
          data.get_number("routingIndex"));
      if (rs.applies.size() <= index) rs.applies.resize(index + 1);
      const auto epoch =
          static_cast<std::uint64_t>(data.get_number("epoch"));
      rs.applies[index].intent_journaled = true;
      rs.applies[index].epoch = epoch;

      const std::string service = data.get_string("service");
      epochs_[service] = std::max(epochs_[service], epoch);
      if (data.find("config") != nullptr) {
        auto parsed = intent_from(data, id);
        if (!parsed.ok()) return Result<void>::error(parsed.error_message());
        const Intent incoming = std::move(parsed).value();
        // Later intents supersede earlier ones; epochs are per-service
        // monotone so ">=" keeps the newest.
        const auto supersede = [&incoming](Intent& slot) {
          if (incoming.epoch >= slot.epoch) slot = incoming;
        };
        supersede(intents_[service]);
        // Scoped intents govern only the regions they name — reconcile
        // must never push a canary-scoped config fleet-wide.
        if (incoming.regions.empty()) {
          supersede(fleet_intents_[service]);
        } else {
          for (const std::string& region : incoming.regions) {
            supersede(region_intents_[service + "/" + region]);
          }
        }
      }
      return {};
    }

    case RecordType::kRegionAck: {
      // One region of a fleet push returned. The push as a whole is
      // still in flight (its kApplyAck is pending), so resume re-pushes
      // only the regions without a journaled verdict.
      const auto index = static_cast<std::size_t>(
          data.get_number("routingIndex"));
      if (rs.applies.size() <= index) rs.applies.resize(index + 1);
      rs.applies[index].region_acks[data.get_string("region")] =
          data.get_bool("ok");
      return {};
    }

    case RecordType::kApplyAck: {
      const auto index = static_cast<std::size_t>(
          data.get_number("routingIndex"));
      if (rs.applies.size() <= index) rs.applies.resize(index + 1);
      rs.applies[index].acked = true;
      rs.applies[index].ok = data.get_bool("ok");
      if (!rs.applies[index].ok) {
        const core::StateDef* state = strategy.def.find_state(rs.current_state);
        if (state != nullptr && !state->is_final()) {
          rs.pending = ResumeState::Pending::kRollback;
          rs.pending_reason = "proxy update for service '" +
                              data.get_string("service") +
                              "' failed: " + data.get_string("error");
        }
      }
      return {};
    }

    case RecordType::kCheckExecuted: {
      const auto index =
          static_cast<std::size_t>(data.get_number("checkIndex"));
      if (rs.checks.size() <= index) rs.checks.resize(index + 1);
      ResumeState::CheckProgress& check = rs.checks[index];
      check.executed = static_cast<int>(data.get_number("executed"));
      check.successes = static_cast<int>(data.get_number("successes"));
      check.done = data.get_bool("done");
      check.next_deadline =
          runtime::Time(static_cast<std::int64_t>(
              data.get_number("nextDeadlineNs", 0.0)));
      ++rs.checks_executed;
      if (const json::Value* fallback = data.find("exceptionFallback")) {
        rs.pending = ResumeState::Pending::kException;
        rs.target = fallback->is_string() ? fallback->as_string() : "";
        rs.pending_check = data.get_string("check");
        rs.exception_journaled = false;
      }
      return {};
    }

    case RecordType::kExceptionTriggered: {
      rs.pending = ResumeState::Pending::kException;
      rs.target = data.get_string("fallback");
      rs.pending_check = data.get_string("check");
      rs.exception_journaled = true;
      return {};
    }

    case RecordType::kStateCompleted: {
      const double outcome = data.get_number("outcome");
      if (!rs.history.empty()) rs.history.back().outcome = outcome;
      const core::StateDef* state = strategy.def.find_state(rs.current_state);
      if (state == nullptr || state->transitions.empty()) {
        return Result<void>::error("state completed in unknown state '" +
                                   rs.current_state + "'");
      }
      rs.pending = ResumeState::Pending::kTransition;
      rs.target = core::next_state_name(*state, outcome);
      return {};
    }

    case RecordType::kFinished:
    case RecordType::kAborted: {
      rs.status = record.type == RecordType::kAborted
                      ? ExecutionStatus::kAborted
                      : execution_status_from_name(data.get_string("status"))
                            .value_or(ExecutionStatus::kSucceeded);
      rs.finished_at = time_from(data, "tNs");
      if (!rs.history.empty() &&
          rs.history.back().exited == runtime::Time{0}) {
        rs.history.back().exited = rs.finished_at;
      }
      rs.pending = ResumeState::Pending::kNone;
      strategy.terminal = true;
      strategy.specified = specified_duration(strategy.def, rs.history);
      const json::Value* summary = data.find("summary");
      strategy.summary_journaled = summary != nullptr && summary->is_object();
      return {};
    }

    case RecordType::kSubmit:
    case RecordType::kSnapshot:
    case RecordType::kRecovered:
    case RecordType::kReconciled:
      return {};  // handled above
  }
  return {};
}

// ---------------------------------------------------------------------------
// Snapshot round-trip

json::Value StateTracker::summary(const std::string& id) const {
  const auto it = strategies_.find(id);
  if (it == strategies_.end()) return {};
  const Strategy& strategy = it->second;
  const ResumeState& rs = strategy.resume;
  json::Array history;
  for (const StateVisit& visit : rs.history) {
    history.push_back(json::Object{
        {"state", visit.state},
        {"enteredNs", static_cast<std::int64_t>(visit.entered.count())},
        {"exitedNs", static_cast<std::int64_t>(visit.exited.count())},
        {"outcome", visit.outcome},
        {"viaException", visit.via_exception},
    });
  }
  // What Engine::status() reports. The array is moved in after
  // construction: an initializer list would deep-copy it.
  json::Object entry{
      {"id", id},
      {"name", strategy.name},
      {"terminal", strategy.terminal},
      {"status", execution_status_name(rs.status)},
      {"currentState", rs.current_state},
      {"startedNs", static_cast<std::int64_t>(rs.started_at.count())},
      {"finishedNs", static_cast<std::int64_t>(rs.finished_at.count())},
      {"transitions", rs.transitions},
      {"checksExecuted", rs.checks_executed},
  };
  entry["history"] = std::move(history);
  if (strategy.terminal) {
    entry["specifiedNs"] =
        static_cast<std::int64_t>(strategy.specified.count());
  }
  return entry;
}

json::Value StateTracker::to_snapshot() const {
  json::Array strategies;
  for (const auto& [id, strategy] : strategies_) {
    // Retired summaries ride on terminal records; one recovered from an
    // older journal is on none, so it stays.
    if (strategy.terminal && strategy.summary_journaled) continue;
    json::Value entry = summary(id);
    if (strategy.terminal) {
      strategies.push_back(std::move(entry));
      continue;
    }
    const ResumeState& rs = strategy.resume;
    json::Array applies;
    for (const ResumeState::ApplyProgress& apply : rs.applies) {
      json::Object progress{
          {"intent", apply.intent_journaled},
          {"epoch", static_cast<std::int64_t>(apply.epoch)},
          {"acked", apply.acked},
          {"ok", apply.ok},
      };
      if (!apply.region_acks.empty()) {
        json::Object acks;
        for (const auto& [region, ok] : apply.region_acks) acks[region] = ok;
        progress["regionAcks"] = std::move(acks);
      }
      applies.push_back(std::move(progress));
    }
    json::Array checks;
    for (const ResumeState::CheckProgress& check : rs.checks) {
      checks.push_back(json::Object{
          {"executed", check.executed},
          {"successes", check.successes},
          {"done", check.done},
          {"nextDeadlineNs",
           static_cast<std::int64_t>(check.next_deadline.count())},
      });
    }
    json::Object& fields = entry.as_object();
    fields["applies"] = std::move(applies);
    fields["checks"] = std::move(checks);
    fields["pending"] = pending_name(rs.pending);
    fields["target"] = rs.target;
    fields["pendingCheck"] = rs.pending_check;
    fields["exceptionJournaled"] = rs.exception_journaled;
    fields["pendingReason"] = rs.pending_reason;
    strategies.push_back(std::move(entry));
  }
  json::Object epochs;
  for (const auto& [service, epoch] : epochs_) {
    epochs[service] = static_cast<std::int64_t>(epoch);
  }
  const auto intents_json = [](const std::map<std::string, Intent>& intents) {
    json::Object out;
    for (const auto& [key, intent] : intents) {
      json::Object entry{
          {"epoch", static_cast<std::int64_t>(intent.epoch)},
          {"config", intent.config.to_json()},
          {"strategyId", intent.strategy_id},
      };
      if (!intent.regions.empty()) {
        json::Array regions;
        for (const std::string& region : intent.regions) {
          regions.push_back(region);
        }
        entry["regions"] = std::move(regions);
      }
      out[key] = std::move(entry);
    }
    return out;
  };
  json::Object snapshot{{"nextId", next_id_}};
  snapshot["epochs"] = std::move(epochs);
  snapshot["intents"] = intents_json(intents_);
  snapshot["fleetIntents"] = intents_json(fleet_intents_);
  snapshot["regionIntents"] = intents_json(region_intents_);
  snapshot["strategies"] = std::move(strategies);
  return snapshot;
}

Result<void> StateTracker::load_snapshot(const json::Value& snapshot) {
  if (!snapshot.is_object()) {
    return Result<void>::error("snapshot must be an object");
  }
  strategies_.clear();
  epochs_.clear();
  intents_.clear();
  fleet_intents_.clear();
  region_intents_.clear();
  next_id_ = static_cast<std::uint64_t>(snapshot.get_number("nextId", 1.0));

  if (const json::Value* epochs = snapshot.find("epochs");
      epochs != nullptr && epochs->is_object()) {
    for (const auto& [service, epoch] : epochs->as_object()) {
      if (epoch.is_number()) {
        epochs_[service] = static_cast<std::uint64_t>(epoch.as_number());
      }
    }
  }
  const auto load_intents =
      [&snapshot](const char* key,
                  std::map<std::string, Intent>& out) -> Result<void> {
    const json::Value* intents = snapshot.find(key);
    if (intents == nullptr || !intents->is_object()) return {};
    for (const auto& [name, value] : intents->as_object()) {
      auto intent = intent_from(value, value.get_string("strategyId"));
      if (!intent.ok()) return Result<void>::error(intent.error_message());
      out[name] = std::move(intent).value();
    }
    return {};
  };
  if (auto r = load_intents("intents", intents_); !r) return r;
  if (auto r = load_intents("fleetIntents", fleet_intents_); !r) return r;
  if (auto r = load_intents("regionIntents", region_intents_); !r) return r;

  const json::Value* strategies = snapshot.find("strategies");
  if (strategies == nullptr || !strategies->is_array()) return {};
  for (const json::Value& entry : strategies->as_array()) {
    if (auto r = load_entry(entry, false); !r) return r;
  }
  return {};
}

Result<void> StateTracker::load_entry(const json::Value& entry,
                                      bool journaled) {
  const std::string id = entry.get_string("id");
  if (id.empty()) return Result<void>::error("strategy entry without id");
  Strategy strategy;
  // Snapshots from before definitions stayed in kSubmit carry them.
  if (const json::Value* def_json = entry.find("def")) {
    auto def = core::strategy_from_json(*def_json);
    if (!def.ok()) return Result<void>::error(def.error_message());
    strategy.def = std::move(def).value();
  }
  strategy.terminal = journaled || entry.get_bool("terminal");
  strategy.summary_journaled = journaled;
  strategy.name = entry.get_string("name", strategy.def.name);
  ResumeState& rs = strategy.resume;
  rs.status = execution_status_from_name(entry.get_string("status"))
                  .value_or(ExecutionStatus::kRunning);
  rs.current_state = entry.get_string("currentState");
  rs.started_at = time_from(entry, "startedNs");
  rs.finished_at = time_from(entry, "finishedNs");
  rs.transitions =
      static_cast<std::uint64_t>(entry.get_number("transitions"));
  rs.checks_executed =
      static_cast<std::uint64_t>(entry.get_number("checksExecuted"));
  if (const json::Value* history = entry.find("history");
      history != nullptr && history->is_array()) {
    for (const json::Value& visit : history->as_array()) {
      rs.history.push_back(StateVisit{
          visit.get_string("state"),
          time_from(visit, "enteredNs"),
          time_from(visit, "exitedNs"),
          visit.get_number("outcome"),
          visit.get_bool("viaException"),
      });
    }
  }
  if (const json::Value* applies = entry.find("applies");
      applies != nullptr && applies->is_array()) {
    for (const json::Value& apply : applies->as_array()) {
      ResumeState::ApplyProgress progress{
          apply.get_bool("intent"),
          static_cast<std::uint64_t>(apply.get_number("epoch")),
          apply.get_bool("acked"),
          apply.get_bool("ok"),
          {},
      };
      if (const json::Value* acks = apply.find("regionAcks");
          acks != nullptr && acks->is_object()) {
        for (const auto& [region, ok] : acks->as_object()) {
          progress.region_acks[region] = ok.is_bool() && ok.as_bool();
        }
      }
      rs.applies.push_back(std::move(progress));
    }
  }
  if (const json::Value* checks = entry.find("checks");
      checks != nullptr && checks->is_array()) {
    for (const json::Value& check : checks->as_array()) {
      rs.checks.push_back(ResumeState::CheckProgress{
          static_cast<int>(check.get_number("executed")),
          static_cast<int>(check.get_number("successes")),
          check.get_bool("done"),
          runtime::Time(static_cast<std::int64_t>(
              check.get_number("nextDeadlineNs"))),
      });
    }
  }
  rs.pending = pending_from_name(entry.get_string("pending", "none"));
  rs.target = entry.get_string("target");
  rs.pending_check = entry.get_string("pendingCheck");
  rs.exception_journaled = entry.get_bool("exceptionJournaled");
  rs.pending_reason = entry.get_string("pendingReason");
  if (strategy.terminal) {
    // Snapshots written before strategies were retired carry the
    // full definition instead of the precomputed sum.
    const json::Value* specified = entry.find("specifiedNs");
    strategy.specified =
        specified != nullptr && specified->is_number()
            ? runtime::Duration(
                  static_cast<std::int64_t>(specified->as_number()))
            : specified_duration(strategy.def, rs.history);
  }
  strategies_[id] = std::move(strategy);
  return {};
}

}  // namespace bifrost::engine

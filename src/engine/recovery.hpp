// Journal replay: turns the record stream written by StrategyExecution
// (through the Engine's DurabilitySink) back into per-strategy
// ResumeState, so a restarted engine continues every live execution
// exactly where its last record left off.
//
// The tracker is used in two places:
//  - recovery: Engine::recover() replays a freshly read journal through
//    a tracker, then materializes executions from the result;
//  - live: the Engine feeds every record it appends through its own
//    tracker, which lets it periodically write compacted kSnapshot
//    records (tracker state serialized to JSON) — replay then re-applies
//    only the records after the last snapshot, not every record since
//    record zero.
//
// A snapshot holds only live work: epochs, the journaled apply intents,
// and each non-terminal strategy's resume progress and history.
// Everything else is journaled exactly once, where it arises: a
// definition only in its kSubmit record, a retired strategy's summary
// (exactly what Engine::status() reports about it) on its kFinished or
// kAborted record. replay() gets both back with one pass over the
// records before the newest snapshot. A retired strategy recovered from
// an older journal, whose summary no record holds, stays in snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "engine/execution.hpp"
#include "engine/journal.hpp"
#include "proxy/config.hpp"
#include "util/result.hpp"

namespace bifrost::engine {

class StateTracker {
 public:
  struct Strategy {
    /// Empty for a retired strategy replayed from its summary that no
    /// apply intent names.
    core::StrategyDef def;
    std::string name;
    bool terminal = false;  ///< finished or aborted; nothing to resume
    /// A journaled terminal record holds the summary, so snapshots
    /// leave the strategy out.
    bool summary_journaled = false;
    ResumeState resume;
    /// Once terminal: sum of the specified durations of the transient
    /// states visited (the nominal time the enactment delay excludes).
    runtime::Duration specified{0};
  };

  /// The newest journaled apply intent per service — what the engine
  /// believes the proxy should be enacting. Reconciliation diffs this
  /// against the proxy's actual state.
  struct Intent {
    std::uint64_t epoch = 0;
    proxy::ProxyConfig config;
    std::string strategy_id;
    /// Region scope journaled with the intent (federated services
    /// only): the regions the push targeted. Empty = fleet-wide.
    std::vector<std::string> regions;
  };

  /// Applies one record. kSnapshot resets the tracker to the snapshot's
  /// contents alone (replay() adds what it leaves to earlier records);
  /// kRecovered/kReconciled markers are ignored. `def`, for a kSubmit
  /// record, is the validated definition the record serializes: the
  /// live engine hands it over so the record's copy is not parsed back.
  util::Result<void> apply(const JournalRecord& record,
                           std::optional<core::StrategyDef> def = {});

  /// Replays a full record sequence (a freshly read journal): indexes
  /// the kSubmit records and journaled summaries before the newest
  /// kSnapshot, loads it, parses the definitions of its live strategies
  /// and intent owners, and applies the records after it.
  util::Result<void> replay(const std::vector<JournalRecord>& records);

  [[nodiscard]] const std::map<std::string, Strategy>& strategies() const {
    return strategies_;
  }
  /// Highest journaled config epoch per service (allocation floor).
  [[nodiscard]] const std::map<std::string, std::uint64_t>& epochs() const {
    return epochs_;
  }
  [[nodiscard]] const std::map<std::string, Intent>& intents() const {
    return intents_;
  }
  /// Last fleet-wide (unscoped) intent per service. For a federated
  /// service this is the fleet epoch floor every region must reach;
  /// scoped intents in region_intents() override it for the regions
  /// they name (a canary-scoped push must NOT be converged fleet-wide).
  [[nodiscard]] const std::map<std::string, Intent>& fleet_intents() const {
    return fleet_intents_;
  }
  /// Last region-scoped intent per "service/region" key.
  [[nodiscard]] const std::map<std::string, Intent>& region_intents() const {
    return region_intents_;
  }
  /// Next free numeric suffix for "s-N" strategy ids.
  [[nodiscard]] std::uint64_t next_numeric_id() const { return next_id_; }
  [[nodiscard]] std::uint64_t records_seen() const { return records_seen_; }

  /// The retired summary the engine adds to a strategy's terminal
  /// record: what Engine::status() reports, plus `specifiedNs`. Null
  /// for an unknown id.
  [[nodiscard]] json::Value summary(const std::string& id) const;
  /// Marks `id`'s summary as journaled (its terminal record was
  /// appended): snapshots leave the strategy out from now on.
  void mark_summary_journaled(const std::string& id) {
    if (const auto it = strategies_.find(id); it != strategies_.end()) {
      it->second.summary_journaled = true;
    }
  }

  /// Snapshot round-trip (the payload of kSnapshot records). Loading
  /// also accepts the older formats that carry definitions and retired
  /// summaries, or every strategy in full.
  [[nodiscard]] json::Value to_snapshot() const;
  util::Result<void> load_snapshot(const json::Value& snapshot);

 private:
  /// The one loader of a strategy entry: a snapshot entry, or the
  /// summary a terminal record carries (`journaled`: always terminal).
  util::Result<void> load_entry(const json::Value& entry, bool journaled);

  std::map<std::string, Strategy> strategies_;
  std::map<std::string, std::uint64_t> epochs_;
  std::map<std::string, Intent> intents_;
  std::map<std::string, Intent> fleet_intents_;   ///< service -> unscoped
  std::map<std::string, Intent> region_intents_;  ///< "service/region"
  std::uint64_t next_id_ = 1;
  std::uint64_t records_seen_ = 0;
};

}  // namespace bifrost::engine

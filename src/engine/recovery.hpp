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
//    records (tracker state serialized to JSON) — replay then restarts
//    from the last snapshot instead of record zero, keeping recovery
//    O(recent) regardless of journal age.
//
// A snapshot's size follows live work, not engine age: a strategy that
// reached a terminal state is written as a retired summary (exactly
// what Engine::status() reports about it) without its definition or
// resume progress. Its definition stays only while a journaled apply
// intent names it, because reconcile() finds the intent's ServiceDef
// there — a set bounded by services x regions.
#pragma once

#include <cstdint>
#include <map>
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
    /// Empty for a retired strategy loaded from a snapshot summary that
    /// no apply intent names.
    core::StrategyDef def;
    std::string name;
    bool terminal = false;  ///< finished or aborted; nothing to resume
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
  /// state; kRecovered/kReconciled markers are ignored.
  util::Result<void> apply(const JournalRecord& record);

  /// Replays a full record sequence (a freshly read journal). Fast
  /// path: scans for the last kSnapshot and replays from there.
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

  /// Snapshot round-trip (the payload of kSnapshot records). Loading
  /// also accepts snapshots that carry every strategy in full.
  [[nodiscard]] json::Value to_snapshot() const;
  util::Result<void> load_snapshot(const json::Value& snapshot);

 private:
  util::Result<void> apply_impl(const JournalRecord& record);

  std::map<std::string, Strategy> strategies_;
  std::map<std::string, std::uint64_t> epochs_;
  std::map<std::string, Intent> intents_;
  std::map<std::string, Intent> fleet_intents_;   ///< service -> unscoped
  std::map<std::string, Intent> region_intents_;  ///< "service/region"
  std::uint64_t next_id_ = 1;
  std::uint64_t records_seen_ = 0;
};

}  // namespace bifrost::engine

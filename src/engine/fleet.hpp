// Federation layer between the strategy interpreter and the proxies of
// a multi-region service. A ServiceDef that declares `regions` is
// fronted by N proxies; one logical config push fans out to every
// targeted region in canary order, each region retried independently
// (the ResilientProxyController keys its per-region retry/breaker state
// by "service/region"), and the push as a whole succeeds when at least
// the service's quorum of regions acked it. Regions that missed the
// push are `region_degraded` until a later push or an engine
// reconcile/resync converges them back to the fleet epoch.
//
// Concurrency and determinism: without an executor the fan-out is
// sequential in canary order. With one (the engine's check executor),
// every fresh region but the canary-first one is offered to it as a
// job; the pushing thread applies the canary-first region itself, then
// walks the rest in canary order, applying inline any job no worker has
// started yet (one atomic claim per job) and waiting only for jobs a
// worker already runs. That claim-or-run join never waits on a job
// nobody runs, so it cannot deadlock on a saturated pool, when the
// caller is itself a pool worker, or on a simulated executor: its
// worker lanes start jobs only after the pushing callback returns, so
// the push is sequential there (each claimed offer still costs its lane
// one no-op dispatch). Outcomes and on_ack still come on the pushing
// thread, strictly in canary order, so journaled records and emitted
// events are identical either way — only their timestamps can differ.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "engine/interfaces.hpp"
#include "runtime/executor.hpp"

namespace bifrost::engine {

class Fleet {
 public:
  /// Verdict of one region of a fleet push.
  struct RegionOutcome {
    const core::RegionDef* region = nullptr;
    bool ok = false;
    std::string error;
    /// True when the verdict came from the journal (resume) instead of
    /// a fresh apply — on_ack is not called for these.
    bool skipped = false;
  };

  struct PushResult {
    std::vector<RegionOutcome> outcomes;  ///< canary order
    int acked = 0;     ///< regions that accepted the config
    int required = 0;  ///< effective quorum for this push
    [[nodiscard]] bool quorum_met() const { return acked >= required; }
    /// Comma-separated names of regions that missed the push.
    [[nodiscard]] std::string failed_regions() const;
  };

  /// Journaled verdict for a region pushed before a crash: nullopt =
  /// not yet acked (push it), otherwise the acked ok/error verdict.
  using SkipFn = std::function<std::optional<bool>(const std::string& region)>;
  /// Runs after each fresh region outcome is known, in canary order —
  /// the execution journals its kRegionAck record here, so the WAL
  /// captures every region boundary a crash can land between.
  using AckFn = std::function<void(const RegionOutcome&)>;

  /// `executor` (not owned; null = sequential) runs region applies
  /// concurrently, so `proxies.apply_region` must then be thread-safe.
  Fleet(ProxyController& proxies, runtime::Executor* executor)
      : proxies_(proxies), executor_(executor) {}

  /// The regions a push scoped to `scope` targets, in canary order.
  /// An empty scope targets the whole fleet.
  [[nodiscard]] static std::vector<const core::RegionDef*> targets(
      const core::ServiceDef& service, const std::vector<std::string>& scope);

  /// Effective quorum of a push covering `targeted` regions: the
  /// service quorum for fleet-wide pushes, every targeted region for
  /// pushes scoped below the quorum (a canary-only push must land).
  [[nodiscard]] static int required_acks(const core::ServiceDef& service,
                                         std::size_t targeted);

  /// Fans `config` out to the targeted regions of `service`.
  PushResult push(const core::ServiceDef& service,
                  const proxy::ProxyConfig& config,
                  const std::vector<std::string>& scope, const SkipFn& skip,
                  const AckFn& on_ack);

 private:
  ProxyController& proxies_;
  runtime::Executor* executor_;
};

}  // namespace bifrost::engine

#include "engine/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace bifrost::engine {
namespace {

/// One region apply offered to the executor. Whoever claims it first —
/// a worker, or the pushing thread walking canary order — runs it, so
/// the pushing thread only ever waits on an apply that already started.
struct Offer {
  std::atomic<bool> claimed{false};
  std::atomic<bool> done{false};
  util::Result<void> applied;
};

}  // namespace

std::string Fleet::PushResult::failed_regions() const {
  std::string out;
  for (const RegionOutcome& outcome : outcomes) {
    if (!outcome.ok) out += (out.empty() ? "" : ",") + outcome.region->name;
  }
  return out;
}

std::vector<const core::RegionDef*> Fleet::targets(
    const core::ServiceDef& service, const std::vector<std::string>& scope) {
  std::vector<const core::RegionDef*> ordered =
      service.regions_in_canary_order();
  if (scope.empty()) return ordered;
  std::erase_if(ordered, [&](const core::RegionDef* region) {
    return std::find(scope.begin(), scope.end(), region->name) == scope.end();
  });
  return ordered;
}

int Fleet::required_acks(const core::ServiceDef& service,
                         std::size_t targeted) {
  return std::min(service.quorum_size(), static_cast<int>(targeted));
}

Fleet::PushResult Fleet::push(const core::ServiceDef& service,
                              const proxy::ProxyConfig& config,
                              const std::vector<std::string>& scope,
                              const SkipFn& skip, const AckFn& on_ack) {
  PushResult result;
  const std::vector<const core::RegionDef*> regions = targets(service, scope);
  result.required = required_acks(service, regions.size());

  // Seed the outcome list in canary order; journaled verdicts (resume
  // re-entering a half-pushed state) short-circuit their region.
  std::vector<std::size_t> fresh;
  for (const core::RegionDef* region : regions) {
    RegionOutcome& outcome = result.outcomes.emplace_back();
    outcome.region = region;
    const auto verdict = skip ? skip(region->name) : std::optional<bool>();
    if (!verdict) fresh.push_back(result.outcomes.size() - 1);
    outcome.skipped = verdict.has_value();
    outcome.ok = verdict.value_or(false);
    if (outcome.skipped && !outcome.ok) outcome.error = "journaled failure";
    if (outcome.ok) ++result.acked;
  }

  // Offer every fresh region but the canary-first one to the executor.
  // The caller applies that one itself, then walks the rest in canary
  // order, running any offer no worker has started (claim-or-run).
  std::vector<std::shared_ptr<Offer>> offers(fresh.size());
  for (std::size_t i = 1; executor_ != nullptr && i < fresh.size(); ++i) {
    const core::RegionDef* region = result.outcomes[fresh[i]].region;
    executor_->submit([this, &service, &config, region,
                       offer = offers[i] = std::make_shared<Offer>()] {
      if (offer->claimed.exchange(true)) return;
      offer->applied = proxies_.apply_region(service, *region, config);
      offer->done.store(true);
      offer->done.notify_one();
    });
  }
  try {
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      RegionOutcome& outcome = result.outcomes[fresh[i]];
      const std::shared_ptr<Offer> offer = std::move(offers[i]);
      const bool started = offer != nullptr && offer->claimed.exchange(true);
      if (started) offer->done.wait(false);
      const util::Result<void> applied =
          started ? std::move(offer->applied)
                  : proxies_.apply_region(service, *outcome.region, config);
      outcome.ok = applied.ok();
      outcome.error = applied.error_message();
      if (on_ack) on_ack(outcome);
      if (outcome.ok) ++result.acked;
    }
  } catch (...) {  // no offer may run late or outlive service and config
    for (const auto& offer : offers) {
      if (offer && offer->claimed.exchange(true)) offer->done.wait(false);
    }
    throw;
  }
  return result;
}

}  // namespace bifrost::engine

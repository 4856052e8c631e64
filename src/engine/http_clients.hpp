// Production implementations of the engine-side interfaces, speaking
// HTTP to the metrics provider (Prometheus stand-in) and to the Bifrost
// proxies' admin APIs.
#pragma once

#include "engine/interfaces.hpp"
#include "http/client.hpp"

namespace bifrost::engine {

/// Queries GET /api/v1/query?query=... on the provider endpoint.
class HttpMetricsClient final : public MetricsClient {
 public:
  HttpMetricsClient() = default;

  util::Result<std::optional<double>> query(
      const core::ProviderConfig& provider, const std::string& query) override;

 private:
  http::HttpClient client_;
};

/// Pushes routing tables via PUT /admin/config on each proxy; reads
/// them (plus the persisted config epoch) back via GET /admin/config
/// for crash-recovery reconciliation. A federated service's region
/// calls target that region's own proxy admin endpoint.
class HttpProxyController final : public ProxyController {
 public:
  HttpProxyController() = default;

  util::Result<void> apply(const core::ServiceDef& service,
                           const proxy::ProxyConfig& config) override;
  util::Result<ProxyStateView> fetch(const core::ServiceDef& service) override;
  util::Result<void> apply_region(const core::ServiceDef& service,
                                  const core::RegionDef& region,
                                  const proxy::ProxyConfig& config) override;
  util::Result<ProxyStateView> fetch_region(
      const core::ServiceDef& service, const core::RegionDef& region) override;

 private:
  /// `owner` names the service (or service/region) in error messages.
  util::Result<void> put_config(const std::string& owner,
                                const std::string& host, std::uint16_t port,
                                const proxy::ProxyConfig& config);
  util::Result<ProxyStateView> get_config(const std::string& owner,
                                          const std::string& host,
                                          std::uint16_t port);

  http::HttpClient client_;
};

}  // namespace bifrost::engine

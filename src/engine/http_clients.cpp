#include "engine/http_clients.hpp"

#include "http/url.hpp"
#include "json/json.hpp"

namespace bifrost::engine {

util::Result<std::optional<double>> HttpMetricsClient::query(
    const core::ProviderConfig& provider, const std::string& query) {
  using R = util::Result<std::optional<double>>;
  const std::string url = "http://" + provider.host + ":" +
                          std::to_string(provider.port) +
                          "/api/v1/query?query=" + http::url_encode(query);
  auto response = client_.get(url);
  if (!response.ok()) return R::error(response.error_message());
  if (response.value().status != 200) {
    return R::error("provider returned HTTP " +
                    std::to_string(response.value().status));
  }
  auto doc = json::parse(response.value().body);
  if (!doc.ok()) return R::error("provider JSON: " + doc.error_message());
  const json::Value* data = doc.value().find("data");
  if (data == nullptr || !data->is_object()) {
    return R::error("provider response missing data object");
  }
  if (data->get_number("seriesMatched", 0.0) <= 0.0) {
    return std::optional<double>{};  // no data
  }
  return std::optional<double>{data->get_number("value", 0.0)};
}

util::Result<void> HttpProxyController::apply(
    const core::ServiceDef& service, const proxy::ProxyConfig& config) {
  return put_config("service '" + service.name + "'", service.proxy_admin_host,
                    service.proxy_admin_port, config);
}

util::Result<ProxyStateView> HttpProxyController::fetch(
    const core::ServiceDef& service) {
  return get_config("service '" + service.name + "'", service.proxy_admin_host,
                    service.proxy_admin_port);
}

util::Result<void> HttpProxyController::apply_region(
    const core::ServiceDef& service, const core::RegionDef& region,
    const proxy::ProxyConfig& config) {
  return put_config("region '" + service.name + "/" + region.name + "'",
                    region.proxy_admin_host, region.proxy_admin_port, config);
}

util::Result<ProxyStateView> HttpProxyController::fetch_region(
    const core::ServiceDef& service, const core::RegionDef& region) {
  return get_config("region '" + service.name + "/" + region.name + "'",
                    region.proxy_admin_host, region.proxy_admin_port);
}

util::Result<void> HttpProxyController::put_config(
    const std::string& owner, const std::string& host, std::uint16_t port,
    const proxy::ProxyConfig& config) {
  using R = util::Result<void>;
  if (host.empty() || port == 0) {
    return R::error(owner + " has no proxy admin endpoint");
  }
  const std::string url =
      "http://" + host + ":" + std::to_string(port) + "/admin/config";
  auto response =
      client_.put(url, config.to_json().dump(), "application/json");
  if (!response.ok()) return R::error(response.error_message());
  if (response.value().status != 200) {
    return R::error("proxy admin returned HTTP " +
                    std::to_string(response.value().status) + ": " +
                    response.value().body);
  }
  return {};
}

util::Result<ProxyStateView> HttpProxyController::get_config(
    const std::string& owner, const std::string& host, std::uint16_t port) {
  using R = util::Result<ProxyStateView>;
  if (host.empty() || port == 0) {
    return R::error(owner + " has no proxy admin endpoint");
  }
  const std::string url =
      "http://" + host + ":" + std::to_string(port) + "/admin/config";
  auto response = client_.get(url);
  if (!response.ok()) return R::error(response.error_message());
  if (response.value().status != 200) {
    return R::error("proxy admin returned HTTP " +
                    std::to_string(response.value().status) + ": " +
                    response.value().body);
  }
  auto doc = json::parse(response.value().body);
  if (!doc.ok()) return R::error("proxy config JSON: " + doc.error_message());
  auto config = proxy::ProxyConfig::from_json(doc.value());
  if (!config.ok()) return R::error("proxy config: " + config.error_message());
  ProxyStateView view;
  view.config = std::move(config).value();
  view.epoch = view.config.epoch;
  return view;
}

}  // namespace bifrost::engine

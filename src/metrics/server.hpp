#pragma once

#include <cstdint>
#include <memory>

#include "http/server.hpp"
#include "metrics/timeseries.hpp"

namespace bifrost::metrics {

/// HTTP face of the metrics provider — the Prometheus API stand-in the
/// Bifrost engine queries. Endpoints:
///   GET  /api/v1/query?query=<expr>[&time=<seconds>]
///        -> {"status":"success","data":{"value":..,"seriesMatched":..}}
///   POST /api/v1/ingest   body: {"name":..,"labels":{..},"value":..,
///        "time":..}  (push-style ingestion used by tests/loadgen)
///   GET  /healthz
/// Without `time`, a query is evaluated at TimeSeriesStore::newest_time().
/// Handlers run inline on the reactor threads (no handler pool): each is a
/// parse, a short store lock and a small JSON dump.
class MetricsServer {
 public:
  MetricsServer(TimeSeriesStore& store, std::uint16_t port = 0);
  ~MetricsServer();

  void start();
  void stop();
  [[nodiscard]] std::uint16_t port() const;

 private:
  http::Response handle(const http::Request& request);

  TimeSeriesStore& store_;
  std::unique_ptr<http::HttpServer> server_;
};

}  // namespace bifrost::metrics

#include "metrics/server.hpp"

#include <chrono>

#include "http/url.hpp"
#include "json/json.hpp"
#include "metrics/query.hpp"
#include "util/strings.hpp"

namespace bifrost::metrics {

MetricsServer::MetricsServer(TimeSeriesStore& store, std::uint16_t port)
    : store_(store) {
  http::HttpServer::Options options;
  options.port = port;
  // Every endpoint is a parse, a short store lock and a small dump: cheaper
  // than the two thread handoffs of the handler pool.
  options.inline_handlers = true;
  server_ = std::make_unique<http::HttpServer>(
      options, [this](const http::Request& req) { return handle(req); });
}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::start() { server_->start(); }
void MetricsServer::stop() { server_->stop(); }
std::uint16_t MetricsServer::port() const { return server_->port(); }

http::Response MetricsServer::handle(const http::Request& request) {
  const std::string path = request.path();
  if (path == "/healthz") return http::Response::text(200, "ok\n");

  if (path == "/api/v1/query" && request.method == "GET") {
    const auto query_text = request.query_param("query");
    if (!query_text) {
      return http::Response::bad_request("missing query parameter");
    }
    auto expr = parse_expr(*query_text);
    if (!expr.ok()) {
      return http::Response::json(
          400, json::Value(json::Object{{"status", "error"},
                                        {"error", expr.error_message()}})
                   .dump());
    }
    double at_time;
    if (const auto t = request.query_param("time");
        t && util::parse_double(*t)) {
      at_time = *util::parse_double(*t);
    } else {
      // Default: "now" on the wall clock shared with producers' schedulers
      // is unknowable here, so use the newest sample time in the store.
      at_time = store_.newest_time();
    }
    const QueryResult result = evaluate(store_, expr.value(), at_time);
    return http::Response::json(
        200,
        json::Value(
            json::Object{
                {"status", "success"},
                {"data", json::Object{
                             {"value", result.value},
                             {"seriesMatched", result.series_matched},
                             {"time", at_time}}}})
            .dump());
  }

  if (path == "/api/v1/ingest" && request.method == "POST") {
    auto body = json::parse(request.body);
    if (!body.ok()) return http::Response::bad_request(body.error_message());
    const json::Value& doc = body.value();
    const std::string name = doc.get_string("name");
    if (name.empty()) {
      return http::Response::bad_request("ingest needs a metric name");
    }
    Labels labels;
    if (const json::Value* l = doc.find("labels");
        l != nullptr && l->is_object()) {
      for (const auto& [k, v] : l->as_object()) {
        if (v.is_string()) labels[k] = v.as_string();
      }
    }
    store_.record(name, labels, doc.get_number("time", 0.0),
                  doc.get_number("value", 0.0));
    return http::Response::json(200, R"({"status":"success"})");
  }

  return http::Response::not_found();
}

}  // namespace bifrost::metrics

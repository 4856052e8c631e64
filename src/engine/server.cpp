#include "engine/server.hpp"

#include <chrono>

#include "dsl/dsl.hpp"
#include "engine/dashboard_html.hpp"
#include "http/router.hpp"
#include "util/strings.hpp"

namespace bifrost::engine {
namespace {

const char* status_name(ExecutionStatus status) {
  switch (status) {
    case ExecutionStatus::kPending:
      return "pending";
    case ExecutionStatus::kRunning:
      return "running";
    case ExecutionStatus::kSucceeded:
      return "succeeded";
    case ExecutionStatus::kRolledBack:
      return "rolled_back";
    case ExecutionStatus::kAborted:
      return "aborted";
    case ExecutionStatus::kFailed:
      return "failed";
  }
  return "?";
}

}  // namespace

json::Value snapshot_to_json(const StrategySnapshot& snapshot) {
  json::Array history;
  for (const StateVisit& visit : snapshot.history) {
    history.push_back(json::Object{
        {"state", visit.state},
        {"entered", std::chrono::duration<double>(visit.entered).count()},
        {"exited", std::chrono::duration<double>(visit.exited).count()},
        {"outcome", visit.outcome},
    });
  }
  return json::Object{
      {"id", snapshot.id},
      {"name", snapshot.name},
      {"status", status_name(snapshot.status)},
      {"currentState", snapshot.current_state},
      {"started", snapshot.started_seconds},
      {"finished", snapshot.finished_seconds},
      {"transitions", snapshot.transitions},
      {"checksExecuted", snapshot.checks_executed},
      {"enactmentDelaySeconds", snapshot.enactment_delay_seconds},
      {"history", std::move(history)},
  };
}

json::Value event_to_json(const StatusEvent& event) {
  return json::Object{
      {"seq", event.sequence}, {"time", event.time_seconds},
      {"strategy", event.strategy_id}, {"type", event.type_name()},
      {"state", event.state},  {"check", event.check},
      {"value", event.value},  {"detail", event.detail},
  };
}

EngineServer::EngineServer(Engine& engine, std::uint16_t port)
    : engine_(engine) {
  http::HttpServer::Options options;
  options.port = port;
  options.worker_threads = 8;
  server_ = std::make_unique<http::HttpServer>(
      options, [this](const http::Request& req) { return handle(req); });
}

EngineServer::~EngineServer() { stop(); }

void EngineServer::start() { server_->start(); }
void EngineServer::stop() { server_->stop(); }
std::uint16_t EngineServer::port() const { return server_->port(); }

http::Response EngineServer::handle(const http::Request& request) {
  const std::string path = request.path();
  const std::vector<std::string> segments = http::split_path(path);

  if (path == "/healthz") return http::Response::text(200, "ok\n");

  // Readiness is distinct from liveness: a recovering engine answers
  // /healthz (the process is up) but refuses /readyz until journal
  // replay and proxy reconciliation are complete, so load balancers
  // don't route work to an engine whose proxies may still be stale.
  if (path == "/readyz") {
    return engine_.ready() ? http::Response::text(200, "ready\n")
                           : http::Response::text(503, "recovering\n");
  }

  if (path == "/" && request.method == "GET") {
    http::Response page;
    page.headers.set("Content-Type", "text/html; charset=utf-8");
    page.body = kDashboardHtml;
    return page;
  }

  if (path == "/metrics" && request.method == "GET") {
    // Engine self-instrumentation in the exposition format, so the
    // metrics provider can scrape the engine like any other component.
    std::size_t running = 0;
    std::size_t finished = 0;
    std::uint64_t checks = 0;
    std::uint64_t transitions = 0;
    for (const StrategySnapshot& snapshot : engine_.list()) {
      if (snapshot.status == ExecutionStatus::kRunning ||
          snapshot.status == ExecutionStatus::kPending) {
        ++running;
      } else {
        ++finished;
      }
      checks += snapshot.checks_executed;
      transitions += snapshot.transitions;
    }
    std::string body;
    body += "bifrost_engine_strategies_running " +
            std::to_string(running) + "\n";
    body += "bifrost_engine_strategies_finished " +
            std::to_string(finished) + "\n";
    body += "bifrost_engine_checks_executed_total " +
            std::to_string(checks) + "\n";
    body += "bifrost_engine_transitions_total " +
            std::to_string(transitions) + "\n";
    body += "bifrost_engine_events_total " +
            std::to_string(engine_.last_event_sequence()) + "\n";
    return http::Response::text(200, body);
  }

  if (path == "/strategies" && request.method == "POST") {
    auto def = dsl::compile(request.body);
    if (!def.ok()) {
      return http::Response::json(
          400, json::Value(json::Object{{"error", def.error_message()}})
                   .dump());
    }
    if (request.query_param("dryRun").value_or("0") == "1") {
      const core::StrategyDef& strategy = def.value();
      return http::Response::json(
          200,
          json::Value(json::Object{
              {"status", "valid"},
              {"name", strategy.name},
              {"states", strategy.states.size()},
              {"services", strategy.services.size()},
              {"expectedDurationSeconds",
               std::chrono::duration<double>(strategy.expected_duration())
                   .count()}})
              .dump());
    }
    auto id = engine_.submit(std::move(def).value());
    if (!id.ok()) {
      return http::Response::json(
          422, json::Value(json::Object{{"error", id.error_message()}})
                   .dump());
    }
    return http::Response::json(
        201, json::Value(json::Object{{"id", id.value()}}).dump());
  }

  if (path == "/strategies" && request.method == "GET") {
    json::Array list;
    for (const StrategySnapshot& snapshot : engine_.list()) {
      list.push_back(snapshot_to_json(snapshot));
    }
    return http::Response::json(200, json::Value(std::move(list)).dump());
  }

  if (segments.size() >= 2 && segments[0] == "strategies") {
    const std::string& id = segments[1];
    if (segments.size() == 2 && request.method == "GET") {
      const auto snapshot = engine_.status(id);
      if (!snapshot) return http::Response::not_found();
      return http::Response::json(200, snapshot_to_json(*snapshot).dump());
    }
    if (segments.size() == 3 && segments[2] == "dot" &&
        request.method == "GET") {
      const auto dot = engine_.dot(id);
      if (!dot) return http::Response::not_found();
      return http::Response::text(200, *dot);
    }
    if (segments.size() == 2 && request.method == "DELETE") {
      if (!engine_.abort(id)) return http::Response::not_found();
      return http::Response::json(200, R"({"status":"aborting"})");
    }
  }

  if (path == "/events" && request.method == "GET") {
    std::uint64_t since = 0;
    if (const auto s = request.query_param("since"); s) {
      since = static_cast<std::uint64_t>(
          util::parse_int(*s).value_or(0));
    }
    std::chrono::milliseconds wait{0};
    if (const auto w = request.query_param("wait"); w) {
      wait = std::chrono::milliseconds(util::parse_int(*w).value_or(0));
    }
    wait = std::min(wait, std::chrono::milliseconds(30000));
    const std::string strategy_filter =
        request.query_param("strategy").value_or("");
    json::Array events;
    for (const StatusEvent& event :
         engine_.events_since(since, 1000, wait)) {
      if (!strategy_filter.empty() && event.strategy_id != strategy_filter) {
        continue;
      }
      events.push_back(event_to_json(event));
    }
    return http::Response::json(200, json::Value(std::move(events)).dump());
  }

  return http::Response::not_found();
}

}  // namespace bifrost::engine

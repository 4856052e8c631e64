#include "http/server.hpp"

#include <stdexcept>

#include "http/parser.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace bifrost::http {
namespace {

/// A single request may carry up to kMaxBodyBytes; the reactor's
/// per-connection read bound must admit one whole request plus a little
/// pipeline slack, or a legitimate large upload would park forever
/// under backpressure.
constexpr std::size_t kReactorReadBound =
    kMaxHeaderBytes + kMaxBodyBytes + 8192;

bool wants_close(const Request& request) {
  const auto conn_header = request.headers.get("Connection");
  return (conn_header && util::iequals(*conn_header, "close")) ||
         request.version == "HTTP/1.0";
}

}  // namespace

HttpServer::HttpServer(Options options, Handler handler)
    : options_(options), handler_(std::move(handler)) {
  if (!handler_) throw std::invalid_argument("http server needs a handler");
}

HttpServer::~HttpServer() { stop(); }

Response HttpServer::run_handler(const Request& request) {
  try {
    return handler_(request);
  } catch (const std::exception& e) {
    return Response::text(500, std::string("handler error: ") + e.what());
  }
}

void HttpServer::start() {
  if (running_.exchange(true)) return;
  net::Reactor::Options reactor_options;
  reactor_options.port = options_.port;
  reactor_options.workers = options_.reactor_workers;
  reactor_options.idle_timeout = options_.idle_timeout;
  reactor_options.max_read_buffer = kReactorReadBound;
  reactor_ = std::make_unique<net::Reactor>(
      reactor_options, [this](net::Reactor::ConnId id, std::string& input) {
        return reactor_data(id, input);
      });
  if (!options_.inline_handlers) {
    pool_ = std::make_unique<runtime::ThreadPool>(options_.worker_threads);
  }
  auto started = reactor_->start();
  if (!started.ok()) {
    reactor_.reset();
    if (pool_) pool_->shutdown();
    pool_.reset();
    running_ = false;
    throw std::runtime_error("http server: " + started.error_message());
  }
  port_ = reactor_->port();
}

net::Reactor::Verdict HttpServer::reactor_data(net::Reactor::ConnId id,
                                               std::string& input) {
  while (true) {
    auto parsed = try_parse_request(input);
    if (parsed.status == IncrementalParse::Status::kNeedMore) {
      return net::Reactor::Verdict::kContinue;
    }
    if (parsed.status == IncrementalParse::Status::kError) {
      util::log_debug("http_server", "read failed: ", parsed.error);
      Response err = Response::bad_request(parsed.error);
      err.headers.set("Connection", "close");
      reactor_->send(id, {err.serialize_head(), std::move(err.body)},
                     /*close_after=*/true);
      return net::Reactor::Verdict::kClose;
    }
    input.erase(0, parsed.consumed);
    const bool close = wants_close(parsed.request);

    if (options_.inline_handlers) {
      Response response = run_handler(parsed.request);
      requests_served_.fetch_add(1);
      response.headers.set("Connection", close ? "close" : "keep-alive");
      reactor_->send(id,
                     {response.serialize_head(), std::move(response.body)},
                     close);
      if (close) return net::Reactor::Verdict::kClose;
      continue;  // serve any further pipelined requests
    }

    inflight_.fetch_add(1);
    const bool submitted = pool_->submit(
        [this, id, request = std::move(parsed.request), close]() {
          Response response = run_handler(request);
          requests_served_.fetch_add(1);
          response.headers.set("Connection", close ? "close" : "keep-alive");
          reactor_->complete(
              id, {response.serialize_head(), std::move(response.body)},
              close, [this] {
                inflight_.fetch_sub(1);
                // Empty critical section pairs with the drain wait:
                // either the waiter's predicate sees the decrement or
                // the notify lands after it started waiting.
                { const std::lock_guard<std::mutex> lock(mutex_); }
                drain_cv_.notify_all();
              });
        });
    if (!submitted) {
      // Pool refused (shutting down): answer 503 rather than parking
      // the connection on a job that will never run.
      inflight_.fetch_sub(1);
      util::log_debug("http_server", "worker pool refused connection ", id,
                      " (shutting down)");
      Response busy = Response::text(503, "server shutting down");
      busy.headers.set("Connection", "close");
      reactor_->send(id, {busy.serialize_head(), std::move(busy.body)},
                     /*close_after=*/true);
      return net::Reactor::Verdict::kClose;
    }
    return net::Reactor::Verdict::kSuspend;
  }
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  reactor_->drain();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (options_.drain_timeout.count() > 0 && inflight_.load() > 0) {
      drain_cv_.wait_for(lock, options_.drain_timeout,
                         [&] { return inflight_.load() == 0; });
    }
  }
  // A straggler may be blocked inside its handler on a slow dependency;
  // let the owner cut it loose so the pool join below is bounded.
  if (inflight_.load() > 0 && options_.on_drain_expired) {
    options_.on_drain_expired();
  }
  if (pool_) pool_->shutdown();  // drains: every accepted job completes
  pool_.reset();
  reactor_->stop();
  reactor_.reset();
}

std::size_t HttpServer::open_connections() const {
  return reactor_ ? reactor_->open_connections() : 0;
}

}  // namespace bifrost::http

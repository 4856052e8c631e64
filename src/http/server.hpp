#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "http/message.hpp"
#include "net/reactor.hpp"
#include "runtime/thread_pool.hpp"

namespace bifrost::http {

/// HTTP/1.1 server on an epoll reactor with SO_REUSEPORT
/// worker-per-core accept loops (net::Reactor). Each reactor thread owns
/// its connections outright; request bytes are parsed incrementally on
/// the reactor thread and complete requests are offloaded to the bounded
/// handler pool, whose responses marshal back to the owning reactor for
/// writev assembly. Tens of thousands of idle keep-alive connections
/// cost two buffers each, no thread.
///
/// The handler pool bounds request concurrency, not connection count.
/// Handlers run concurrently; they must be thread-safe, and they may
/// block unless Options::inline_handlers is set.
class HttpServer {
 public:
  using Handler = std::function<Response(const Request&)>;

  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral
    /// Handler pool size: bounds concurrently running handlers, not
    /// connections.
    std::size_t worker_threads = 8;
    /// Reactor threads, each owning one epoll set, one SO_REUSEPORT
    /// accept socket and every connection it accepted. Sized to cores;
    /// connection capacity does not depend on it.
    std::size_t reactor_workers = 2;
    /// Run handlers inline on the reactor thread instead of the pool,
    /// saving the handoff to a pool worker and the marshal-back; no
    /// pool is started. The handler must be CPU-bound and finish in
    /// microseconds, do no I/O, and wait on nothing but short mutexes:
    /// while it runs, every other connection owned by that reactor
    /// worker waits. Two servers run this way:
    /// - metrics::MetricsServer (parse, evaluate under the store lock,
    ///   dump);
    /// - the proxy admin plane (health, config, stats, events, eject/
    ///   recover, sessions, /metrics). Its one allowance is the
    ///   optional epoch-file write-then-rename on a config PUT: one
    ///   short line, not fsynced.
    bool inline_handlers = false;
    /// Idle keep-alive connections are closed after this long.
    std::chrono::milliseconds idle_timeout{60000};
    /// How long stop() waits for in-flight requests to finish before
    /// force-closing their connections (graceful drain). 0 = immediate.
    std::chrono::milliseconds drain_timeout{5000};
    /// Called by stop() when the drain deadline passes with requests
    /// still in flight. Closing the inbound connection does not unblock
    /// a handler that is itself waiting on a slow dependency (e.g. a
    /// proxy's upstream call); this hook lets the owner cut those
    /// dependencies loose so the worker pool can join.
    std::function<void()> on_drain_expired;
  };

  HttpServer(Options options, Handler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and starts accepting. Throws std::runtime_error on bind error.
  void start();

  /// Stops accepting, waits up to Options::drain_timeout for in-flight
  /// requests to complete (idle keep-alive connections are closed
  /// immediately), force-closes stragglers, joins all threads.
  /// Idempotent.
  void stop();

  /// Bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load();
  }

  /// Currently open connections (idle + in flight), for diagnostics.
  [[nodiscard]] std::size_t open_connections() const;

 private:
  net::Reactor::Verdict reactor_data(net::Reactor::ConnId id,
                                     std::string& input);
  [[nodiscard]] Response run_handler(const Request& request);

  Options options_;
  Handler handler_;
  std::uint16_t port_ = 0;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<net::Reactor> reactor_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  /// Requests offloaded to the handler pool and not yet marshalled
  /// back; stop() drains on this.
  std::atomic<std::size_t> inflight_{0};

  /// Guards nothing but the drain wait: stop() waits on drain_cv_ under
  /// it, and each marshalled-back request signals it.
  std::mutex mutex_;
  std::condition_variable drain_cv_;
};

}  // namespace bifrost::http

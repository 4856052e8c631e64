#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "http/message.hpp"
#include "http/parser.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "runtime/thread_pool.hpp"

namespace bifrost::http {

/// HTTP/1.1 server with two interchangeable I/O backends (same handler
/// contract, same drain semantics — Options::backend selects one, the
/// BIFROST_HTTP_BACKEND env var overrides for A/B comparison):
///
///  * kReactor (default): an epoll reactor with SO_REUSEPORT
///    worker-per-core accept loops (net::Reactor). Each reactor thread
///    owns its connections outright; request bytes are parsed
///    incrementally on the reactor thread and complete requests are
///    offloaded to the bounded handler pool, whose responses marshal
///    back to the owning reactor for writev assembly. Tens of thousands
///    of idle keep-alive connections cost two buffers each, no thread.
///  * kThreads (legacy): a poll-based dispatcher thread watches the
///    listener and all idle keep-alive connections and hands readable
///    ones to the worker pool, which does blocking reads/writes until
///    the connection goes idle again.
///
/// In both backends the worker pool bounds request concurrency, not
/// connection count. Handlers run concurrently; they must be
/// thread-safe, and they may block unless Options::inline_handlers is
/// set.
class HttpServer {
 public:
  using Handler = std::function<Response(const Request&)>;

  enum class Backend { kThreads, kReactor };

  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral
    /// I/O backend (see class comment). BIFROST_HTTP_BACKEND=threads|
    /// reactor overrides at start() for A/B benchmarking.
    Backend backend = Backend::kReactor;
    /// Handler pool size (both backends): bounds concurrently running
    /// handlers, not connections.
    std::size_t worker_threads = 8;
    /// Reactor threads, each owning one epoll set, one SO_REUSEPORT
    /// accept socket and every connection it accepted. Sized to cores;
    /// connection capacity does not depend on it.
    std::size_t reactor_workers = 2;
    /// Reactor only: run handlers inline on the reactor thread instead
    /// of the pool, saving the handoff to a pool worker and the
    /// marshal-back. The handler must be CPU-bound and finish in
    /// microseconds, do no I/O, and wait on nothing but short mutexes:
    /// while it runs, every other connection owned by that reactor
    /// worker waits. metrics::MetricsServer (parse, evaluate under the
    /// store lock, dump) runs this way. Ignored by kThreads.
    bool inline_handlers = false;
    std::chrono::milliseconds io_timeout{10000};
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
  struct Connection {
    explicit Connection(net::TcpStream s) : stream(std::move(s)) {}
    net::TcpStream stream;
    ReadBuffer buffer;
    std::chrono::steady_clock::time_point last_active =
        std::chrono::steady_clock::now();
  };

  // Legacy (kThreads) backend.
  void dispatch_loop();
  void serve_connection(std::uint64_t id);
  void return_to_idle(std::uint64_t id);
  void close_connection(std::uint64_t id);
  void wake_dispatcher();

  // Reactor (kReactor) backend.
  void start_reactor();
  void stop_reactor();
  net::Reactor::Verdict reactor_data(net::Reactor::ConnId id,
                                     std::string& input);
  [[nodiscard]] Response run_handler(const Request& request);

  Options options_;
  Handler handler_;
  Backend backend_ = Backend::kReactor;
  net::TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread dispatch_thread_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<net::Reactor> reactor_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  /// Requests offloaded to the handler pool and not yet marshalled
  /// back; stop() drains on this.
  std::atomic<std::size_t> inflight_{0};

  // Connection registry. `idle` marks connections owned by the
  // dispatcher (watched by poll); busy connections are owned by a
  // worker. Guarded by mutex_.
  mutable std::mutex mutex_;
  /// Signalled whenever a connection leaves the busy state (request
  /// finished or connection closed); stop() waits on it while draining.
  std::condition_variable drain_cv_;
  std::map<std::uint64_t, std::shared_ptr<Connection>> connections_;
  std::map<std::uint64_t, bool> idle_;
  std::uint64_t next_id_ = 1;

  int wake_pipe_[2] = {-1, -1};  // self-pipe to interrupt poll()
};

}  // namespace bifrost::http

// The Bifrost proxy (paper §4.1/§4.2): one lightweight reverse proxy per
// service, configured by the engine at state transitions. Implements
//  * percentage traffic splits (cookie mode: proxy decides, re-identifies
//    clients via a Set-Cookie UUID when sticky sessions are on),
//  * header-based routing (an upstream component injected the group
//    header; the proxy only matches it),
//  * dark-launch traffic duplication (shadow requests are fired
//    asynchronously; their responses are discarded),
// and exposes an admin API plus Prometheus-style /metrics.
//
// The data plane is built to scale with cores: the routing table is a
// versioned immutable snapshot (readers revalidate a thread-local cache
// against an atomic version counter), sticky sessions live in a sharded
// LRU table, every worker thread owns its RNG, and latency is recorded
// into lock-free histograms — no global mutex on the request path.
//
// Overload protection (proxy/overload.hpp) keeps live traffic healthy
// while a strategy routes users at possibly-broken versions: per-version
// admission gates reject excess live requests with 503 + Retry-After,
// shadow duplicates run through a bounded drop-oldest queue and are shed
// first near the limit, and a passive EWMA health tracker ejects sick
// backends (traffic reroutes to default_version; an active probe gates
// re-admission). Ejections, recoveries and sheds surface on
// GET /admin/events and flow into the engine's status event stream.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "http/client.hpp"
#include "http/server.hpp"
#include "metrics/registry.hpp"
#include "proxy/config.hpp"
#include "proxy/overload.hpp"
#include "proxy/session_table.hpp"
#include "util/rng.hpp"

namespace bifrost::proxy {

/// Name of the sticky-session cookie the proxy sets (RFC-compliant UUID
/// value, per paper §4.2.2).
inline constexpr const char* kStickyCookie = "bifrost.sid";
/// Header stamped onto responses naming the backend version that served
/// the request (observability / test hook).
inline constexpr const char* kVersionHeader = "X-Bifrost-Version";
/// Header stamped onto duplicated (shadow) requests.
inline constexpr const char* kShadowHeader = "X-Bifrost-Shadow";
/// Per-version data-path latency histogram (ms); exposed on /metrics as
/// _bucket/_sum/_count series and summarized in /admin/stats.
inline constexpr const char* kLatencyMetric =
    "bifrost_proxy_request_latency_ms";

class BifrostProxy {
 public:
  struct Options {
    std::uint16_t data_port = 0;   ///< user traffic (0 = ephemeral)
    std::uint16_t admin_port = 0;  ///< engine control plane
    std::size_t worker_threads = 16;
    std::size_t shadow_threads = 8;
    std::chrono::milliseconds backend_timeout{10000};
    /// Artificial per-request processing cost. Used by the evaluation
    /// harness to emulate the paper's Node.js prototype overhead (~8 ms
    /// per hop); 0 for the raw C++ data path.
    std::chrono::microseconds emulation_cost{0};
    std::uint64_t rng_seed = 0;  ///< 0 = nondeterministic
    /// Maximum sticky-session table entries (per-shard LRU eviction).
    std::size_t max_sticky_sessions = 1 << 20;
    /// Sticky-session table shards (rounded up to a power of two).
    /// More shards = less lock contention between worker threads.
    std::size_t session_shards = 16;
    /// How long stop() lets in-flight data-plane requests finish before
    /// force-closing their connections. 0 = immediate.
    std::chrono::milliseconds drain_timeout{5000};
    /// Path where the highest applied config epoch is persisted (and
    /// reloaded on construction), so the duplicate-epoch guard survives
    /// proxy restarts. Empty = in-memory only.
    std::string epoch_file;
    /// In-process subscriber for overload/health events
    /// (backend_ejected / backend_recovered / load_shed). The engine's
    /// HTTP event pump uses GET /admin/events instead; this hook is for
    /// embedded deployments and tests. Called from data-plane and probe
    /// threads — must be cheap and thread-safe.
    OverloadController::Listener health_listener;
    /// Chaos-injection hook: called once per live request with the
    /// backend version about to serve it; a positive return delays the
    /// forward by that long (the request still succeeds). This is how
    /// a chaos harness drives a sim::FaultPlan kLatency schedule
    /// against a REAL proxy instead of the simulator. Called from
    /// worker threads — must be cheap and thread-safe. Null = off.
    std::function<std::chrono::milliseconds(const std::string& version)>
        latency_injector;
  };

  /// `initial` must pass ProxyConfig::validate(); it is typically a
  /// single stable backend at 100%.
  BifrostProxy(Options options, ProxyConfig initial);
  ~BifrostProxy();

  BifrostProxy(const BifrostProxy&) = delete;
  BifrostProxy& operator=(const BifrostProxy&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint16_t data_port() const;
  [[nodiscard]] std::uint16_t admin_port() const;

  /// Atomically replaces the routing table (also reachable via
  /// PUT /admin/config on the admin server). Latency histograms of
  /// versions that left the table are pruned.
  util::Result<void> apply(ProxyConfig config);

  /// Like apply(), but reports whether the config was installed:
  /// `false` means its epoch was <= the highest epoch already applied,
  /// so the call was deduplicated into a no-op success (the engine
  /// re-issues journaled intents after a crash; this is what makes
  /// those re-issues idempotent). Epoch 0 configs are always installed.
  util::Result<bool> apply_versioned(ProxyConfig config);

  [[nodiscard]] ProxyConfig current_config() const;

  /// Highest non-zero config epoch ever applied (survives restarts when
  /// Options::epoch_file is set).
  [[nodiscard]] std::uint64_t applied_epoch() const {
    return applied_epoch_.load();
  }
  [[nodiscard]] std::uint64_t duplicate_epochs() const {
    return duplicate_epochs_.load();
  }

  /// Per-version request counts (forwarded, not shadow).
  [[nodiscard]] std::uint64_t requests_for(const std::string& version) const;
  [[nodiscard]] std::uint64_t shadow_requests() const {
    return shadow_requests_.load();
  }
  [[nodiscard]] std::uint64_t backend_errors() const {
    return backend_errors_.load();
  }
  /// Requests delayed by Options::latency_injector.
  [[nodiscard]] std::uint64_t injected_delays() const {
    return injected_delays_.load();
  }
  [[nodiscard]] std::size_t sticky_sessions() const;

  // --- Overload protection / backend health ---------------------------

  /// Full request copies made for shadow dispatch. The regression tests
  /// assert copies == dispatches: a shadow skipped by the bernoulli
  /// draw or shed by overload protection must never have paid the copy.
  [[nodiscard]] std::uint64_t shadow_copies() const {
    return shadow_copies_.load();
  }
  /// Shadow duplicates shed (near-limit or queue drop-oldest).
  [[nodiscard]] std::uint64_t shadows_shed() const {
    return overload_.shadows_shed();
  }
  /// Live requests rejected with 503 by the admission gate.
  [[nodiscard]] std::uint64_t rejected_for(const std::string& version) const;
  /// Backend calls that hit their deadline (reported distinctly from
  /// 5xx and other transport errors in /admin/stats).
  [[nodiscard]] std::uint64_t timeouts_for(const std::string& version) const;
  [[nodiscard]] bool ejected(const std::string& version) const;

  /// Operator/test override of the passive health verdict (also on the
  /// admin API as POST /admin/eject and /admin/recover). Returns false
  /// for unknown versions or when already in the requested state.
  bool force_eject(const std::string& version);
  bool force_recover(const std::string& version);

  /// Health events with sequence > since, oldest first (what
  /// GET /admin/events?since=N serves).
  [[nodiscard]] std::vector<HealthEvent> health_events_since(
      std::uint64_t since) const {
    return overload_.events_since(since);
  }

  /// Recent per-version latency summary (ms) from the proxy's own
  /// vantage point — what /admin/stats reports. Percentiles are
  /// histogram estimates (log-scaled buckets, ~9% relative error).
  struct LatencyStats {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  [[nodiscard]] LatencyStats latency_for(const std::string& version) const;

  /// Routing decision as a pure function (exposed for tests/benches):
  /// which backend serves a request given the session's pinned version
  /// (nullopt when the session is unknown). Returns the index into
  /// config.backends.
  static std::size_t decide_backend(
      const ProxyConfig& config, const http::Request& request,
      const std::optional<std::string>& sticky_version, util::Rng& rng);

 private:
  /// Per-backend-version hot-path instrumentation, resolved once per
  /// apply() so handle_data never takes the registry lock.
  struct PerVersion {
    metrics::Counter* requests = nullptr;
    metrics::Counter* request_time_ms = nullptr;
    std::shared_ptr<metrics::Histogram> latency;
    /// Admission gate + health tracker + error taxonomy; owned by
    /// overload_'s registry so state survives config applies.
    std::shared_ptr<VersionControl> control;
    /// Resolved backend deadline (per-version override or the proxy
    /// default).
    std::chrono::milliseconds timeout{0};
  };
  /// Immutable routing snapshot; swapped by apply() under state_mutex_
  /// and published through state_version_.
  struct RouteState {
    ProxyConfig config;
    std::unordered_map<std::string, PerVersion> by_version;
  };

  http::Response handle_data(const http::Request& request);
  http::Response handle_admin(const http::Request& request);
  /// Epoch-file round trip (best-effort: a proxy that cannot persist
  /// still enforces the guard in memory for its lifetime).
  void persist_epoch(std::uint64_t epoch) const;
  [[nodiscard]] static std::uint64_t load_epoch(const std::string& path);
  void fire_shadows(const RouteState& state, const std::string& version,
                    const http::Request& request);
  /// Active re-admission probes for ejected versions (GET probe_path
  /// once the backoff window has passed, paced by probe_interval).
  void probe_loop();

  /// Current snapshot. Steady-state cost is one uncontended atomic load
  /// (a thread-local cache is revalidated against state_version_);
  /// state_mutex_ is only taken on the first call after an apply().
  [[nodiscard]] std::shared_ptr<const RouteState> route_state() const;
  std::shared_ptr<const RouteState> build_state(ProxyConfig config);
  /// This worker thread's RNG, seeded from rng_seed + a per-thread
  /// stream index on first use.
  util::Rng& thread_rng() const;

  Options options_;
  /// Process-unique id keying thread-local caches (never reused, unlike
  /// `this`, so a recycled address cannot alias a stale cache entry).
  const std::uint64_t instance_id_;
  mutable std::mutex state_mutex_;  ///< guards state_
  std::shared_ptr<const RouteState> state_;
  std::atomic<std::uint64_t> state_version_{0};
  SessionTable sessions_;
  mutable std::atomic<std::uint64_t> rng_streams_{0};

  http::HttpClient backend_client_;
  http::HttpClient shadow_client_;
  http::HttpClient probe_client_;
  std::unique_ptr<ShadowQueue> shadow_queue_;
  std::unique_ptr<http::HttpServer> data_server_;
  std::unique_ptr<http::HttpServer> admin_server_;

  mutable OverloadController overload_;
  std::thread probe_thread_;
  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
  bool probe_stop_ = false;

  mutable metrics::Registry registry_;
  std::atomic<std::uint64_t> shadow_requests_{0};
  std::atomic<std::uint64_t> shadow_copies_{0};
  std::atomic<std::uint64_t> backend_errors_{0};
  std::atomic<std::uint64_t> injected_delays_{0};
  std::atomic<std::uint64_t> config_updates_{0};
  std::atomic<std::uint64_t> applied_epoch_{0};
  std::atomic<std::uint64_t> duplicate_epochs_{0};
  std::atomic<bool> draining_{false};
};

}  // namespace bifrost::proxy

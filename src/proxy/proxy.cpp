#include "proxy/proxy.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/uuid.hpp"

namespace bifrost::proxy {
namespace {

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

http::HttpClient::Options backend_client_options(
    std::chrono::milliseconds io_timeout) {
  http::HttpClient::Options options;
  if (io_timeout.count() > 0) options.io_timeout = io_timeout;
  return options;
}

http::HttpClient::Options probe_client_options() {
  // Probes answer one question — is the backend reachable and healthy —
  // so they get tight deadlines independent of the data-path timeout.
  http::HttpClient::Options options;
  options.connect_timeout = std::chrono::milliseconds(500);
  options.io_timeout = std::chrono::milliseconds(1000);
  return options;
}

/// The transport layer reports deadline hits as "connect timeout" /
/// "read timeout" / "write timeout" (net/tcp.cpp); everything else is a
/// refused/reset/parse-style transport failure.
bool is_timeout_error(const std::string& message) {
  return message.find("timeout") != std::string::npos;
}

}  // namespace

BifrostProxy::BifrostProxy(Options options, ProxyConfig initial)
    : options_(options),
      instance_id_(next_instance_id()),
      sessions_(options.session_shards, options.max_sticky_sessions),
      backend_client_(backend_client_options(options.backend_timeout)),
      probe_client_(probe_client_options()),
      overload_(options.health_listener) {
  if (auto v = initial.validate(); !v) {
    throw std::invalid_argument("proxy initial config: " + v.error_message());
  }
  if (!options_.epoch_file.empty()) {
    applied_epoch_.store(load_epoch(options_.epoch_file));
  }
  if (initial.epoch > applied_epoch_.load()) {
    applied_epoch_.store(initial.epoch);
  }
  // The shadow queue's capacity is fixed for the proxy's lifetime (the
  // initial config's overload block, or the policy default).
  const std::size_t shadow_capacity =
      static_cast<std::size_t>(std::max(1, initial.overload.shadow_queue));
  state_ = build_state(std::move(initial));
  state_version_.store(1, std::memory_order_release);

  http::HttpServer::Options data_options;
  data_options.port = options_.data_port;
  data_options.worker_threads = options_.worker_threads;
  data_options.drain_timeout = options_.drain_timeout;
  // If the drain deadline passes with requests still in flight, the
  // blocked workers are usually waiting on a backend, not on the client
  // connection — cut the upstream calls so stop() stays bounded.
  data_options.on_drain_expired = [this] {
    backend_client_.abort_inflight();
    shadow_client_.abort_inflight();
  };
  data_server_ = std::make_unique<http::HttpServer>(
      data_options,
      [this](const http::Request& req) { return handle_data(req); });

  // Every admin route is CPU-bound and answers in microseconds, so it
  // runs on the reactor thread (see HttpServer::Options::inline_handlers).
  http::HttpServer::Options admin_options;
  admin_options.port = options_.admin_port;
  admin_options.inline_handlers = true;
  admin_server_ = std::make_unique<http::HttpServer>(
      admin_options,
      [this](const http::Request& req) { return handle_admin(req); });

  shadow_queue_ =
      std::make_unique<ShadowQueue>(options_.shadow_threads, shadow_capacity);
}

BifrostProxy::~BifrostProxy() { stop(); }

void BifrostProxy::start() {
  data_server_->start();
  admin_server_->start();
  {
    const std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_stop_ = false;
  }
  probe_thread_ = std::thread([this] { probe_loop(); });
}

void BifrostProxy::stop() {
  draining_.store(true);
  {
    const std::lock_guard<std::mutex> lock(probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  probe_client_.abort_inflight();
  if (probe_thread_.joinable()) probe_thread_.join();
  // Data plane first: its stop() drains in-flight user requests up to
  // Options::drain_timeout. The admin plane stays reachable meanwhile
  // so /admin/health can report the drain.
  data_server_->stop();
  admin_server_->stop();
  if (shadow_queue_) shadow_queue_->shutdown();
}

std::uint16_t BifrostProxy::data_port() const { return data_server_->port(); }
std::uint16_t BifrostProxy::admin_port() const { return admin_server_->port(); }

std::shared_ptr<const BifrostProxy::RouteState> BifrostProxy::build_state(
    ProxyConfig config) {
  auto state = std::make_shared<RouteState>();
  state->config = std::move(config);
  std::vector<std::string> versions;
  for (const BackendTarget& backend : state->config.backends) {
    if (state->by_version.count(backend.version) > 0) continue;
    versions.push_back(backend.version);
    PerVersion per_version;
    per_version.requests = &registry_.counter("bifrost_proxy_requests_total",
                                              {{"version", backend.version}});
    per_version.request_time_ms =
        &registry_.counter("bifrost_proxy_request_time_ms_total",
                           {{"version", backend.version}});
    per_version.latency =
        registry_.histogram(kLatencyMetric, {{"version", backend.version}});
    // Admission gates only bind when the overload block is enabled; the
    // control block itself always exists so the error taxonomy
    // (timeouts vs 5xx vs transport) is tracked regardless.
    const core::OverloadPolicy& policy = state->config.overload;
    const int cap = !policy.enabled ? 0
                    : backend.max_concurrency != 0 ? backend.max_concurrency
                                                   : policy.max_concurrency;
    per_version.control = overload_.adopt(policy, state->config.service,
                                          backend.version, cap);
    per_version.timeout = backend.timeout_ms != 0
                              ? std::chrono::milliseconds(backend.timeout_ms)
                              : options_.backend_timeout;
    state->by_version.emplace(backend.version, std::move(per_version));
  }
  // Retired versions lose their control blocks (a later re-introduction
  // starts with a clean health slate).
  overload_.prune(versions);
  return state;
}

util::Result<void> BifrostProxy::apply(ProxyConfig config) {
  auto applied = apply_versioned(std::move(config));
  if (!applied.ok()) return util::Result<void>::error(applied.error_message());
  return {};
}

util::Result<bool> BifrostProxy::apply_versioned(ProxyConfig config) {
  using R = util::Result<bool>;
  if (auto v = config.validate(); !v) return R::error(v.error_message());
  const std::uint64_t epoch = config.epoch;
  std::shared_ptr<const RouteState> next;
  std::shared_ptr<const RouteState> previous;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    // Duplicate-epoch guard: the engine re-issues journaled apply
    // intents after a crash; a config whose epoch the proxy has already
    // applied (or surpassed) is acknowledged without being installed.
    // Checked before build_state so a deduplicated re-apply cannot
    // touch the overload registry either — an active ejection survives
    // recovery reconciliation untouched.
    if (epoch != 0 && epoch <= applied_epoch_.load()) {
      duplicate_epochs_.fetch_add(1);
      return false;
    }
    if (epoch != 0) applied_epoch_.store(epoch);
    next = build_state(std::move(config));
    previous = std::exchange(state_, next);
    state_version_.fetch_add(1, std::memory_order_release);
  }
  if (epoch != 0) persist_epoch(epoch);
  // Prune latency histograms of versions that left the routing table so
  // long multi-phase runs don't accumulate state for retired versions.
  // In-flight requests still holding `previous` keep their shared_ptr.
  for (const auto& [version, per_version] : previous->by_version) {
    if (next->by_version.count(version) == 0) {
      registry_.remove_histogram(kLatencyMetric, {{"version", version}});
    }
  }
  config_updates_.fetch_add(1);
  return true;
}

void BifrostProxy::persist_epoch(std::uint64_t epoch) const {
  if (options_.epoch_file.empty()) return;
  // Write-then-rename so a crash mid-write can't leave a garbled epoch
  // (a missing or stale file only weakens the guard to "in-memory").
  const std::string tmp = options_.epoch_file + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (!out) return;
  out << epoch << '\n';
  out.flush();
  if (!out) return;
  out.close();
  (void)std::rename(tmp.c_str(), options_.epoch_file.c_str());
}

std::uint64_t BifrostProxy::load_epoch(const std::string& path) {
  std::ifstream in(path);
  std::uint64_t epoch = 0;
  if (in && (in >> epoch)) return epoch;
  return 0;
}

std::shared_ptr<const BifrostProxy::RouteState> BifrostProxy::route_state()
    const {
  // Revalidate this thread's cached snapshot against the version
  // counter. In steady state that is a single uncontended atomic load;
  // state_mutex_ is touched once per thread per apply(). (libstdc++'s
  // atomic<shared_ptr>::load is a CAS on a shared cache line and opaque
  // to ThreadSanitizer — this is both cheaper and instrumentable.)
  struct Cache {
    std::uint64_t owner = 0;
    std::uint64_t version = 0;
    std::shared_ptr<const RouteState> state;
  };
  thread_local Cache cache;
  const std::uint64_t version = state_version_.load(std::memory_order_acquire);
  if (cache.owner != instance_id_ || cache.version != version) {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    cache.state = state_;
    // Re-read under the lock: apply() bumps the counter while holding
    // it, so this pairs the cached pointer with its exact version.
    cache.version = state_version_.load(std::memory_order_relaxed);
    cache.owner = instance_id_;
  }
  return cache.state;
}

ProxyConfig BifrostProxy::current_config() const {
  return route_state()->config;
}

std::uint64_t BifrostProxy::requests_for(const std::string& version) const {
  return static_cast<std::uint64_t>(
      registry_.counter("bifrost_proxy_requests_total", {{"version", version}})
          .value());
}

BifrostProxy::LatencyStats BifrostProxy::latency_for(
    const std::string& version) const {
  const std::shared_ptr<const RouteState> state = route_state();
  const auto it = state->by_version.find(version);
  if (it == state->by_version.end()) return {};
  const metrics::Histogram& histogram = *it->second.latency;
  LatencyStats stats;
  stats.count = histogram.count();
  if (stats.count == 0) return stats;
  stats.mean = histogram.sum() / static_cast<double>(stats.count);
  stats.p50 = histogram.percentile(50.0);
  stats.p95 = histogram.percentile(95.0);
  stats.p99 = histogram.percentile(99.0);
  return stats;
}

std::size_t BifrostProxy::sticky_sessions() const { return sessions_.size(); }

util::Rng& BifrostProxy::thread_rng() const {
  // One slot per thread; re-seeded when the thread first serves a
  // different proxy instance (worker threads are per-server, so this
  // happens at most once per instance in practice).
  struct Slot {
    std::uint64_t owner = 0;
    std::optional<util::Rng> rng;
  };
  thread_local Slot slot;
  if (slot.owner != instance_id_) {
    slot.owner = instance_id_;
    const std::uint64_t stream =
        rng_streams_.fetch_add(1, std::memory_order_relaxed);
    if (options_.rng_seed == 0) {
      slot.rng.emplace();
    } else {
      slot.rng.emplace(util::derive_seed(options_.rng_seed, stream));
    }
  }
  return *slot.rng;
}

std::size_t BifrostProxy::decide_backend(
    const ProxyConfig& config, const http::Request& request,
    const std::optional<std::string>& sticky_version, util::Rng& rng) {
  if (config.backends.size() == 1) return 0;

  // Experiment scoping: requests outside the filtered population go
  // straight to the default version (no split, no stickiness).
  if (!config.filter_header.empty()) {
    const auto value = request.headers.get(config.filter_header);
    if (!value || *value != config.filter_value) {
      for (std::size_t i = 0; i < config.backends.size(); ++i) {
        if (config.backends[i].version == config.default_version) return i;
      }
      return 0;  // unreachable after validate()
    }
  }

  if (config.mode == core::RoutingMode::kHeader) {
    std::optional<std::size_t> catch_all;
    for (std::size_t i = 0; i < config.backends.size(); ++i) {
      const BackendTarget& backend = config.backends[i];
      if (backend.match_value.empty()) {
        if (!catch_all) catch_all = i;
        continue;
      }
      const auto value = request.headers.get(backend.match_header);
      if (value && *value == backend.match_value) return i;
    }
    if (catch_all) return *catch_all;
    // No catch-all backend: unmatched traffic goes to the default
    // version, consistent with the filter-header scoping above.
    for (std::size_t i = 0; i < config.backends.size(); ++i) {
      if (config.backends[i].version == config.default_version) return i;
    }
    return 0;
  }

  // Cookie mode: sticky hit first.
  if (config.sticky && sticky_version) {
    for (std::size_t i = 0; i < config.backends.size(); ++i) {
      if (config.backends[i].version == *sticky_version) return i;
    }
    // Assigned version no longer a backend (state changed): fall
    // through to a fresh decision.
  }

  // Weighted random pick over percentages.
  const double roll = rng.uniform() * 100.0;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < config.backends.size(); ++i) {
    cumulative += config.backends[i].percent;
    if (roll < cumulative) return i;
  }
  return config.backends.size() - 1;
}

http::Response BifrostProxy::handle_data(const http::Request& request) {
  const auto started = std::chrono::steady_clock::now();
  const std::shared_ptr<const RouteState> state = route_state();
  const ProxyConfig& config = state->config;

  if (options_.emulation_cost.count() > 0) {
    // Emulates the per-request processing cost of the paper's Node.js
    // prototype so the evaluation harness reproduces its overhead shape.
    std::this_thread::sleep_for(options_.emulation_cost);
  }

  // Session identification (cookie mode).
  std::string session_id;
  bool new_session = false;
  if (config.mode == core::RoutingMode::kCookie && config.sticky) {
    if (const auto cookie = request.cookie(kStickyCookie)) {
      session_id = *cookie;
    } else {
      session_id = util::uuid4();
      new_session = true;
    }
  }

  // Sticky lookup touches only the session's shard; the decision itself
  // runs on thread-local state.
  std::optional<std::string> pinned;
  if (config.sticky && !session_id.empty() && !new_session) {
    pinned = sessions_.touch(session_id);
  }
  std::size_t decided = decide_backend(config, request, pinned, thread_rng());
  if (config.sticky && !session_id.empty() && !pinned) {
    // First request of this session (or its pin was evicted): concurrent
    // first requests race here, so the table picks one winner and every
    // racer routes by it.
    const std::string winner = sessions_.assign_if_absent(
        session_id, config.backends[decided].version);
    pinned = winner;
    for (std::size_t i = 0; i < config.backends.size(); ++i) {
      if (config.backends[i].version == winner) decided = i;
    }
  }

  // Outlier ejection: an ejected version's share reroutes to
  // default_version. The session table keeps the original pin — the
  // remap is temporary and heals back the moment the version recovers.
  // Fails open (keeps the decided version) when there is no distinct,
  // healthy default to send the request to.
  std::size_t index = decided;
  {
    const auto decided_it =
        state->by_version.find(config.backends[decided].version);
    if (decided_it != state->by_version.end() &&
        decided_it->second.control->health.ejected() &&
        !config.default_version.empty() &&
        config.default_version != config.backends[decided].version) {
      for (std::size_t i = 0; i < config.backends.size(); ++i) {
        if (config.backends[i].version != config.default_version) continue;
        const auto default_it =
            state->by_version.find(config.default_version);
        if (default_it != state->by_version.end() &&
            !default_it->second.control->health.ejected()) {
          index = i;
          decided_it->second.control->rerouted.fetch_add(
              1, std::memory_order_relaxed);
        }
        break;
      }
    }
  }
  const BackendTarget& backend = config.backends[index];
  if (config.sticky && !session_id.empty()) {
    // Pin the *decided* version, not the reroute target, so the
    // session returns to its experiment bucket after recovery.
    const std::string& pin = config.backends[decided].version;
    if (!pinned || *pinned != pin) sessions_.assign(session_id, pin);
  }

  const auto it = state->by_version.find(backend.version);
  const PerVersion* per_version =
      it != state->by_version.end() ? &it->second : nullptr;
  VersionControl* control =
      per_version != nullptr ? per_version->control.get() : nullptr;

  // Admission control: bounded per-version concurrency. Excess live
  // requests are rejected immediately instead of queueing behind a
  // stuck backend and pinning worker threads for the full timeout.
  if (control != nullptr && !control->gate.try_acquire()) {
    registry_
        .counter("bifrost_proxy_rejected_total",
                 {{"version", backend.version}})
        .increment();
    http::Response busy =
        http::Response::text(503, "overloaded: concurrency limit reached\n");
    busy.headers.set("Retry-After", "1");
    busy.headers.set(kVersionHeader, backend.version);
    return busy;
  }

  // Chaos latency injection: slow this request down without erroring
  // it (drives kLatency fault schedules against a real proxy).
  if (options_.latency_injector) {
    const auto delay = options_.latency_injector(backend.version);
    if (delay.count() > 0) {
      injected_delays_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(delay);
    }
  }

  // Forward to the chosen backend under its (possibly per-version)
  // deadline.
  http::Request upstream = request;
  upstream.headers.set("Host",
                       backend.host + ":" + std::to_string(backend.port));
  auto response = backend_client_.request(
      std::move(upstream), backend.host, backend.port,
      per_version != nullptr ? per_version->timeout
                             : options_.backend_timeout);
  if (control != nullptr) control->gate.release();

  fire_shadows(*state, backend.version, request);

  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  // Hot-path instrumentation: pointers were resolved at apply() time,
  // the sinks themselves are lock-free.
  if (per_version != nullptr) {
    per_version->requests->increment();
    per_version->request_time_ms->increment(elapsed_ms);
    per_version->latency->observe(elapsed_ms);
    control->gate.record_latency(elapsed_ms);
  }

  // Error taxonomy + passive health: deadline hits, upstream 5xx and
  // other transport failures are tracked separately, and all of them
  // feed the version's EWMA failure rate.
  bool failure = false;
  if (control != nullptr) {
    if (!response.ok()) {
      failure = true;
      if (is_timeout_error(response.error_message())) {
        control->timeouts.fetch_add(1, std::memory_order_relaxed);
        registry_
            .counter("bifrost_proxy_backend_timeouts_total",
                     {{"version", backend.version}})
            .increment();
      } else {
        control->transport_errors.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (response.value().status >= 500) {
      failure = true;
      control->errors_5xx.fetch_add(1, std::memory_order_relaxed);
      registry_
          .counter("bifrost_proxy_backend_5xx_total",
                   {{"version", backend.version}})
          .increment();
    }
    if (config.overload.enabled &&
        control->health.record(failure, OverloadClock::now())) {
      registry_
          .counter("bifrost_proxy_backend_ejections_total",
                   {{"version", backend.version}})
          .increment();
      overload_.emit(
          HealthEvent::Kind::kBackendEjected, backend.version,
          "failure rate " + std::to_string(control->health.failure_rate()) +
              " >= " + std::to_string(config.overload.eject_threshold) +
              ", backoff " +
              std::to_string(control->health.last_window().count()) + "ms");
    }
  }

  if (!response.ok()) {
    backend_errors_.fetch_add(1);
    registry_
        .counter("bifrost_proxy_backend_errors_total",
                 {{"version", backend.version}})
        .increment();
    return http::Response::bad_gateway(response.error_message());
  }

  http::Response out = std::move(response).value();
  out.headers.set(kVersionHeader, backend.version);
  if (new_session) out.set_cookie(kStickyCookie, session_id);
  return out;
}

void BifrostProxy::fire_shadows(const RouteState& state,
                                const std::string& version,
                                const http::Request& request) {
  const ProxyConfig& config = state.config;
  if (config.shadows.empty()) return;

  // Priority shedding: when any live admission gate is near its limit,
  // dark traffic is dropped before it can compete for resources —
  // shadows are always shed before a single live request is rejected.
  bool near_limit = false;
  if (config.overload.enabled) {
    for (const auto& [v, per_version] : state.by_version) {
      if (per_version.control->gate.utilization() >=
          config.overload.shed_utilization) {
        near_limit = true;
        break;
      }
    }
  }

  for (const ShadowTarget& shadow : config.shadows) {
    if (shadow.source_version != version) continue;
    // Decision order matters: bernoulli draw and shed verdict come
    // first, the full-body request copy last — a skipped or shed shadow
    // must cost neither an allocation nor a dispatch.
    bool fire = true;
    if (shadow.percent < 100.0) {
      fire = thread_rng().bernoulli(shadow.percent / 100.0);
    }
    if (!fire) continue;
    if (near_limit) {
      registry_.counter("bifrost_proxy_shadow_shed_total").increment();
      overload_.note_shed("live traffic near concurrency limit");
      continue;
    }
    shadow_copies_.fetch_add(1);
    http::Request duplicate = request;
    duplicate.headers.set(kShadowHeader, "1");
    duplicate.headers.set(
        "Host", shadow.host + ":" + std::to_string(shadow.port));
    const std::string host = shadow.host;
    const std::uint16_t port = shadow.port;
    const std::string target_version = shadow.target_version;
    const auto submitted = shadow_queue_->submit(
        [this, duplicate = std::move(duplicate), host, port]() mutable {
          auto result =
              shadow_client_.request(std::move(duplicate), host, port);
          if (!result.ok()) {
            registry_.counter("bifrost_proxy_shadow_errors_total").increment();
          }
          // Shadow responses are discarded (dark launch semantics).
        });
    if (!submitted.has_value()) {
      // Queue shut down (proxy draining): nothing was dispatched, and
      // the copy is charged back so copies == dispatches holds.
      shadow_copies_.fetch_sub(1);
      continue;
    }
    // A full queue dropped its oldest pending duplicates to admit this
    // one; each drop is a shed (it was already counted as dispatched).
    for (std::size_t i = 0; i < *submitted; ++i) {
      registry_.counter("bifrost_proxy_shadow_shed_total").increment();
      overload_.note_shed("shadow queue full, dropped oldest");
    }
    shadow_requests_.fetch_add(1);
    registry_
        .counter("bifrost_proxy_shadow_total", {{"version", target_version}})
        .increment();
  }
}

void BifrostProxy::probe_loop() {
  std::unique_lock<std::mutex> lock(probe_mutex_);
  while (!probe_stop_) {
    // Fixed 50ms tick; take_probe_due() paces actual probes to the
    // configured probe_interval per version.
    probe_cv_.wait_for(lock, std::chrono::milliseconds(50));
    if (probe_stop_) return;
    lock.unlock();
    const std::shared_ptr<const RouteState> state = route_state();
    const ProxyConfig& config = state->config;
    if (config.overload.enabled) {
      for (const BackendTarget& backend : config.backends) {
        const auto it = state->by_version.find(backend.version);
        if (it == state->by_version.end()) continue;
        VersionControl& control = *it->second.control;
        if (!control.health.take_probe_due(OverloadClock::now())) continue;
        http::Request probe;
        probe.method = "GET";
        probe.target = config.overload.probe_path;
        auto result =
            probe_client_.request(std::move(probe), backend.host, backend.port);
        const bool healthy = result.ok() && result.value().status < 500;
        if (control.health.on_probe(healthy, OverloadClock::now())) {
          registry_
              .counter("bifrost_proxy_backend_recoveries_total",
                       {{"version", backend.version}})
              .increment();
          overload_.emit(HealthEvent::Kind::kBackendRecovered, backend.version,
                         "probe GET " + config.overload.probe_path +
                             " succeeded, re-admitted");
        }
      }
    }
    lock.lock();
  }
}

std::uint64_t BifrostProxy::rejected_for(const std::string& version) const {
  const auto control = overload_.find(version);
  return control ? control->gate.rejected() : 0;
}

std::uint64_t BifrostProxy::timeouts_for(const std::string& version) const {
  const auto control = overload_.find(version);
  return control ? control->timeouts.load() : 0;
}

bool BifrostProxy::ejected(const std::string& version) const {
  const auto control = overload_.find(version);
  return control != nullptr && control->health.ejected();
}

bool BifrostProxy::force_eject(const std::string& version) {
  const auto control = overload_.find(version);
  if (!control || !control->health.force_eject(OverloadClock::now())) {
    return false;
  }
  registry_
      .counter("bifrost_proxy_backend_ejections_total", {{"version", version}})
      .increment();
  overload_.emit(HealthEvent::Kind::kBackendEjected, version,
                 "operator ejection");
  return true;
}

bool BifrostProxy::force_recover(const std::string& version) {
  const auto control = overload_.find(version);
  if (!control || !control->health.force_recover()) return false;
  registry_
      .counter("bifrost_proxy_backend_recoveries_total",
               {{"version", version}})
      .increment();
  overload_.emit(HealthEvent::Kind::kBackendRecovered, version,
                 "operator re-admission");
  return true;
}

http::Response BifrostProxy::handle_admin(const http::Request& request) {
  const std::string path = request.path();
  if (path == "/healthz") return http::Response::text(200, "ok\n");

  if (path == "/admin/health" && request.method == "GET") {
    // Machine-readable liveness + the durability handshake state: the
    // engine's reconciliation reads configEpoch to decide whether this
    // proxy already enacts its journaled intent.
    const std::shared_ptr<const RouteState> state = route_state();
    return http::Response::json(
        200, json::Value(json::Object{
                 {"status", draining_.load() ? "draining" : "ok"},
                 {"service", state->config.service},
                 {"configEpoch",
                  static_cast<std::int64_t>(applied_epoch_.load())},
                 {"configUpdates", config_updates_.load()},
                 {"duplicateEpochs", duplicate_epochs_.load()},
             })
                 .dump());
  }
  if (path == "/admin/config" && request.method == "GET") {
    // Echo the authoritative persisted epoch, not the (possibly 0)
    // epoch field of the last installed config, so readers always see
    // the deduplication floor.
    ProxyConfig config = current_config();
    config.epoch = applied_epoch_.load();
    return http::Response::json(200, config.to_json().dump());
  }
  if (path == "/admin/config" && request.method == "PUT") {
    auto doc = json::parse(request.body);
    if (!doc.ok()) return http::Response::bad_request(doc.error_message());
    auto config = ProxyConfig::from_json(doc.value());
    if (!config.ok()) {
      return http::Response::bad_request(config.error_message());
    }
    auto applied = apply_versioned(std::move(config).value());
    if (!applied.ok()) {
      return http::Response::bad_request(applied.error_message());
    }
    return http::Response::json(
        200, json::Value(json::Object{
                 {"status", "ok"},
                 {"applied", applied.value()},
                 {"epoch",
                  static_cast<std::int64_t>(applied_epoch_.load())},
             })
                 .dump());
  }
  if (path == "/admin/stats" && request.method == "GET") {
    const std::shared_ptr<const RouteState> state = route_state();
    json::Object latency_json;
    json::Object overload_json;
    for (const BackendTarget& backend : state->config.backends) {
      const LatencyStats stats = latency_for(backend.version);
      if (stats.count != 0) {
        latency_json[backend.version] =
            json::Object{{"count", stats.count},
                         {"mean_ms", stats.mean},
                         {"p50_ms", stats.p50},
                         {"p95_ms", stats.p95},
                         {"p99_ms", stats.p99}};
      }
      const auto it = state->by_version.find(backend.version);
      if (it == state->by_version.end()) continue;
      const VersionControl& control = *it->second.control;
      // Timeouts are reported distinctly from upstream 5xx and from
      // other transport failures — "slow" and "broken" are different
      // diagnoses for a live test.
      overload_json[backend.version] = json::Object{
          {"inflight", control.gate.inflight()},
          {"limit", control.gate.limit()},
          {"rejected", control.gate.rejected()},
          {"timeouts", control.timeouts.load()},
          {"errors5xx", control.errors_5xx.load()},
          {"transportErrors", control.transport_errors.load()},
          {"rerouted", control.rerouted.load()},
          {"ejected", control.health.ejected()},
          {"failureRate", control.health.failure_rate()},
          {"ejections", control.health.ejections()},
      };
    }
    json::Object stats{
        {"service", state->config.service},
        {"shadowRequests", shadow_requests_.load()},
        {"shadowCopies", shadow_copies_.load()},
        {"shadowsShed", overload_.shadows_shed()},
        {"shadowQueueDropped", shadow_queue_->dropped()},
        {"backendErrors", backend_errors_.load()},
        {"configUpdates", config_updates_.load()},
        {"configEpoch", static_cast<std::int64_t>(applied_epoch_.load())},
        {"duplicateEpochs", duplicate_epochs_.load()},
        {"stickySessions", sticky_sessions()},
        {"sessionShards", sessions_.shard_count()},
        {"overloadEnabled", state->config.overload.enabled},
        {"latency", std::move(latency_json)},
        {"overload", std::move(overload_json)},
    };
    return http::Response::json(200, json::Value(std::move(stats)).dump());
  }
  if (path == "/admin/events" && request.method == "GET") {
    // Health/overload events (backend_ejected, backend_recovered,
    // load_shed) with sequence > since. The engine's event pump polls
    // this and forwards new events into its status stream.
    std::uint64_t since = 0;
    if (const auto s = request.query_param("since")) {
      since =
          static_cast<std::uint64_t>(std::strtoull(s->c_str(), nullptr, 10));
    }
    std::uint64_t lost = 0;
    json::Array events;
    for (const HealthEvent& event : overload_.events_since(since, &lost)) {
      events.push_back(event.to_json());
    }
    // `lost` > 0 tells the reader its cursor lagged past the bounded
    // ring: that many events overflowed and can never be served.
    return http::Response::json(
        200, json::Value(json::Object{
                 {"lastSequence",
                  static_cast<std::int64_t>(overload_.events_emitted())},
                 {"lost", static_cast<std::int64_t>(lost)},
                 {"events", std::move(events)},
             })
                 .dump());
  }
  if ((path == "/admin/eject" || path == "/admin/recover") &&
      request.method == "POST") {
    const auto version = request.query_param("version");
    if (!version || version->empty()) {
      return http::Response::bad_request("missing ?version= parameter");
    }
    if (!overload_.find(*version)) {
      return http::Response::not_found();
    }
    const bool changed = path == "/admin/eject" ? force_eject(*version)
                                                : force_recover(*version);
    return http::Response::json(
        200, json::Value(json::Object{{"status", "ok"},
                                      {"version", *version},
                                      {"changed", changed},
                                      {"ejected", ejected(*version)}})
                 .dump());
  }
  if (path == "/admin/sessions" && request.method == "GET") {
    // The dynamic routing state's user mappings M: 3-tuples
    // <user, version, sticky> (paper §3.2). Capped sample for large
    // tables; `total` always reports the full size.
    constexpr std::size_t kMaxListed = 1000;
    const auto [mappings, total] = sessions_.snapshot(kMaxListed);
    json::Array sessions;
    for (const auto& [user, version] : mappings) {
      sessions.push_back(json::Object{
          {"user", user}, {"version", version}, {"sticky", true}});
    }
    return http::Response::json(
        200, json::Value(json::Object{{"total", total},
                                      {"mappings", std::move(sessions)}})
                 .dump());
  }
  if (path == "/metrics" && request.method == "GET") {
    return http::Response::text(200, registry_.expose());
  }
  return http::Response::not_found();
}

}  // namespace bifrost::proxy

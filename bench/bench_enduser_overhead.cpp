// Reproduces Table 1 and Figure 6 of the paper (§5.1): end-user response
// times over the four-phase release of the case-study application, in
// three variants:
//   baseline  — no Bifrost middleware deployed (loadgen -> product),
//   inactive  — proxies deployed, no strategy executing,
//   active    — proxies deployed, the engine enacting the 4-phase
//               strategy (canary 5%+5%, dark launch with 100% traffic
//               duplication to A and B, A/B 50/50 sticky, gradual
//               rollout of the winner 5%..100%).
//
// Real loopback sockets, open-loop load at the paper's 35 req/s with the
// paper's 4-request mix. Per-request proxy cost is emulated at the
// paper's Node.js prototype level (~7 ms) so the overhead *shape* is
// comparable; see DESIGN.md (substitution table) and EXPERIMENTS.md.
//
// Default phase durations are compressed (8/8/8/10 s vs the paper's
// 60/60/60/200 s); BIFROST_BENCH_FULL=1 selects paper durations.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "casestudy/app.hpp"
#include "engine/engine.hpp"
#include "engine/http_clients.hpp"
#include "http/client.hpp"
#include "http/server.hpp"
#include "loadgen/loadgen.hpp"
#include "loadgen/workload.hpp"
#include "metrics/registry.hpp"
#include "net/tcp.hpp"
#include "proxy/proxy.hpp"
#include "proxy/session_table.hpp"
#include "runtime/event_loop.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"

namespace {

using namespace std::chrono_literals;
using namespace bifrost;

// ---------------------------------------------------------------------------
// Routing-decision scaling sweep: closed-loop client threads performing
// the proxy's per-request data-plane work (sticky lookup, routing
// decision, sticky bookkeeping, counters, latency recording) without
// the socket layer, so the locking structure is what is measured: a
// sharded LRU SessionTable, thread-local RNG, lock-free counters, and
// lock-free log-bucket latency histograms.

proxy::ProxyConfig sweep_config() {
  proxy::ProxyConfig config;
  config.service = "sweep";
  config.sticky = true;
  config.backends = {
      proxy::BackendTarget{"stable", "127.0.0.1", 8001, 50.0, "", ""},
      proxy::BackendTarget{"canary", "127.0.0.1", 8002, 50.0, "", ""},
  };
  return config;
}

struct ShardedPath {
  proxy::SessionTable sessions{16, 1 << 20};
  metrics::Registry registry;
  struct PerVersion {
    metrics::Counter* requests;
    metrics::Counter* request_time_ms;
    std::shared_ptr<metrics::Histogram> latency;
  };
  std::vector<PerVersion> per_version;

  explicit ShardedPath(const proxy::ProxyConfig& config) {
    for (const proxy::BackendTarget& backend : config.backends) {
      per_version.push_back(PerVersion{
          &registry.counter("requests_total", {{"version", backend.version}}),
          &registry.counter("request_time_ms_total",
                            {{"version", backend.version}}),
          registry.histogram("request_latency_ms",
                             {{"version", backend.version}})});
    }
  }

  std::size_t handle(const proxy::ProxyConfig& config,
                     const http::Request& request, const std::string& id,
                     util::Rng& thread_rng) {
    const auto pinned = sessions.touch(id);
    const std::size_t index =
        proxy::BifrostProxy::decide_backend(config, request, pinned,
                                            thread_rng);
    const proxy::BackendTarget& backend = config.backends[index];
    if (!pinned || *pinned != backend.version) {
      sessions.assign(id, backend.version);
    }
    per_version[index].requests->increment();
    per_version[index].request_time_ms->increment(0.5);
    per_version[index].latency->observe(0.5);
    return index;
  }
};

struct SweepPoint {
  double ops_per_second = 0.0;
  double p99_us = 0.0;
};

SweepPoint run_sweep_point(ShardedPath& path,
                           const proxy::ProxyConfig& config, int threads,
                           double seconds) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_ops{0};
  constexpr std::size_t kMaxSamples = 1 << 16;
  std::vector<std::vector<double>> samples(
      static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      util::Rng thread_rng(
          util::derive_seed(42, static_cast<std::uint64_t>(t)));
      std::vector<std::string> ids;
      for (int i = 0; i < 256; ++i) {
        ids.push_back("s-" + std::to_string(t) + "-" + std::to_string(i));
      }
      auto& my_samples = samples[static_cast<std::size_t>(t)];
      my_samples.reserve(kMaxSamples);
      http::Request request;
      request.target = "/";
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& id = ids[ops & 255];
        const auto op_start = std::chrono::steady_clock::now();
        path.handle(config, request, id, thread_rng);
        const auto op_end = std::chrono::steady_clock::now();
        if (my_samples.size() < kMaxSamples) {
          my_samples.push_back(
              std::chrono::duration<double, std::micro>(op_end - op_start)
                  .count());
        }
        ++ops;
      }
      total_ops.fetch_add(ops);
    });
  }
  const auto bench_start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& worker : workers) worker.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  std::vector<double> merged;
  for (auto& chunk : samples) {
    merged.insert(merged.end(), chunk.begin(), chunk.end());
  }
  SweepPoint point;
  point.ops_per_second = static_cast<double>(total_ops.load()) / elapsed;
  point.p99_us = merged.empty() ? 0.0 : util::percentile(merged, 99.0);
  return point;
}

void run_scaling_sweep() {
  const proxy::ProxyConfig config = sweep_config();
  const double seconds = bifrost::bench::smoke_mode() ? 0.1
                         : bifrost::bench::full_mode() ? 2.0
                                                       : 0.4;
  bifrost::bench::print_header(
      "Routing-decision scaling sweep (closed loop, sticky 50/50 split)");
  std::printf(
      "per-request data-plane work without sockets: sharded sessions +\n"
      "thread-local RNG + lock-free histograms.\n"
      "%.1f s per point, %u hardware threads.\n\n",
      seconds, std::thread::hardware_concurrency());
  std::printf("threads | %14s %9s\n", "ops/s", "p99 us");
  for (const int threads : {1, 2, 4, 8}) {
    ShardedPath sharded(config);
    const SweepPoint point =
        run_sweep_point(sharded, config, threads, seconds);
    std::printf("%7d | %14.0f %9.2f\n", threads, point.ops_per_second,
                point.p99_us);
  }
  std::printf("\n(record new numbers in bench/TRAJECTORY.md)\n");
}

// ---------------------------------------------------------------------------
// Shed vs saturate: what overload protection buys when a dark launch
// duplicates 100% of traffic onto capacity the live version shares (the
// paper's §5.1 dark-launch degradation, taken to the point of
// saturation). Both arms run the same 2-worker backend and the same
// closed-loop live load; the shadow rule doubles the backend's work.
// 'saturate' has overload protection off, so every duplicate queues
// behind live requests; 'shed' enables the admission gate with an
// aggressive shed threshold, so duplicates are dropped whenever live
// requests are in flight and live latency stays near the no-shadow
// floor.

struct ShedArm {
  std::size_t requests = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t shadow_copies = 0;
  std::uint64_t shadows_shed = 0;
};

ShedArm run_shed_arm(bool protect, double seconds) {
  http::HttpServer::Options backend_options;
  backend_options.worker_threads = 2;  // the contended shared capacity
  http::HttpServer backend(backend_options, [](const http::Request&) {
    std::this_thread::sleep_for(5ms);
    return http::Response::text(200, "ok");
  });
  backend.start();

  proxy::ProxyConfig config;
  config.service = "product";
  config.backends = {proxy::BackendTarget{"stable", "127.0.0.1",
                                          backend.port(), 100.0, "", ""}};
  config.shadows = {proxy::ShadowTarget{"stable", "dark", "127.0.0.1",
                                        backend.port(), 100.0}};
  if (protect) {
    config.overload.enabled = true;
    // Limit well above the 4 live clients (never a 503), but low enough
    // that concurrent live traffic registers as utilization and trips
    // the shadow shed threshold.
    config.overload.max_concurrency = 8;
    config.overload.shed_utilization = 0.1;
  }
  proxy::BifrostProxy::Options options;
  options.rng_seed = 7;
  proxy::BifrostProxy proxy(options, std::move(config));
  proxy.start();

  constexpr int kClients = 4;
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> samples(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      http::HttpClient client;
      const std::string url =
          "http://127.0.0.1:" + std::to_string(proxy.data_port()) + "/";
      while (!stop.load(std::memory_order_relaxed)) {
        const auto op_start = std::chrono::steady_clock::now();
        auto response = client.get(url);
        const auto op_end = std::chrono::steady_clock::now();
        if (response.ok() && response.value().status == 200) {
          samples[static_cast<std::size_t>(c)].push_back(
              std::chrono::duration<double, std::milli>(op_end - op_start)
                  .count());
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& client : clients) client.join();

  std::vector<double> merged;
  for (auto& chunk : samples) {
    merged.insert(merged.end(), chunk.begin(), chunk.end());
  }
  ShedArm arm;
  arm.requests = merged.size();
  arm.p50_ms = merged.empty() ? 0.0 : util::percentile(merged, 50.0);
  arm.p99_ms = merged.empty() ? 0.0 : util::percentile(merged, 99.0);
  arm.shadow_copies = proxy.shadow_copies();
  arm.shadows_shed = proxy.shadows_shed();
  proxy.stop();
  backend.stop();
  return arm;
}

void run_shed_vs_saturate() {
  const double seconds = bifrost::bench::smoke_mode() ? 0.3
                         : bifrost::bench::full_mode() ? 3.0
                                                       : 0.8;
  bifrost::bench::print_header(
      "Shed vs saturate: dark-launch duplication onto shared capacity");
  std::printf(
      "4 closed-loop clients, 5 ms backend with 2 workers, 100%% shadow\n"
      "duplication to the same backend. 'saturate' = overload protection\n"
      "off (every duplicate queues behind live traffic); 'shed' =\n"
      "admission gate on with shedUtilization 0.1 (duplicates dropped\n"
      "while live requests are in flight). %.1f s per arm.\n\n",
      seconds);
  const ShedArm saturate = run_shed_arm(/*protect=*/false, seconds);
  const ShedArm shed = run_shed_arm(/*protect=*/true, seconds);
  std::printf("%-9s | %9s | %8s | %8s | %13s | %9s\n", "arm", "live reqs",
              "p50 ms", "p99 ms", "shadow copies", "shed");
  std::printf("%-9s | %9zu | %8.2f | %8.2f | %13llu | %9llu\n", "saturate",
              saturate.requests, saturate.p50_ms, saturate.p99_ms,
              static_cast<unsigned long long>(saturate.shadow_copies),
              static_cast<unsigned long long>(saturate.shadows_shed));
  std::printf("%-9s | %9zu | %8.2f | %8.2f | %13llu | %9llu\n", "shed",
              shed.requests, shed.p50_ms, shed.p99_ms,
              static_cast<unsigned long long>(shed.shadow_copies),
              static_cast<unsigned long long>(shed.shadows_shed));
  std::printf("\n(record new numbers in bench/TRAJECTORY.md)\n");
}

// ---------------------------------------------------------------------------
// I/O-layer sweep: the HttpServer at 1, 2 and 4 reactor workers under
// many concurrent keep-alive connections. The flood client runs in a
// separate process (fork + exec of this binary in client mode) so
// the 10k-connection points fit under the per-process fd limit — server
// and client each hold one fd per connection. exec immediately after
// fork keeps the fork safe despite the parent's reactor threads.
//
// The client opens N keep-alive connections up front, then a small set
// of driver threads round-robins GET requests across them, so every
// connection stays open and periodically active while only a few
// requests are in flight — the "mostly-idle fleet" shape that event
//-driven I/O exists for. Per-request latency is measured around each
// write+read pair.

struct IoPoint {
  std::size_t conns = 0;
  std::uint64_t requests = 0;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t errors = 0;
};

/// Client-mode entry: dials, floods, prints one RESULT line on stdout.
int io_client_main() {
  const std::uint16_t port =
      static_cast<std::uint16_t>(std::atoi(std::getenv("BIFROST_IO_PORT")));
  const std::size_t conns = static_cast<std::size_t>(
      std::atoll(std::getenv("BIFROST_IO_CONNS")));
  const double seconds = std::atof(std::getenv("BIFROST_IO_SECONDS"));
  constexpr int kDrivers = 4;

  std::vector<net::TcpStream> sockets;
  sockets.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    auto stream = net::TcpStream::connect("127.0.0.1", port, 5000ms);
    if (!stream.ok()) {
      std::printf("RESULT error=connect:%s after=%zu\n",
                  stream.error_message().c_str(), i);
      return 1;
    }
    sockets.push_back(std::move(stream).value());
  }

  const std::string wire =
      "GET /ping HTTP/1.1\r\nHost: bench\r\n\r\n";
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::vector<double>> samples(kDrivers);
  std::vector<std::thread> drivers;
  const std::size_t per_driver = (conns + kDrivers - 1) / kDrivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      const std::size_t begin = static_cast<std::size_t>(d) * per_driver;
      const std::size_t end = std::min(begin + per_driver, conns);
      if (begin >= end) return;
      auto& my_samples = samples[static_cast<std::size_t>(d)];
      my_samples.reserve(1 << 16);
      std::string response;
      response.reserve(4096);
      char buf[4096];
      std::uint64_t ops = 0;
      for (std::size_t i = begin; !stop.load(std::memory_order_relaxed);
           i = (i + 1 < end) ? i + 1 : begin) {
        const auto op_start = std::chrono::steady_clock::now();
        if (!sockets[i].write_all(wire)) {
          errors.fetch_add(1);
          continue;
        }
        // Read until the 2-byte body ("ok") past the blank line.
        response.clear();
        bool done = false;
        while (!done) {
          const auto n = sockets[i].read_some(buf, sizeof buf);
          if (!n.ok() || n.value() == 0) {
            errors.fetch_add(1);
            break;
          }
          response.append(buf, n.value());
          const auto head_end = response.find("\r\n\r\n");
          done = head_end != std::string::npos &&
                 response.size() >= head_end + 4 + 2;
        }
        const auto op_end = std::chrono::steady_clock::now();
        if (done) {
          ++ops;
          if (my_samples.size() < (1u << 16)) {
            my_samples.push_back(
                std::chrono::duration<double, std::micro>(op_end - op_start)
                    .count());
          }
        }
      }
      total.fetch_add(ops);
    });
  }
  const auto bench_start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& driver : drivers) driver.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  std::vector<double> merged;
  for (auto& chunk : samples) {
    merged.insert(merged.end(), chunk.begin(), chunk.end());
  }
  std::printf("RESULT reqs=%llu rps=%.0f p50_us=%.1f p99_us=%.1f "
              "errors=%llu\n",
              static_cast<unsigned long long>(total.load()),
              static_cast<double>(total.load()) / elapsed,
              merged.empty() ? 0.0 : util::percentile(merged, 50.0),
              merged.empty() ? 0.0 : util::percentile(merged, 99.0),
              static_cast<unsigned long long>(errors.load()));
  return 0;
}

/// Forks + execs this binary in client mode against `port`; parses the
/// child's RESULT line.
IoPoint run_io_client(std::uint16_t port, std::size_t conns,
                      double seconds) {
  IoPoint point;
  point.conns = conns;
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return point;
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: async-signal-safe region — dup2 + execve only.
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    char port_env[64];
    char conns_env[64];
    char secs_env[64];
    std::snprintf(port_env, sizeof port_env, "BIFROST_IO_PORT=%u", port);
    std::snprintf(conns_env, sizeof conns_env, "BIFROST_IO_CONNS=%zu",
                  conns);
    std::snprintf(secs_env, sizeof secs_env, "BIFROST_IO_SECONDS=%.3f",
                  seconds);
    char mode_env[] = "BIFROST_IO_CLIENT=1";
    char* envp[] = {mode_env, port_env, conns_env, secs_env, nullptr};
    char exe[] = "/proc/self/exe";
    char* argv[] = {exe, nullptr};
    ::execve(exe, argv, envp);
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  std::string output;
  char buf[512];
  ssize_t n = 0;
  while ((n = ::read(out_pipe[0], buf, sizeof buf)) > 0) {
    output.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out_pipe[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  unsigned long long reqs = 0;
  unsigned long long errors = 0;
  const auto result_at = output.find("RESULT reqs=");
  if (result_at != std::string::npos &&
      std::sscanf(output.c_str() + result_at,
                  "RESULT reqs=%llu rps=%lf p50_us=%lf p99_us=%lf "
                  "errors=%llu",
                  &reqs, &point.rps, &point.p50_us, &point.p99_us,
                  &errors) == 5) {
    point.requests = reqs;
    point.errors = errors;
  } else {
    std::fprintf(stderr, "io client failed: %s\n", output.c_str());
  }
  return point;
}

void run_io_sweep() {
  const double seconds =
      bifrost::bench::smoke_mode() ? 0.3
      : bifrost::bench::full_mode() ? 5.0
                                    : 2.0;
  bifrost::bench::print_header(
      "I/O-layer sweep: reactor HttpServer, keep-alive fleets");
  std::printf(
      "flood client in a forked process, 4 driver threads round-robin\n"
      "GETs over N open keep-alive connections; trivial handler.\n"
      "%.1f s per point, %u hardware threads.\n\n",
      seconds, std::thread::hardware_concurrency());

  const std::vector<std::size_t> fleet =
      bifrost::bench::smoke_mode()
          ? std::vector<std::size_t>{50}
          : std::vector<std::size_t>{100, 1000, 5000, 10000};

  std::printf("%-10s | %6s | %8s | %9s | %9s | %9s | %6s\n", "arm",
              "conns", "reqs", "req/s", "p50 us", "p99 us", "errors");
  for (const std::size_t workers : {1, 2, 4}) {
    for (const std::size_t conns : fleet) {
      http::HttpServer::Options options;
      options.reactor_workers = workers;
      options.worker_threads = 4;
      http::HttpServer server(options, [](const http::Request&) {
        return http::Response::text(200, "ok");
      });
      server.start();
      const IoPoint point = run_io_client(server.port(), conns, seconds);
      std::printf("reactor-%zuw | %6zu | %8llu | %9.0f | %9.1f | %9.1f | "
                  "%6llu\n",
                  workers, point.conns,
                  static_cast<unsigned long long>(point.requests), point.rps,
                  point.p50_us, point.p99_us,
                  static_cast<unsigned long long>(point.errors));
      std::fflush(stdout);
      server.stop();
    }
  }
  std::printf("\n(record new numbers in bench/TRAJECTORY.md)\n");
}

struct Timeline {
  double ramp = 8.0;     // warm-up before the strategy starts
  double canary = 10.0;
  double dark = 10.0;
  double ab = 10.0;
  double rollout = 10.0;  // 20 states
  double slack = 2.0;

  [[nodiscard]] double total() const {
    return ramp + canary + dark + ab + rollout + slack;
  }
};

struct PhaseWindow {
  const char* name;
  double begin;  // seconds from strategy start
  double end;
};

std::vector<PhaseWindow> phase_windows(const Timeline& t) {
  return {
      {"canary", 0.0, t.canary},
      {"dark-launch", t.canary, t.canary + t.dark},
      {"ab-test", t.canary + t.dark, t.canary + t.dark + t.ab},
      {"rollout", t.canary + t.dark + t.ab,
       t.canary + t.dark + t.ab + t.rollout},
  };
}

casestudy::AppOptions app_options(bool with_proxies) {
  casestudy::AppOptions options;
  options.with_proxies = with_proxies;
  // Paper-prototype proxy overhead emulation (Node.js data path).
  options.proxy_emulation_cost = 7ms;
  // One worker per service instance models the paper's one-vCPU
  // containers: load-dependent queueing is what produces the dark-launch
  // degradation and the A/B load-splitting relief.
  options.product_delay = 5ms;
  options.search_delay = 7ms;
  options.fast_search_delay = 3ms;
  options.auth_delay = 4ms;
  options.db_delay = 2ms;
  options.product_workers = 1;
  options.search_workers = 2;
  options.db_workers = 2;
  options.auth_workers = 1;
  options.scrape_interval = 500ms;
  return options;
}

core::CheckDef error_check(const std::string& version, double interval_s,
                           int executions) {
  core::CheckDef check;
  check.name = version + "-errors";
  check.conditions.push_back(core::MetricCondition{
      "prometheus", check.name,
      R"(request_errors{service="product",version=")" + version + "\"}",
      core::Validator::parse("<50").value(), /*fail_on_no_data=*/false});
  check.interval = std::chrono::duration_cast<runtime::Duration>(
      std::chrono::duration<double>(interval_s));
  check.executions = executions;
  check.thresholds = {executions - 0.5};
  check.outputs = {0, 1};
  return check;
}

/// The §5.1.2 release strategy against the live case-study app.
core::StrategyDef release_strategy(const casestudy::CaseStudyApp& app,
                                   const Timeline& t) {
  core::StrategyDef strategy;
  strategy.name = "product-release";
  strategy.initial_state = "canary";
  strategy.providers["prometheus"] = app.prometheus_provider();
  strategy.services.push_back(app.product_service_def());

  const auto split3 = [](double stable, double a, double b) {
    core::ServiceRouting routing;
    routing.service = "product";
    if (stable > 0.0) {
      routing.splits.push_back(core::VersionSplit{"stable", stable, "", ""});
    }
    if (a > 0.0) routing.splits.push_back(core::VersionSplit{"a", a, "", ""});
    if (b > 0.0) routing.splits.push_back(core::VersionSplit{"b", b, "", ""});
    return routing;
  };

  // Phase 1: canary launch — 5% to A, 5% to B, error checks.
  core::StateDef canary;
  canary.name = "canary";
  canary.min_duration = std::chrono::duration_cast<runtime::Duration>(
      std::chrono::duration<double>(t.canary));
  canary.checks.push_back(error_check("a", t.canary / 5.0, 4));
  canary.checks.push_back(error_check("b", t.canary / 5.0, 4));
  canary.thresholds = {1.5};
  canary.transitions = {"rollback", "dark"};
  canary.routing.push_back(split3(90.0, 5.0, 5.0));
  strategy.states.push_back(canary);

  // Phase 2: dark launch — A and B receive 100% of product traffic.
  core::StateDef dark;
  dark.name = "dark";
  dark.min_duration = std::chrono::duration_cast<runtime::Duration>(
      std::chrono::duration<double>(t.dark));
  dark.transitions = {"ab"};
  core::ServiceRouting shadow = split3(100.0, 0.0, 0.0);
  shadow.shadows = {core::ShadowRule{"stable", "a", 100.0},
                    core::ShadowRule{"stable", "b", 100.0}};
  dark.routing.push_back(shadow);
  strategy.states.push_back(dark);

  // Phase 3: A/B test — 50/50 sticky, sales metric checked at the end.
  core::StateDef ab;
  ab.name = "ab";
  ab.min_duration = std::chrono::duration_cast<runtime::Duration>(
      std::chrono::duration<double>(t.ab));
  core::CheckDef sales;
  sales.name = "sales";
  sales.conditions.push_back(core::MetricCondition{
      "prometheus", "sales",
      R"(sales_total{service="product",version="b"})",
      core::Validator::parse(">=0").value(), /*fail_on_no_data=*/false});
  sales.interval = std::chrono::duration_cast<runtime::Duration>(
      std::chrono::duration<double>(t.ab * 0.9));
  sales.executions = 1;
  sales.thresholds = {0.5};
  sales.outputs = {0, 1};
  ab.checks.push_back(sales);
  ab.thresholds = {0.5};
  ab.transitions = {"rollback", "rollout-5"};
  core::ServiceRouting ab_split = split3(0.0, 50.0, 50.0);
  ab_split.sticky = true;
  ab.routing.push_back(ab_split);
  strategy.states.push_back(ab);

  // Phase 4: gradual rollout of the winner (B) 5%..100% in 5% steps.
  const double step_duration = t.rollout / 20.0;
  for (int pct = 5; pct <= 100; pct += 5) {
    core::StateDef step;
    step.name = "rollout-" + std::to_string(pct);
    step.min_duration = std::chrono::duration_cast<runtime::Duration>(
        std::chrono::duration<double>(step_duration));
    step.transitions = {pct == 100 ? "done"
                                   : "rollout-" + std::to_string(pct + 5)};
    core::ServiceRouting routing;
    routing.service = "product";
    if (pct == 100) {
      routing.splits = {core::VersionSplit{"b", 100.0, "", ""}};
    } else {
      routing.splits = {
          core::VersionSplit{"stable", 100.0 - pct, "", ""},
          core::VersionSplit{"b", static_cast<double>(pct), "", ""}};
    }
    step.routing.push_back(routing);
    strategy.states.push_back(step);
  }

  core::StateDef done;
  done.name = "done";
  done.final_kind = core::FinalKind::kSuccess;
  strategy.states.push_back(done);
  core::StateDef rollback;
  rollback.name = "rollback";
  rollback.final_kind = core::FinalKind::kRollback;
  core::ServiceRouting revert = split3(100.0, 0.0, 0.0);
  rollback.routing.push_back(revert);
  strategy.states.push_back(rollback);
  return strategy;
}

enum class Variant { kBaseline, kInactive, kActive };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kBaseline:
      return "baseline";
    case Variant::kInactive:
      return "inactive";
    case Variant::kActive:
      return "active";
  }
  return "?";
}

struct VariantResult {
  std::vector<std::vector<double>> phase_latencies;  // Table 1 samples
  std::vector<std::pair<double, double>> series;     // Fig 6 moving average
  std::string final_state;
};

VariantResult run_variant(Variant variant, const Timeline& t) {
  casestudy::CaseStudyApp app(
      app_options(/*with_proxies=*/variant != Variant::kBaseline));
  app.start();

  runtime::EventLoop loop;
  engine::HttpMetricsClient metrics_client;
  engine::HttpProxyController proxy_controller;
  std::unique_ptr<engine::Engine> engine;
  if (variant == Variant::kActive) {
    loop.start();
    engine = std::make_unique<engine::Engine>(loop, metrics_client,
                                              proxy_controller);
  }

  loadgen::LoadGenerator::Options gen_options;
  gen_options.requests_per_second = 35.0;  // paper §5.1.2
  gen_options.poisson = true;              // bursty production traffic
  gen_options.workers = 48;
  gen_options.virtual_users = 60;
  loadgen::LoadGenerator generator(
      gen_options, app.product_entry().host, app.product_entry().port,
      loadgen::paper_request_mix(app.auth_token(), 12));
  generator.start();

  std::this_thread::sleep_for(std::chrono::duration_cast<
                              std::chrono::milliseconds>(
      std::chrono::duration<double>(t.ramp)));

  std::string strategy_id;
  const double strategy_start = t.ramp;
  if (variant == Variant::kActive) {
    auto id = engine->submit(release_strategy(app, t));
    if (!id.ok()) {
      std::fprintf(stderr, "strategy rejected: %s\n",
                   id.error_message().c_str());
      std::exit(1);
    }
    strategy_id = id.value();
  }

  const double remaining = t.total() - t.ramp;
  std::this_thread::sleep_for(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::duration<double>(remaining)));
  generator.stop();

  VariantResult result;
  for (const PhaseWindow& window : phase_windows(t)) {
    std::vector<double> latencies;
    for (const auto& completed : generator.results()) {
      const double offset = completed.at_seconds - strategy_start;
      if (offset >= window.begin && offset < window.end &&
          completed.status > 0 && completed.status < 500) {
        latencies.push_back(completed.latency_ms);
      }
    }
    result.phase_latencies.push_back(std::move(latencies));
  }
  util::MovingAverage ma(3.0);  // the paper's 3 s moving average
  for (const auto& completed : generator.results()) {
    if (completed.status > 0 && completed.status < 500) {
      ma.add(completed.at_seconds, completed.latency_ms);
    }
  }
  result.series = ma.series(0.5);
  if (engine) {
    const auto snapshot = engine->status(strategy_id);
    result.final_state = snapshot ? snapshot->current_state : "?";
    loop.stop();
  }
  app.stop();
  return result;
}

}  // namespace

int main() {
  // Re-exec'd child flood process for the I/O sweep (see run_io_client).
  if (std::getenv("BIFROST_IO_CLIENT") != nullptr) {
    return io_client_main();
  }

  // BIFROST_BENCH_IO_ONLY=1 runs just the reactor I/O sweep.
  if (const char* only = std::getenv("BIFROST_BENCH_IO_ONLY");
      only != nullptr && only[0] == '1') {
    run_io_sweep();
    return 0;
  }

  // BIFROST_BENCH_SHED_ONLY=1 runs just the shed-vs-saturate comparison.
  if (const char* only = std::getenv("BIFROST_BENCH_SHED_ONLY");
      only != nullptr && only[0] == '1') {
    run_shed_vs_saturate();
    return 0;
  }

  // Smoke mode: touch every arm briefly, skip the multi-minute Table 1
  // reproduction (its timeline cannot compress to seconds meaningfully).
  if (bifrost::bench::smoke_mode()) {
    run_scaling_sweep();
    run_shed_vs_saturate();
    run_io_sweep();
    // Header-only CSV: the Figure 6 series is skipped in smoke mode,
    // but the bench/out/ destination path must stay exercised (the
    // smoke lane's bench_csv_guard checks all four CSVs exist there).
    bifrost::util::CsvWriter csv(
        bifrost::bench::out_path("bench_enduser_overhead.csv"),
        {"time_s", "baseline_ms", "inactive_ms", "active_ms"});
    return 0;
  }

  // Part 1: data-plane scaling sweep of the sharded routing path.
  // BIFROST_BENCH_SWEEP_ONLY=1 exits after it, for quick re-measurement.
  run_scaling_sweep();
  if (const char* only = std::getenv("BIFROST_BENCH_SWEEP_ONLY");
      only != nullptr && only[0] == '1') {
    return 0;
  }

  // Part 2: overload protection — shadow shedding vs saturation.
  run_shed_vs_saturate();

  // Part 3: the I/O layer itself — reactor HttpServer per worker count.
  run_io_sweep();

  Timeline t;
  if (bifrost::bench::full_mode()) {
    t.ramp = 30.0 + 60.0;  // paper: 30 s ramp + 60 s health checking
    t.canary = 60.0;
    t.dark = 60.0;
    t.ab = 60.0;
    t.rollout = 200.0;
    t.slack = 10.0;
  }

  std::printf("Reproduction of paper Table 1 and Figure 6 (end-user\n"
              "response time during a 4-phase release; 35 req/s open loop,\n"
              "4-request mix; phases canary/dark/ab of %.0f s and a %.0f s\n"
              "gradual rollout; proxy data-path cost emulated at the\n"
              "paper's Node.js prototype level).\n",
              t.canary, t.rollout);

  const int repetitions = bifrost::bench::full_mode() ? 5 : 3;
  const std::vector<Variant> variants{Variant::kBaseline, Variant::kInactive,
                                      Variant::kActive};
  std::vector<VariantResult> results(variants.size());
  for (int rep = 0; rep < repetitions; ++rep) {
    for (size_t v = 0; v < variants.size(); ++v) {
      std::printf("\nrun %d/%d, variant '%s' (~%.0f s)...\n", rep + 1,
                  repetitions, variant_name(variants[v]), t.total());
      std::fflush(stdout);
      VariantResult one = run_variant(variants[v], t);
      if (variants[v] == Variant::kActive) {
        std::printf("strategy finished in state '%s'\n",
                    one.final_state.c_str());
      }
      if (rep == 0) {
        results[v] = std::move(one);
      } else {
        for (size_t p = 0; p < one.phase_latencies.size(); ++p) {
          auto& pooled = results[v].phase_latencies[p];
          pooled.insert(pooled.end(), one.phase_latencies[p].begin(),
                        one.phase_latencies[p].end());
        }
      }
    }
  }

  const auto windows = phase_windows(t);
  bifrost::bench::print_header(
      "Table 1: response-time statistics (ms) per phase and variant");
  std::printf("%-14s", "phase");
  for (const Variant v : variants) std::printf(" | %22s", variant_name(v));
  std::printf("\n%-14s", "");
  for (size_t i = 0; i < variants.size(); ++i) {
    std::printf(" | %10s %10s", "mean", "median");
  }
  std::printf("\n");
  std::vector<std::vector<util::Summary>> summaries(variants.size());
  for (size_t v = 0; v < variants.size(); ++v) {
    for (size_t p = 0; p < windows.size(); ++p) {
      summaries[v].push_back(util::summarize(results[v].phase_latencies[p]));
    }
  }
  for (size_t p = 0; p < windows.size(); ++p) {
    std::printf("%-14s", windows[p].name);
    for (size_t v = 0; v < variants.size(); ++v) {
      std::printf(" | %10.2f %10.2f", summaries[v][p].mean,
                  summaries[v][p].median);
    }
    std::printf("\n");
  }
  std::printf("\nfull statistics:\n");
  for (size_t p = 0; p < windows.size(); ++p) {
    for (size_t v = 0; v < variants.size(); ++v) {
      const util::Summary& s = summaries[v][p];
      std::printf(
          "  %-12s %-9s mean %7.2f  min %7.2f  max %7.2f  sd %6.2f  "
          "median %7.2f  (n=%zu)\n",
          windows[p].name, variant_name(variants[v]), s.mean, s.min, s.max,
          s.sd, s.median, s.count);
    }
  }

  // Figure 6: 3 s moving average series, one CSV column per variant.
  bifrost::util::CsvWriter csv(
      bifrost::bench::out_path("bench_enduser_overhead.csv"),
      {"time_s", "baseline_ms", "inactive_ms", "active_ms"});
  const size_t points = results[0].series.size();
  for (size_t i = 0; i < points; ++i) {
    std::vector<double> row{results[0].series[i].first};
    for (const VariantResult& r : results) {
      row.push_back(i < r.series.size() ? r.series[i].second : 0.0);
    }
    csv.row(row);
  }
  std::printf("\nFigure 6 series (3 s moving average) written to %s\n",
              csv.path().c_str());

  // Shape checks mirroring the paper's §5.1 observations.
  // Medians: robust against scheduling outliers on a shared machine;
  // the paper's medians show the same effects as its means (Table 1).
  const double base_canary = summaries[0][0].median;
  const double inact_canary = summaries[1][0].median;
  const double act_canary = summaries[2][0].median;
  const double inact_dark = summaries[1][1].median;
  const double act_dark = summaries[2][1].median;
  const double inact_ab = summaries[1][2].median;
  const double act_ab = summaries[2][2].median;
  std::printf(
      "\nshape checks vs paper (medians):\n"
      "  proxy overhead (inactive - baseline, canary phase): %+.2f ms "
      "(paper: ~+8 ms)\n"
      "  active vs inactive, canary: %+.2f ms (paper: ~+0.2 ms)\n"
      "  active vs inactive, dark launch: %+.2f ms (paper: ~+9 ms, "
      "duplication load)\n"
      "  active vs inactive, A/B: %+.2f ms (paper: ~-5 ms, load split)\n",
      inact_canary - base_canary, act_canary - inact_canary,
      act_dark - inact_dark, act_ab - inact_ab);
  return 0;
}

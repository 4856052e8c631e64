// enact-checks and enact-ramp: strategies enacted back to back on ONE
// long-lived Engine over the real stack — EventLoop, a 2-worker
// WorkStealingPool, HttpMetricsClient against a MetricsServer, an
// HttpProxyController pushing to real BifrostProxy admin APIs and a
// FileJournal on a memory-backed file with the default sync_every.
//
// The engine is constructed with wrapped Scheduler, Executor,
// MetricsClient, ProxyController and Journal objects; the wrappers time
// every call from outside the engine and forward it unchanged.
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "engine/engine.hpp"
#include "floor.hpp"
#include "engine/http_clients.hpp"
#include "engine/journal.hpp"
#include "metrics/query.hpp"
#include "metrics/server.hpp"
#include "metrics/timeseries.hpp"
#include "proxy/proxy.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/work_stealing_pool.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bifrost;

namespace {

using namespace std::chrono_literals;
using engine::StatusEvent;

constexpr int kSetupRounds = 7;
constexpr std::size_t kPoolWorkers = 2;
constexpr int kCheckGroups = 2;   ///< 8 checks per group, per phase
constexpr int kExecutions = 5;    ///< executions per check (enact-checks)
constexpr int kRampSteps = 100;   ///< 1% .. 100%
constexpr std::int64_t kSlowNs = 100000000;  ///< 100 ms
constexpr runtime::Duration kInterval = 1us;
/// Strategies per run = rate * --seconds, so the count is fixed per run
/// (not per second) and journal snapshot growth is the same on every
/// commit.
constexpr double kChecksPerSecond = 8.0;
constexpr double kRampsPerSecond = 2.0;
/// Round trips in each floor burst (one before every strategy and one
/// after the last), on one connection: enactment is mostly sequential.
constexpr std::uint64_t kFloorRounds = 1000;
/// A small GET, the size of a metric query.
const char* const kFloorWire =
    "GET /api/v1/query?query=up HTTP/1.1\r\nHost: bench\r\n"
    "Content-Length: 0\r\n\r\n";

struct Counters {
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> query_slow{0};
  std::atomic<std::uint64_t> query_failed{0};
  std::atomic<std::uint64_t> pushes{0};
  std::atomic<std::uint64_t> push_slow{0};
  std::atomic<std::uint64_t> push_failed{0};
  std::atomic<std::uint64_t> journal_records{0};
  /// Strategy id (1-based run index) that spans are tagged with.
  std::atomic<std::uint64_t> strategy{0};
};

class TracedScheduler final : public runtime::Scheduler {
 public:
  TracedScheduler(runtime::Scheduler& inner, Counters& counters)
      : inner_(inner), counters_(counters) {}

  [[nodiscard]] runtime::Time now() const override { return inner_.now(); }

  runtime::TimerId schedule_at(runtime::Time when, Task task) override {
    if (!Tracer::get().on()) return inner_.schedule_at(when, std::move(task));
    const bool from_job = t_in_pool_job;
    const std::int64_t armed = now_ns();
    return inner_.schedule_at(
        when, [this, when, from_job, armed, task = std::move(task)] {
          Tracer& tracer = Tracer::get();
          const std::int64_t start = now_ns();
          const std::int64_t late =
              std::max<std::int64_t>(0, (inner_.now() - when).count());
          const std::uint64_t id = tracer.next_id();
          const std::uint64_t group = counters_.strategy.load();
          t_parent = id;
          task();
          t_parent = 0;
          const std::int64_t end = now_ns();
          tracer.add(Span{"runtime.task", id, 0, group, start, end, 0});
          tracer.add(Span{"runtime.timer_late", tracer.next_id(), id, group,
                          start - late, start, 0});
          if (from_job) {
            tracer.add(Span{"runtime.marshal", tracer.next_id(), id, group,
                            armed, start, 0});
          }
        });
  }

  void cancel(runtime::TimerId id) override { inner_.cancel(id); }

 private:
  runtime::Scheduler& inner_;
  Counters& counters_;
};

class TracedExecutor final : public runtime::Executor {
 public:
  TracedExecutor(runtime::Executor& inner, Counters& counters)
      : inner_(inner), counters_(counters) {}

  bool submit(Job job) override {
    if (!Tracer::get().on()) return inner_.submit(std::move(job));
    const std::int64_t submitted = now_ns();
    const std::uint64_t parent = t_parent;
    return inner_.submit([this, submitted, parent, job = std::move(job)] {
      Tracer& tracer = Tracer::get();
      const std::uint64_t id = tracer.next_id();
      const std::uint64_t group = counters_.strategy.load();
      const std::int64_t start = now_ns();
      t_parent = id;
      t_in_pool_job = true;
      job();
      t_in_pool_job = false;
      t_parent = 0;
      const std::int64_t end = now_ns();
      tracer.add(Span{"runtime.pool_wait", tracer.next_id(), parent, group,
                      submitted, start, 0});
      tracer.add(Span{"runtime.pool_job", id, parent, group, start, end, 0});
    });
  }

 private:
  runtime::Executor& inner_;
  Counters& counters_;
};

class TracedMetrics final : public engine::MetricsClient {
 public:
  TracedMetrics(engine::MetricsClient& inner, Counters& counters)
      : inner_(inner), counters_(counters) {}

  util::Result<std::optional<double>> query(
      const core::ProviderConfig& provider, const std::string& text) override {
    const std::int64_t start = now_ns();
    auto result = inner_.query(provider, text);
    const std::int64_t end = now_ns();
    counters_.queries++;
    if (end - start > kSlowNs) counters_.query_slow++;
    if (!result.ok()) counters_.query_failed++;
    Tracer::get().add(Span{"engine.query", Tracer::get().next_id(), t_parent,
                           counters_.strategy.load(), start, end, 0});
    return result;
  }

 private:
  engine::MetricsClient& inner_;
  Counters& counters_;
};

/// Sends every push through HttpProxyController::apply. Region pushes
/// of a federated service go to that region's admin endpoint:
/// HttpProxyController itself has no apply_region override, so without
/// this every region push would fail with "has no proxy admin endpoint".
class RegionPushController final : public engine::ProxyController {
 public:
  RegionPushController(engine::HttpProxyController& inner, Counters& counters)
      : inner_(inner), counters_(counters) {}

  util::Result<void> apply(const core::ServiceDef& service,
                           const proxy::ProxyConfig& config) override {
    return timed(service, config, 0);
  }
  util::Result<engine::ProxyStateView> fetch(
      const core::ServiceDef& service) override {
    return inner_.fetch(service);
  }
  util::Result<void> apply_region(const core::ServiceDef& service,
                                  const core::RegionDef& region,
                                  const proxy::ProxyConfig& config) override {
    return timed(at_region(service, region), config, region.canary_order);
  }
  util::Result<engine::ProxyStateView> fetch_region(
      const core::ServiceDef& service, const core::RegionDef& region) override {
    return inner_.fetch(at_region(service, region));
  }

 private:
  static core::ServiceDef at_region(const core::ServiceDef& service,
                                    const core::RegionDef& region) {
    core::ServiceDef target = service;
    target.proxy_admin_host = region.proxy_admin_host;
    target.proxy_admin_port = region.proxy_admin_port;
    return target;
  }

  util::Result<void> timed(const core::ServiceDef& service,
                           const proxy::ProxyConfig& config, int region) {
    const std::int64_t start = now_ns();
    auto result = inner_.apply(service, config);
    const std::int64_t end = now_ns();
    counters_.pushes++;
    if (end - start > kSlowNs) counters_.push_slow++;
    if (!result.ok()) counters_.push_failed++;
    Tracer::get().add(Span{"engine.push", Tracer::get().next_id(), t_parent,
                           counters_.strategy.load(), start, end, region});
    return result;
  }

  engine::HttpProxyController& inner_;
  Counters& counters_;
};

class TracedJournal final : public engine::Journal {
 public:
  TracedJournal(engine::Journal& inner, int fd, Counters& counters)
      : inner_(inner), fd_(fd), counters_(counters) {}

  util::Result<void> append(engine::RecordType type,
                            json::Value data) override {
    const bool snapshot = type == engine::RecordType::kSnapshot;
    const bool on = Tracer::get().on();
    const std::int64_t before = on && snapshot ? file_size() : 0;
    const std::int64_t start = now_ns();
    auto result = inner_.append(type, std::move(data));
    const std::int64_t end = now_ns();
    counters_.journal_records++;
    if (on) {
      Tracer& tracer = Tracer::get();
      const std::uint64_t group = counters_.strategy.load();
      if (snapshot && last_end_ != 0) {
        // The engine builds the snapshot (StateTracker::to_snapshot)
        // between the append that triggers it and the snapshot append.
        tracer.add(Span{"engine.journal_snapshot_build", tracer.next_id(),
                        t_parent, group, last_end_, start, 0});
      }
      tracer.add(Span{
          snapshot ? "engine.journal_snapshot" : "engine.journal_append",
          tracer.next_id(), t_parent, group, start, end,
          snapshot ? file_size() - before : 0});
    }
    last_end_ = end;
    return result;
  }
  util::Result<void> sync() override { return inner_.sync(); }
  [[nodiscard]] std::uint64_t records_written() const override {
    return inner_.records_written();
  }

 private:
  std::int64_t file_size() const {
    struct stat st{};
    return ::fstat(fd_, &st) == 0 ? static_cast<std::int64_t>(st.st_size) : 0;
  }

  engine::Journal& inner_;
  int fd_;
  Counters& counters_;
  /// End of the previous append; appends are serialized by the engine.
  std::int64_t last_end_ = 0;
};

/// A memory-backed file (the journal's "tmpfs"), reachable by path so
/// FileJournal opens it like any file. Nothing touches the disk.
class MemFile {
 public:
  MemFile() : fd_(::memfd_create("perfbench-journal", MFD_CLOEXEC)) {}
  ~MemFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::string path() const {
    return "/proc/self/fd/" + std::to_string(fd_);
  }
  /// Drops the content between strategies so memory stays bounded; the
  /// journal keeps appending (O_APPEND) at the new end.
  void clear() const {
    if (::ftruncate(fd_, 0) != 0) return;
  }

 private:
  int fd_;
};

// ---------------------------------------------------------------------
// Inputs

const char* const kChecksQueries[8][2] = {
    {"up{service=\"product\",version=\"a\"}", ">=0"},
    {"sum(up{service=\"product\"})", ">=0"},
    {"count(up{service=\"product\",version=\"stable\"})", ">=0"},
    {"avg(response_time_ms{service=\"product\",version=\"a\"}[60s])",
     "<100000"},
    {"max(response_time_ms{service=\"product\",version=\"stable\"}[60s])",
     "<100000"},
    {"rate(request_errors{service=\"product\",version=\"a\"}[5m])", "<100000"},
    {"increase(request_errors{service=\"product\",version=\"stable\"}[60s])",
     "<100000"},
    {"avg(response_time_ms{service=\"product\",version=\"a\"}[60s]) - "
     "avg(response_time_ms{service=\"product\",version=\"stable\"}[60s])",
     "<100000"},
};
const char* const kRampQuery =
    "avg(response_time_ms{service=\"search\",version=\"canary\"}[60s])";
constexpr double kStoreEnd = 600.0;

/// Per-service/version/instance series over 600 s, values from --seed.
void seed_store(metrics::TimeSeriesStore& store, std::uint64_t seed) {
  util::Rng rng(splitmix64(seed ^ 0x5E7));
  for (const char* service : {"product", "search"}) {
    for (const char* version : {"stable", "a", "canary"}) {
      for (int instance = 0; instance < 4; ++instance) {
        const metrics::Labels labels{{"service", service},
                                     {"version", version},
                                     {"instance", std::to_string(instance)}};
        double errors = 0.0;
        for (double t = 1.0; t <= kStoreEnd; t += 1.0) {
          store.record("up", labels, t, 1.0);
          store.record("response_time_ms", labels, t,
                       40.0 + 20.0 * rng.uniform());
          errors += static_cast<double>(rng.uniform_int(0, 2));
          store.record("request_errors", labels, t, errors);
        }
      }
    }
  }
}

core::CheckDef make_check(const std::string& name, const std::string& query,
                          const std::string& validator, int executions) {
  core::CheckDef check;
  check.name = name;
  core::MetricCondition condition;
  condition.provider = "prometheus";
  condition.alias = name;
  condition.query = query;
  condition.validator = core::Validator::parse(validator).value();
  check.conditions.push_back(std::move(condition));
  check.interval = kInterval;
  check.executions = executions;
  check.thresholds = {executions - 0.5};
  check.outputs = {0, 1};
  return check;
}

core::ServiceRouting split(const std::string& service, const std::string& base,
                           const std::string& canary, double percent) {
  core::ServiceRouting routing;
  routing.service = service;
  if (percent < 100.0) {
    routing.splits.push_back({base, 100.0 - percent, "", ""});
  }
  if (percent > 0.0) routing.splits.push_back({canary, percent, "", ""});
  return routing;
}

core::StateDef final_state(const std::string& name, core::FinalKind kind,
                           core::ServiceRouting routing) {
  core::StateDef state;
  state.name = name;
  state.final_kind = kind;
  state.routing.push_back(std::move(routing));
  return state;
}

/// The paper's Fig 10 shape: 2 phases of 8n checks, 5 executions each.
core::StrategyDef checks_strategy(std::uint16_t metrics_port,
                                  std::uint16_t admin_port) {
  core::StrategyDef def;
  def.name = "enact-checks";
  def.initial_state = "phase-1";
  def.providers["prometheus"] = core::ProviderConfig{"127.0.0.1", metrics_port};
  core::ServiceDef product;
  product.name = "product";
  product.versions = {core::VersionDef{"stable", "127.0.0.1", 9},
                      core::VersionDef{"a", "127.0.0.1", 9}};
  product.proxy_admin_host = "127.0.0.1";
  product.proxy_admin_port = admin_port;
  def.services.push_back(product);
  for (const char* phase : {"phase-1", "phase-2"}) {
    core::StateDef state;
    state.name = phase;
    for (int g = 0; g < kCheckGroups; ++g) {
      for (int i = 0; i < 8; ++i) {
        state.checks.push_back(make_check(
            std::string(phase) + "-g" + std::to_string(g) + "-c" +
                std::to_string(i),
            kChecksQueries[i][0], kChecksQueries[i][1], kExecutions));
      }
    }
    state.thresholds = {static_cast<double>(state.checks.size()) - 0.5};
    state.transitions = {"rollback",
                         std::string(phase) == "phase-1" ? "phase-2" : "done"};
    state.routing.push_back(split("product", "stable", "a", 5.0));
    def.states.push_back(std::move(state));
  }
  def.states.push_back(final_state("done", core::FinalKind::kSuccess,
                                   split("product", "stable", "a", 100.0)));
  def.states.push_back(final_state("rollback", core::FinalKind::kRollback,
                                   split("product", "stable", "a", 0.0)));
  return def;
}

/// A 100-step ramp (1% -> 100%) on a service federated over 3 regions.
core::StrategyDef ramp_strategy(std::uint16_t metrics_port,
                                const std::vector<std::uint16_t>& admins) {
  core::StrategyDef def;
  def.name = "enact-ramp";
  def.initial_state = "step-1";
  def.providers["prometheus"] = core::ProviderConfig{"127.0.0.1", metrics_port};
  core::ServiceDef search;
  search.name = "search";
  search.versions = {core::VersionDef{"stable", "127.0.0.1", 9},
                     core::VersionDef{"canary", "127.0.0.1", 9}};
  const char* const names[] = {"eu-west", "us-east", "ap-south"};
  for (std::size_t r = 0; r < admins.size(); ++r) {
    search.regions.push_back(core::RegionDef{names[r], "127.0.0.1", admins[r],
                                             1.0, static_cast<int>(r)});
  }
  search.quorum = 2;
  def.services.push_back(search);
  for (int step = 1; step <= kRampSteps; ++step) {
    core::StateDef state;
    state.name = "step-" + std::to_string(step);
    state.checks.push_back(
        make_check("latency-" + std::to_string(step), kRampQuery, "<100000",
                   1));
    state.thresholds = {0.5};
    state.transitions = {"rollback", step == kRampSteps
                                         ? std::string("done")
                                         : "step-" + std::to_string(step + 1)};
    state.routing.push_back(split("search", "stable", "canary", step));
    def.states.push_back(std::move(state));
  }
  def.states.push_back(final_state("done", core::FinalKind::kSuccess,
                                   split("search", "stable", "canary", 100.0)));
  def.states.push_back(final_state("rollback", core::FinalKind::kRollback,
                                   split("search", "stable", "canary", 0.0)));
  return def;
}

// ---------------------------------------------------------------------
// The stack

/// Watches one strategy's event stream (on the loop thread) for the
/// check-cycle and transition figures.
class Observer {
 public:
  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    done_ = false;
    last_exec_.clear();
    last_check_ns_ = 0;
  }

  void on_event(const StatusEvent& event) {
    const std::int64_t now = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    switch (event.type) {
      case StatusEvent::Type::kCheckExecuted: {
        auto [it, fresh] = last_exec_.try_emplace(event.check, now);
        if (!fresh) {
          cycles_us_.push_back(
              static_cast<double>(now - it->second - kInterval.count()) / 1e3);
          it->second = now;
        }
        last_check_ns_ = now;
        break;
      }
      case StatusEvent::Type::kRoutingApplied:
        if (last_check_ns_ != 0) {
          windows_.emplace_back(last_check_ns_, now);
          last_check_ns_ = 0;
        }
        break;
      case StatusEvent::Type::kFinished:
      case StatusEvent::Type::kAborted:
        done_ = true;
        cv_.notify_all();
        break;
      default:
        break;
    }
  }

  bool wait(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [this] { return done_; });
  }

  /// Figures gathered so far (call between strategies).
  std::vector<double> cycles_us() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return cycles_us_;
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> windows() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return windows_;
  }
  void clear_figures() {
    const std::lock_guard<std::mutex> lock(mutex_);
    cycles_us_.clear();
    windows_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::map<std::string, std::int64_t> last_exec_;
  std::int64_t last_check_ns_ = 0;
  std::vector<double> cycles_us_;
  std::vector<std::pair<std::int64_t, std::int64_t>> windows_;
};

std::unique_ptr<engine::FileJournal> open_journal(const std::string& path) {
  auto journal = engine::FileJournal::open(path);
  if (!journal.ok()) throw std::runtime_error(journal.error_message());
  return std::move(journal).value();
}

proxy::ProxyConfig placeholder_config(const std::string& service) {
  proxy::ProxyConfig config;
  config.service = service;
  config.backends = {
      proxy::BackendTarget{"stable", "127.0.0.1", 9, 100.0, "", "", 0, 0}};
  return config;
}

struct EnactStack {
  EnactStack(metrics::TimeSeriesStore& store, bool ramp, Counters& counters)
      : sched(loop, counters),
        exec(pool, counters),
        metrics_client(http_metrics, counters),
        pushes(http_proxies, counters),
        journal_file(open_journal(memfile.path())),
        journal(*journal_file, memfile.fd(), counters) {
    metrics_server = std::make_unique<metrics::MetricsServer>(store);
    metrics_server->start();
    const std::string service = ramp ? "search" : "product";
    for (int i = 0; i < (ramp ? 3 : 1); ++i) {
      proxies.push_back(std::make_unique<proxy::BifrostProxy>(
          proxy::BifrostProxy::Options{}, placeholder_config(service)));
      proxies.back()->start();
      admin_ports.push_back(proxies.back()->admin_port());
    }
    loop.start();
    engine::Engine::Options options;
    options.journal = &journal;
    options.check_executor = &exec;
    engine = std::make_unique<engine::Engine>(sched, metrics_client, pushes,
                                              options);
  }

  EnactStack(const EnactStack&) = delete;
  EnactStack& operator=(const EnactStack&) = delete;

  ~EnactStack() {
    pool.wait_idle();
    loop.stop();
    engine.reset();
    pool.shutdown();
    for (auto& p : proxies) p->stop();
    metrics_server->stop();
  }

  core::StrategyDef strategy(bool ramp) const {
    return ramp ? ramp_strategy(metrics_server->port(), admin_ports)
                : checks_strategy(metrics_server->port(), admin_ports[0]);
  }

  runtime::EventLoop loop;
  runtime::WorkStealingPool pool{kPoolWorkers};
  engine::HttpMetricsClient http_metrics;
  engine::HttpProxyController http_proxies;
  TracedScheduler sched;
  TracedExecutor exec;
  TracedMetrics metrics_client;
  RegionPushController pushes;
  MemFile memfile;
  std::unique_ptr<engine::FileJournal> journal_file;
  TracedJournal journal;
  std::unique_ptr<metrics::MetricsServer> metrics_server;
  std::vector<std::unique_ptr<proxy::BifrostProxy>> proxies;
  std::vector<std::uint16_t> admin_ports;
  std::unique_ptr<engine::Engine> engine;
};

/// version -> percent of the non-zero backends.
std::map<std::string, double> split_of(const proxy::ProxyConfig& config) {
  std::map<std::string, double> out;
  for (const auto& backend : config.backends) {
    if (backend.percent > 0.0) out[backend.version] = backend.percent;
  }
  return out;
}

std::map<std::string, double> split_of(const core::ServiceRouting& routing) {
  std::map<std::string, double> out;
  for (const auto& s : routing.splits) {
    if (s.percent > 0.0) out[s.version] = s.percent;
  }
  return out;
}

struct Enacted {
  double delay_s = 0.0;
  double wall_s = 0.0;
};

/// Submits one strategy, waits for it, checks its outcome.
std::optional<Enacted> enact_one(EnactStack& stack, Observer& observer,
                                 const core::StrategyDef& def, bool ramp,
                                 Result& result) {
  observer.reset();
  const std::int64_t start = now_ns();
  auto id = stack.engine->submit(
      def, [&observer](const StatusEvent& e) { observer.on_event(e); });
  Tracer::get().add(Span{"engine.submit", Tracer::get().next_id(), 0, 0, start,
                         now_ns(), 0});
  if (!id.ok()) {
    result.fail("submit rejected: " + id.error_message());
    return std::nullopt;
  }
  if (!observer.wait(60s)) {
    result.fail("strategy did not finish within 60 s");
    return std::nullopt;
  }
  const std::int64_t end = now_ns();
  const auto snapshot = stack.engine->status(id.value());
  if (!snapshot) {
    result.fail("no status for " + id.value());
    return std::nullopt;
  }
  const std::uint64_t transitions = ramp ? kRampSteps : 2;
  const std::uint64_t checks =
      ramp ? kRampSteps : 2ULL * 8 * kCheckGroups * kExecutions;
  bool ok = true;
  if (snapshot->status != engine::ExecutionStatus::kSucceeded) {
    result.fail(std::string("strategy ended ") +
                engine::execution_status_name(snapshot->status));
    ok = false;
  }
  if (snapshot->transitions != transitions ||
      snapshot->checks_executed != checks) {
    result.fail("strategy made " + std::to_string(snapshot->transitions) +
                " transitions and " +
                std::to_string(snapshot->checks_executed) + " check runs");
    ok = false;
  }
  const auto want = split_of(def.find_state("done")->routing[0]);
  for (const auto& p : stack.proxies) {
    if (split_of(p->current_config()) != want) {
      result.fail("a proxy's final config differs from the last state");
      ok = false;
    }
  }
  if (!ok) return std::nullopt;
  return Enacted{snapshot->enactment_delay_seconds,
                 static_cast<double>(end - start) / 1e9};
}

/// Share of the transition windows' time covered by the layer spans
/// recorded inside them: pushes and every engine.journal_* span.
void window_cover(const std::vector<Span>& spans,
                  const std::vector<std::pair<std::int64_t, std::int64_t>>& w,
                  Metrics& layers) {
  double total = 0.0;
  for (const auto& [a, b] : w) total += static_cast<double>(b - a);
  std::map<std::string, double> inside;
  for (const Span& span : spans) {
    const std::string name = span.name;
    if (name != "engine.push" && name.rfind("engine.journal_", 0) != 0) {
      continue;
    }
    auto it = std::upper_bound(
        w.begin(), w.end(), span.start_ns,
        [](std::int64_t t, const auto& win) { return t < win.first; });
    if (it == w.begin()) continue;
    --it;
    if (span.start_ns >= it->first && span.end_ns <= it->second) {
      inside[name] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  double covered = 0.0;
  for (const auto& [name, ns] : inside) covered += ns;
  layers["trace.layer_sum_ratio"] = {total > 0 ? covered / total : 0.0,
                                     "ratio"};
  layers["trace.window_push_share"] = {
      total > 0 ? inside["engine.push"] / total : 0.0, "ratio"};
  layers["trace.window_journal_share"] = {
      total > 0 ? (covered - inside["engine.push"]) / total : 0.0,
      "ratio"};
}

/// Replays: metrics::evaluate on the workload's queries against the
/// same store, BifrostProxy::apply on the workload's configs, and
/// FileJournal::sync on a memory-backed journal.
void replays(const metrics::TimeSeriesStore& store,
             const core::StrategyDef& def, bool ramp, Metrics& layers) {
  std::vector<std::string> queries;
  if (ramp) {
    queries.push_back(kRampQuery);
  } else {
    for (const auto& q : kChecksQueries) queries.push_back(q[0]);
  }
  std::vector<double> eval_us;
  double sink = 0.0;
  for (int round = 0; round < 64; ++round) {
    for (const std::string& q : queries) {
      const std::int64_t start = now_ns();
      auto value = metrics::evaluate(store, q, kStoreEnd);
      eval_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
      if (value.ok()) sink += value.value().value;
    }
  }
  layers["metrics.eval_us.p50"] = {percentile(eval_us, 50), "us"};

  const core::ServiceDef& service = def.services[0];
  proxy::BifrostProxy target(proxy::BifrostProxy::Options{},
                             placeholder_config(service.name));
  std::vector<double> apply_us;
  std::uint64_t epoch = 1;
  for (int round = 0; round < 4; ++round) {
    for (const core::StateDef& state : def.states) {
      auto config = engine::build_proxy_config(service, state.routing[0]);
      if (!config.ok()) continue;
      config.value().epoch = epoch++;
      const std::int64_t start = now_ns();
      (void)target.apply(std::move(config).value());
      apply_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
  }
  layers["proxy.apply_us.p50"] = {percentile(apply_us, 50), "us"};

  MemFile file;
  auto journal = engine::FileJournal::open(file.path(), {1U << 30});
  std::vector<double> sync_us;
  if (journal.ok()) {
    for (int i = 0; i < 512; ++i) {
      (void)journal.value()->append(engine::RecordType::kStarted,
                                    json::Object{{"id", i}});
      const std::int64_t start = now_ns();
      (void)journal.value()->sync();
      sync_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    }
  }
  layers["engine.journal_sync_us.p50"] = {percentile(sync_us, 50), "us"};
  keep(sink);
}

}  // namespace

Result run_enact(const Args& args, bool ramp) {
  const bool traced = args.trace;
  Result result;
  Tracer::get().enable(false);
  metrics::TimeSeriesStore store;
  seed_store(store, args.seed);
  const int strategies = std::max(
      1, static_cast<int>((ramp ? kRampsPerSecond : kChecksPerSecond) *
                          args.seconds));

  // Set-up: servers, proxies, journal, loop, pool, engine, then one
  // warm-up strategy. Done kSetupRounds times; the last stack is kept.
  Counters counters;
  Observer observer;
  std::vector<double> setup_seconds;
  std::unique_ptr<EnactStack> stack;
  for (int round = 0; round < kSetupRounds; ++round) {
    stack.reset();
    const std::int64_t start = now_ns();
    stack = std::make_unique<EnactStack>(store, ramp, counters);
    if (!enact_one(*stack, observer, stack->strategy(ramp), ramp, result)) {
      return result;
    }
    setup_seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
    stack->memfile.clear();
  }
  observer.clear_figures();
  const std::uint64_t records_before = counters.journal_records.load();
  const std::uint64_t queries0 = counters.queries.load();
  const std::uint64_t pushes0 = counters.pushes.load();
  const std::uint64_t slow_q0 = counters.query_slow.load();
  const std::uint64_t slow_p0 = counters.push_slow.load();
  const std::uint64_t fail_q0 = counters.query_failed.load();
  const std::uint64_t fail_p0 = counters.push_failed.load();

  // Measured: `strategies` enactments back to back on this one engine,
  // each bracketed by floor bursts (see floor.hpp).
  Floor floor;
  const auto floor_p50 = [&floor] {
    return floor.p50_us([](std::uint64_t) { return kFloorWire; },
                        kFloorRounds);
  };
  std::vector<double> floors{floor_p50()};
  const core::StrategyDef def = stack->strategy(ramp);
  const double ops_per_strategy =
      ramp ? kRampSteps : 2.0 * 8 * kCheckGroups * kExecutions;
  std::vector<double> delays;
  // Per strategy: p50 and p99 of the workload's operation (check cycle
  // or transition) and its wall time per operation, which also sees
  // what the p50 leaves out (journal snapshots on enact-ramp). The run
  // reports medians, or block medians (op_time_rel), over strategies,
  // so a stall or an interference burst that hits a few strategies
  // does not move the figures.
  std::vector<double> op_p50;
  std::vector<double> op_p99;
  std::vector<double> op_time_us;
  std::vector<double> rel_op;   ///< untraced strategies
  std::vector<double> rel_all;  ///< every strategy, in order
  // Transition windows of the traced strategies (closure on enact-ramp).
  std::vector<std::pair<std::int64_t, std::int64_t>> traced_windows;
  for (int k = 0; k < strategies; ++k) {
    counters.strategy.store(static_cast<std::uint64_t>(k + 1));
    // A traced run traces every other strategy; the untraced ones give
    // its end-to-end figures and the tracing overhead.
    const bool traced_strategy = traced && k % 2 == 0;
    Tracer::get().enable(traced_strategy);
    ++result.attempted;
    const std::size_t cycles_before = observer.cycles_us().size();
    const std::size_t windows_before = observer.windows().size();
    const auto done = enact_one(*stack, observer, def, ramp, result);
    stack->pool.wait_idle();
    Tracer::get().enable(false);
    if (!done) {
      ++result.failed;
      break;
    }
    delays.push_back(done->delay_s);
    std::vector<double> ops;
    if (ramp) {
      const auto windows = observer.windows();
      for (std::size_t i = windows_before; i < windows.size(); ++i) {
        ops.push_back(
            static_cast<double>(windows[i].second - windows[i].first) / 1e3);
        if (traced_strategy) traced_windows.push_back(windows[i]);
      }
    } else {
      const auto cycles = observer.cycles_us();
      ops.assign(cycles.begin() + static_cast<std::ptrdiff_t>(cycles_before),
                 cycles.end());
    }
    op_p50.push_back(percentile(ops, 50));
    op_p99.push_back(percentile(ops, 99));
    op_time_us.push_back(done->wall_s * 1e6 / ops_per_strategy);
    stack->memfile.clear();
    floors.push_back(floor_p50());
    const double around = (floors[floors.size() - 2] + floors.back()) / 2;
    if (around <= 0) {
      result.fail("floor round trip failed");
      break;
    }
    rel_all.push_back(op_time_us.back() / around);
    if (!traced_strategy) rel_op.push_back(rel_all.back());
  }

  const auto cycles = observer.cycles_us();
  const auto windows = observer.windows();
  std::vector<double> transitions_us;
  for (const auto& [a, b] : windows) {
    transitions_us.push_back(static_cast<double>(b - a) / 1e3);
  }

  const std::uint64_t query_slow = counters.query_slow.load() - slow_q0;
  const std::uint64_t push_slow = counters.push_slow.load() - slow_p0;
  result.end_to_end["setup_s"] = {median(setup_seconds), "s"};
  result.end_to_end["op_time_rel"] = {block_median_mean(rel_op, kBlock),
                                      "ratio"};
  result.detail["enact_delay_s"] = {median(delays), "s"};
  result.detail["latency_p50_us"] = {median(op_p50), "us"};
  result.detail["latency_p99_us"] = {median(op_p99), "us"};
  result.detail["op_time_us"] = {median(op_time_us), "us"};
  result.detail["floor_us"] = {median(floors), "us"};
  result.detail["transition_p50_ms"] = {percentile(transitions_us, 50) / 1e3,
                                        "ms"};
  if (!ramp) {
    result.detail["check_cycle_p50_us"] = {percentile(cycles, 50), "us"};
  }
  result.detail["engine.query_slow"] = {static_cast<double>(query_slow),
                                        "count"};
  result.detail["engine.push_slow"] = {static_cast<double>(push_slow),
                                       "count"};
  const std::uint64_t query_failed = counters.query_failed.load() - fail_q0;
  const std::uint64_t push_failed = counters.push_failed.load() - fail_p0;
  if (query_failed + push_failed > 0) {
    result.fail(std::to_string(query_failed) + " queries and " +
                std::to_string(push_failed) + " pushes failed");
  }

  if (traced) {
    std::vector<Span> spans = Tracer::get().drain();
    Metrics& layers = result.layers;
    report_tracing_overhead(rel_all, layers);
    const auto task = durations_us(spans, "runtime.task");
    double busy = 0.0;
    for (const double t : task) busy += t;
    layers["runtime.timer_late_us.p50"] = {
        percentile(durations_us(spans, "runtime.timer_late"), 50), "us"};
    layers["runtime.timer_late_us.p99"] = {
        percentile(durations_us(spans, "runtime.timer_late"), 99), "us"};
    layers["runtime.loop_busy_s"] = {busy / 1e6, "s"};
    layers["runtime.task_us.p99"] = {percentile(task, 99), "us"};
    const auto wait = durations_us(spans, "runtime.pool_wait");
    layers["runtime.pool_wait_us.p50"] = {percentile(wait, 50), "us"};
    layers["runtime.pool_wait_us.p99"] = {percentile(wait, 99), "us"};
    layers["runtime.pool_job_us.p50"] = {
        percentile(durations_us(spans, "runtime.pool_job"), 50), "us"};
    layers["runtime.marshal_us.p50"] = {
        percentile(durations_us(spans, "runtime.marshal"), 50), "us"};
    const auto query = durations_us(spans, "engine.query");
    layers["engine.query_us.p50"] = {percentile(query, 50), "us"};
    layers["engine.query_us.p99"] = {percentile(query, 99), "us"};
    layers["engine.queries"] = {
        static_cast<double>(counters.queries.load() - queries0), "count"};
    layers["engine.query_slow"] = {static_cast<double>(query_slow), "count"};
    layers["engine.query_failed"] = {static_cast<double>(query_failed),
                                     "count"};
    const auto push = durations_us(spans, "engine.push");
    layers["engine.push_us.p50"] = {percentile(push, 50), "us"};
    layers["engine.push_us.p99"] = {percentile(push, 99), "us"};
    for (std::size_t r = 0; r < stack->proxies.size() && ramp; ++r) {
      std::vector<double> region;
      for (const Span& s : spans) {
        if (std::string("engine.push") == s.name &&
            s.value == static_cast<std::int64_t>(r)) {
          region.push_back(s.us());
        }
      }
      layers["engine.push_us.region" + std::to_string(r) + ".p50"] = {
          percentile(region, 50), "us"};
    }
    layers["engine.pushes"] = {
        static_cast<double>(counters.pushes.load() - pushes0), "count"};
    layers["engine.push_slow"] = {static_cast<double>(push_slow), "count"};
    layers["engine.push_failed"] = {static_cast<double>(push_failed), "count"};
    const auto append = durations_us(spans, "engine.journal_append");
    layers["engine.journal_append_us.p50"] = {percentile(append, 50), "us"};
    layers["engine.journal_append_us.p99"] = {percentile(append, 99), "us"};
    const auto snap = durations_us(spans, "engine.journal_snapshot");
    double snap_bytes = 0.0;
    for (const Span& s : spans) {
      if (std::string("engine.journal_snapshot") == s.name) {
        snap_bytes = std::max(snap_bytes, static_cast<double>(s.value));
      }
    }
    layers["engine.journal_snapshot_us.p50"] = {percentile(snap, 50), "us"};
    layers["engine.journal_snapshot_build_us.p50"] = {
        percentile(durations_us(spans, "engine.journal_snapshot_build"), 50),
        "us"};
    layers["engine.journal_snapshot_us.max"] = {percentile(snap, 100), "us"};
    layers["engine.journal_snapshot_bytes.max"] = {snap_bytes, "bytes"};
    layers["engine.journal_records"] = {
        static_cast<double>(counters.journal_records.load() - records_before),
        "count"};
    layers["engine.submit_us.p50"] = {
        percentile(durations_us(spans, "engine.submit"), 50), "us"};
    if (ramp) window_cover(spans, traced_windows, layers);
    replays(store, def, ramp, layers);
    result.spans = std::move(spans);
  }
  return result;
}

}  // namespace perfbench

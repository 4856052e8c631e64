// proxy-pass and proxy-darklaunch: a closed loop of kClients client
// threads, each on its own keep-alive connection, sending requests
// through a real BifrostProxy to trivial in-process backends.
//
// Layer timing from outside the proxy: every request carries an
// X-Bench-Id header that the proxy forwards; the backend stamps handler
// entry and exit into a per-client ring, and the client, which stamped
// its own write and full-response times, splits the round trip into
// inbound (client write -> backend entry), backend self time and
// outbound (backend return -> client holds the response).
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>

#include "floor.hpp"
#include "http/parser.hpp"
#include "http/server.hpp"
#include "proxy/proxy.hpp"
#include "proxy/session_table.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bifrost;

namespace {

constexpr int kClients = 4;
constexpr int kUsers = 10000;
constexpr int kWarmupPerClient = 500;
constexpr int kSetupRounds = 9;
/// The measured period is cut into one-second windows, each on freshly
/// opened connections; block medians over windows keep a short
/// interference burst on a shared host (or one unlucky
/// connection-to-reactor placement) from moving the result.
constexpr std::int64_t kWindowNs = 1000000000;
/// A request slower than this counts as stalled. Most stalls hit the
/// last request in flight on a reactor worker while a closed loop winds
/// down: no other traffic arrives to rescue a lost eventfd wakeup, so
/// the response waits out the 250 ms epoll timeout (see NOTES.md).
constexpr double kStallUs = 100000.0;
constexpr std::size_t kRing = 1 << 15;
constexpr std::size_t kDarkBody = 4096;
constexpr double kShareA = 10.0;  ///< percent of users routed to "a"
constexpr const char* kIdHeader = "X-Bench-Id";
/// Round trips in each floor burst.
constexpr std::uint64_t kFloorRounds = 4000;
/// proxy-darklaunch fails below this share of live requests shadowed.
constexpr double kMinShadowRatio = 0.99;

struct Slot {
  std::atomic<std::uint64_t> seq{~0ULL};
  std::atomic<std::int64_t> entry{0};
  std::atomic<std::int64_t> exit{0};
};

/// State shared by the client threads and the stand-in backends.
struct Probe {
  Probe() {
    for (auto& ring : rings) ring = std::make_unique<Slot[]>(kRing);
  }
  std::array<std::unique_ptr<Slot[]>, kClients> rings;
  std::atomic<std::uint64_t> shadow_received{0};
  std::atomic<std::uint64_t> shadow_unmarked{0};
  std::atomic<std::uint64_t> live_marked{0};
};

/// "client-seq" -> (client, seq); nullopt when malformed.
std::optional<std::pair<int, std::uint64_t>> parse_id(
    const http::Request& request) {
  const auto value = request.headers.get(kIdHeader);
  if (!value) return std::nullopt;
  const auto dash = value->find('-');
  if (dash == std::string::npos) return std::nullopt;
  const int client = std::atoi(value->substr(0, dash).c_str());
  if (client < 0 || client >= kClients) return std::nullopt;
  return std::make_pair(client,
                        std::strtoull(value->c_str() + dash + 1, nullptr, 10));
}

std::uint64_t request_id(int client, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(client + 1) << 40) | seq;
}

http::HttpServer::Handler live_backend(Probe& probe, std::string version) {
  return [&probe, version](const http::Request& request) {
    const std::int64_t entry = now_ns();
    if (request.headers.has(proxy::kShadowHeader)) probe.live_marked++;
    http::Response response = http::Response::text(200, "ok " + version);
    if (Tracer::get().on()) {
      if (const auto id = parse_id(request)) {
        Slot& slot = probe.rings[id->first][id->second % kRing];
        slot.entry.store(entry, std::memory_order_relaxed);
        slot.exit.store(now_ns(), std::memory_order_relaxed);
        slot.seq.store(id->second, std::memory_order_release);
      }
    }
    return response;
  };
}

http::HttpServer::Handler shadow_backend(Probe& probe) {
  return [&probe](const http::Request& request) {
    const std::int64_t arrival = now_ns();
    probe.shadow_received++;
    if (!request.headers.has(proxy::kShadowHeader)) probe.shadow_unmarked++;
    if (Tracer::get().on()) {
      if (const auto id = parse_id(request)) {
        const Slot& slot = probe.rings[id->first][id->second % kRing];
        if (slot.seq.load(std::memory_order_acquire) == id->second) {
          Tracer::get().add(Span{"shadow.lag", Tracer::get().next_id(), 0,
                                 request_id(id->first, id->second),
                                 slot.entry.load(std::memory_order_relaxed),
                                 arrival, 0});
        }
      }
    }
    return http::Response::text(200, "dark");
  };
}

/// The generated inputs: a seeded user population and, per client, a
/// seeded sequence of users to send requests for.
struct Inputs {
  std::vector<std::string> cookies;                  ///< per user
  std::array<std::vector<int>, kClients> user_seq;   ///< per client
  std::array<std::string, kClients> bodies;          ///< darklaunch bodies
  bool darklaunch = false;

  std::string wire(int client, std::uint64_t seq) const {
    const int user = user_of(client, seq);
    const std::string& body = darklaunch ? bodies[client] : tiny_body();
    std::string out;
    out.reserve(160 + body.size());
    out += darklaunch ? "POST" : "GET";
    out += " /item?u=";
    out += std::to_string(user);
    out += " HTTP/1.1\r\nHost: bench\r\nCookie: ";
    out += proxy::kStickyCookie;
    out += '=';
    out += cookies[static_cast<std::size_t>(user)];
    out += "\r\n";
    out += kIdHeader;
    out += ": ";
    out += std::to_string(client);
    out += '-';
    out += std::to_string(seq);
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n\r\n";
    out += body;
    return out;
  }

  int user_of(int client, std::uint64_t seq) const {
    const std::vector<int>& users = user_seq[client];
    return users[seq % users.size()];
  }

  static const std::string& tiny_body() {
    static const std::string body = "hi";
    return body;
  }
};

Inputs make_inputs(std::uint64_t seed, bool darklaunch) {
  Inputs inputs;
  inputs.darklaunch = darklaunch;
  inputs.cookies.reserve(kUsers);
  for (int user = 0; user < kUsers; ++user) {
    const std::uint64_t hi = splitmix64(seed * 0x9E37 + user);
    const std::uint64_t lo = splitmix64(hi ^ 0xC0FFEE);
    char text[40];
    std::snprintf(text, sizeof text, "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    inputs.cookies.emplace_back(text);
  }
  for (int client = 0; client < kClients; ++client) {
    util::Rng rng(splitmix64(seed + 101 + static_cast<std::uint64_t>(client)));
    std::vector<int>& users = inputs.user_seq[client];
    users.resize(1 << 16);
    for (int& user : users) {
      user = static_cast<int>(rng.uniform_int(0, kUsers - 1));
    }
    std::string& body = inputs.bodies[client];
    body.resize(kDarkBody);
    for (char& c : body) c = static_cast<char>('a' + rng.uniform_int(0, 25));
  }
  return inputs;
}

std::unique_ptr<http::HttpServer> start_backend(http::HttpServer::Handler h) {
  http::HttpServer::Options options;
  options.reactor_workers = 1;
  options.worker_threads = 1;
  // Trivial, never-blocking handlers: run on the reactor thread so the
  // stand-in backends add as little as possible beside the proxy.
  options.inline_handlers = true;
  auto server = std::make_unique<http::HttpServer>(options, std::move(h));
  server->start();
  return server;
}

/// One complete user-path stack: backends, proxy, client connections.
struct Stack {
  Stack(const Inputs& inputs, std::uint64_t seed) {
    stable = start_backend(live_backend(probe, "stable"));
    canary = start_backend(live_backend(probe, "a"));
    if (inputs.darklaunch) dark = start_backend(shadow_backend(probe));

    proxy::ProxyConfig config;
    config.service = "bench";
    config.mode = core::RoutingMode::kCookie;
    config.sticky = true;
    config.default_version = "stable";
    config.backends = {
        proxy::BackendTarget{"stable", "127.0.0.1", stable->port(),
                             100.0 - kShareA, "", "", 0, 0},
        proxy::BackendTarget{"a", "127.0.0.1", canary->port(), kShareA, "", "",
                             0, 0}};
    if (inputs.darklaunch) {
      for (const char* source : {"stable", "a"}) {
        config.shadows.push_back(proxy::ShadowTarget{
            source, "dark", "127.0.0.1", dark->port(), 100.0});
      }
    }
    proxy::BifrostProxy::Options options;
    options.rng_seed = splitmix64(seed ^ 0xB1F);
    bifrost = std::make_unique<proxy::BifrostProxy>(options, config);
    bifrost->start();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  ~Stack() {
    for (Conn& conn : conns) conn.close();
    if (bifrost) bifrost->stop();
    for (auto* server : {&stable, &canary, &dark}) {
      if (*server) (*server)->stop();
    }
  }

  bool connect(std::uint16_t port) {
    for (Conn& conn : conns) {
      if (!conn.open(port)) return false;
    }
    return true;
  }

  Probe probe;
  std::unique_ptr<http::HttpServer> stable;
  std::unique_ptr<http::HttpServer> canary;
  std::unique_ptr<http::HttpServer> dark;
  std::unique_ptr<proxy::BifrostProxy> bifrost;
  std::array<Conn, kClients> conns;
};

/// Per-client outcome of a closed loop.
struct LoopStats {
  std::vector<double> latency_us;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t to_a = 0;
  std::vector<std::string> errors;
  /// Requests that completed after the deadline (window mode only).
  std::vector<double> late_latency_us;
  std::uint64_t next_seq = 0;  ///< first request id not yet used
};

/// Sticky pins observed by the clients: 0 = unseen, 1 = stable, 2 = a.
struct Pins {
  Pins() : by_user(kUsers) {}
  std::vector<std::atomic<std::uint8_t>> by_user;
  std::atomic<std::uint64_t> switches{0};

  void observe(int user, std::uint8_t version) {
    std::uint8_t expected = 0;
    auto& pin = by_user[static_cast<std::size_t>(user)];
    if (!pin.compare_exchange_strong(expected, version) &&
        expected != version) {
      switches++;
    }
  }
};

/// Runs every client in a closed loop, either for `count` requests each
/// or until `deadline_ns`. `seq0` offsets request ids so rings and ids
/// never repeat within one stack. With `via_proxy` false the requests
/// go straight to a backend (the direct floor) and are not validated
/// against routing.
std::array<LoopStats, kClients> closed_loop(Stack& stack, const Inputs& inputs,
                                            Pins* pins, std::uint64_t seq0,
                                            std::uint64_t count,
                                            std::int64_t deadline_ns,
                                            bool via_proxy, bool spans) {
  std::array<LoopStats, kClients> stats;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& s = stats[c];
      if (count > 0) s.latency_us.reserve(count);
      Conn& conn = stack.conns[c];
      for (std::uint64_t i = 0;; ++i) {
        if (count > 0 ? i >= count : now_ns() >= deadline_ns) break;
        const std::uint64_t seq = seq0 + i;
        s.next_seq = seq + 1;
        const std::string wire = inputs.wire(c, seq);
        const std::int64_t start = now_ns();
        const auto reply = conn.round_trip(wire);
        const std::int64_t done = now_ns();
        ++s.attempted;
        if (!reply) {
          if (s.errors.size() < 3) s.errors.push_back("transport error");
          if (!conn.open(via_proxy ? stack.bifrost->data_port()
                                   : stack.stable->port())) {
            break;
          }
          continue;
        }
        if (reply->status != 200) {
          if (s.errors.size() < 3) {
            s.errors.push_back("HTTP " + std::to_string(reply->status));
          }
          continue;
        }
        if (via_proxy) {
          std::uint8_t version = 0;
          if (reply->version == "stable") version = 1;
          if (reply->version == "a") version = 2;
          if (version == 0) {
            if (s.errors.size() < 3) {
              s.errors.push_back("unexpected version '" + reply->version + "'");
            }
            continue;
          }
          if (version == 2) ++s.to_a;
          if (pins != nullptr) pins->observe(inputs.user_of(c, seq), version);
        }
        ++s.ok;
        if (count == 0 && done > deadline_ns) {
          // Finished after the window closed: correct, but outside the
          // measured period (see kStallUs for why these can be slow).
          s.late_latency_us.push_back(static_cast<double>(done - start) / 1e3);
          continue;
        }
        s.latency_us.push_back(static_cast<double>(done - start) / 1e3);
        if (spans) {
          Tracer& tracer = Tracer::get();
          const std::uint64_t rid = request_id(c, seq);
          const std::uint64_t root = tracer.next_id();
          tracer.add(Span{via_proxy ? "client.request" : "direct.rtt", root, 0,
                          rid, start, done, 0});
          const Slot& slot = stack.probe.rings[c][seq % kRing];
          if (via_proxy && slot.seq.load(std::memory_order_acquire) == seq) {
            const std::int64_t entry =
                slot.entry.load(std::memory_order_relaxed);
            const std::int64_t exit = slot.exit.load(std::memory_order_relaxed);
            tracer.add(Span{"http.inbound", tracer.next_id(), root, rid, start,
                            entry, 0});
            tracer.add(Span{"backend.self", tracer.next_id(), root, rid, entry,
                            exit, 0});
            tracer.add(Span{"http.outbound", tracer.next_id(), root, rid, exit,
                            done, 0});
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return stats;
}

/// Times `op` over every input in batches, returning per-call ns of
/// each batch (a batch amortizes the clock reads).
template <typename Op>
std::vector<double> replay_ns(std::size_t inputs, Op op) {
  constexpr std::size_t kBatch = 32;
  std::vector<double> per_call;
  for (std::size_t begin = 0; begin + kBatch <= inputs; begin += kBatch) {
    const std::int64_t start = now_ns();
    for (std::size_t i = begin; i < begin + kBatch; ++i) op(i);
    per_call.push_back(static_cast<double>(now_ns() - start) / kBatch);
  }
  return per_call;
}

/// Replays of the proxy's public hot-path functions on this workload's
/// own requests.
void replay_hot_path(const Inputs& inputs, const proxy::ProxyConfig& config,
                     std::uint64_t seed, Metrics& layers) {
  constexpr std::size_t kReplays = 8192;
  std::vector<std::string> wires;
  wires.reserve(kReplays);
  for (std::size_t i = 0; i < kReplays; ++i) {
    wires.push_back(inputs.wire(static_cast<int>(i % kClients), i / kClients));
  }
  std::vector<http::Request> parsed(kReplays);
  std::size_t sink = 0;
  const auto parse_ns = replay_ns(kReplays, [&](std::size_t i) {
    http::IncrementalParse result = http::try_parse_request(wires[i]);
    sink += result.consumed;
    parsed[i] = std::move(result.request);
  });
  proxy::SessionTable sessions(16, 1 << 20);
  std::vector<std::optional<std::string>> pinned(kReplays);
  const auto session_ns = replay_ns(kReplays, [&](std::size_t i) {
    const std::string id = parsed[i].cookie(proxy::kStickyCookie).value_or("");
    pinned[i] = sessions.touch(id);
    if (!pinned[i]) sessions.assign(id, "stable");
  });
  util::Rng rng(splitmix64(seed ^ 0xDEC1DE));
  const auto decide_ns = replay_ns(kReplays, [&](std::size_t i) {
    sink += proxy::BifrostProxy::decide_backend(config, parsed[i], pinned[i],
                                                rng);
  });
  keep(sink);
  layers["http.parse_ns.p50"] = {percentile(parse_ns, 50), "ns"};
  layers["proxy.session_ns.p50"] = {percentile(session_ns, 50), "ns"};
  layers["proxy.decide_ns.p50"] = {percentile(decide_ns, 50), "ns"};
}

}  // namespace

Result run_proxy(const Args& args, bool darklaunch) {
  const bool traced = args.trace;
  Result result;
  const Inputs inputs = make_inputs(args.seed, darklaunch);
  Tracer::get().enable(false);

  // Set-up: bind backends and proxy, open the keep-alive connections,
  // send a fixed warm-up. Done kSetupRounds times; the last stack is
  // the one measured.
  std::vector<double> setup_seconds;
  std::unique_ptr<Stack> stack;
  Pins pins;
  std::uint64_t warm_ok = 0;
  std::uint64_t setup_stalls = 0;
  for (int round = 0; round < kSetupRounds; ++round) {
    stack.reset();
    const std::int64_t start = now_ns();
    stack = std::make_unique<Stack>(inputs, args.seed);
    if (!stack->connect(stack->bifrost->data_port())) {
      result.fail("cannot connect to the proxy");
      return result;
    }
    const bool last = round == kSetupRounds - 1;
    const auto warm = closed_loop(*stack, inputs, last ? &pins : nullptr, 0,
                                  kWarmupPerClient, 0, true, false);
    setup_seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
    for (const LoopStats& s : warm) {
      if (s.ok != s.attempted) {
        result.fail("warm-up request failed: " +
                    (s.errors.empty() ? std::string("?") : s.errors[0]));
      }
      if (last) warm_ok += s.ok;
      for (const double l : s.latency_us) setup_stalls += l > kStallUs;
    }
  }

  // Measured closed loop, one-second window by window, each window
  // bracketed by floor bursts: the workload's requests, one at a time,
  // against the benchmark's own responder (see floor.hpp).
  Floor floor;
  const auto floor_p50 = [&] {
    return floor.p50_us(
        [&inputs](std::uint64_t i) { return inputs.wire(0, i); },
        kFloorRounds);
  };
  std::vector<double> floors{floor_p50()};
  std::vector<double> window_rps;
  std::vector<double> window_p50;
  std::vector<double> window_p99;
  std::vector<double> window_op_us;
  std::vector<double> rel_op;   ///< untraced windows
  std::vector<double> rel_all;  ///< every window, in order
  std::uint64_t ok = 0;
  std::uint64_t to_a = 0;
  std::uint64_t stalls = 0;
  std::uint64_t seq0 = kWarmupPerClient;
  for (int window = 0; window < args.seconds; ++window) {
    if (window > 0 && !stack->connect(stack->bifrost->data_port())) {
      result.fail("cannot reconnect to the proxy");
      break;
    }
    // A traced run traces every other window; the untraced windows
    // give its end-to-end figures and the tracing overhead.
    const bool traced_window = traced && window % 2 == 0;
    Tracer::get().enable(traced_window);
    const std::int64_t start = now_ns();
    const auto stats = closed_loop(*stack, inputs, &pins, seq0, 0,
                                   start + kWindowNs, true, traced_window);
    Tracer::get().enable(false);
    std::vector<double> window_latency;
    for (const LoopStats& s : stats) {
      result.attempted += s.attempted;
      ok += s.ok;
      to_a += s.to_a;
      seq0 = std::max(seq0, s.next_seq);
      window_latency.insert(window_latency.end(), s.latency_us.begin(),
                            s.latency_us.end());
      for (const double l : s.late_latency_us) stalls += l > kStallUs;
      for (const std::string& e : s.errors) result.fail(e);
    }
    for (const double l : window_latency) stalls += l > kStallUs;
    if (window_latency.empty()) {
      result.fail("a window completed no request");
      break;
    }
    // Requests completed inside the window, per second of window; the
    // op time is the window's connection time per completed request.
    const double completed = static_cast<double>(window_latency.size());
    window_rps.push_back(completed * 1e9 / static_cast<double>(kWindowNs));
    window_op_us.push_back(kClients * static_cast<double>(kWindowNs) / 1e3 /
                           completed);
    window_p50.push_back(percentile(window_latency, 50));
    window_p99.push_back(percentile(window_latency, 99));
    floors.push_back(floor_p50());
    const double around = (floors[floors.size() - 2] + floors.back()) / 2;
    if (around <= 0) {
      result.fail("floor round trip failed");
      break;
    }
    rel_all.push_back(window_op_us.back() / around);
    if (!traced_window) rel_op.push_back(rel_all.back());
  }
  result.failed = result.attempted - ok;

  // Let dispatched shadow copies land before counting them.
  proxy::BifrostProxy& bifrost = *stack->bifrost;
  if (darklaunch) {
    const std::int64_t give_up = now_ns() + 5000000000LL;
    while (now_ns() < give_up &&
           stack->probe.shadow_received.load() + bifrost.shadows_shed() <
               bifrost.shadow_copies()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Output checks.
  if (pins.switches.load() != 0) {
    result.fail(std::to_string(pins.switches.load()) +
                " sticky users switched version");
  }
  std::uint64_t pinned_users = 0;
  std::uint64_t pinned_a = 0;
  for (const auto& pin : pins.by_user) {
    const std::uint8_t v = pin.load();
    pinned_users += v != 0;
    pinned_a += v == 2;
  }
  const double user_share_a =
      pinned_users == 0 ? 0.0 : 100.0 * pinned_a / pinned_users;
  const double request_share_a = ok == 0 ? 0.0 : 100.0 * to_a / ok;
  if (std::abs(user_share_a - kShareA) > 2.0 ||
      std::abs(request_share_a - kShareA) > 3.0) {
    result.fail("share of 'a' off 10%: users " + std::to_string(user_share_a) +
                "%, requests " + std::to_string(request_share_a) + "%");
  }
  if (stack->probe.live_marked.load() != 0) {
    result.fail("live backend received shadow-marked requests");
  }
  if (stack->probe.shadow_unmarked.load() != 0) {
    result.fail("shadow backend received unmarked requests");
  }
  const std::uint64_t live_total = ok + warm_ok;
  const double shadow_ratio =
      darklaunch && live_total > 0
          ? static_cast<double>(stack->probe.shadow_received.load()) /
                static_cast<double>(live_total)
          : 0.0;
  // A live-path gain bought by shedding shadow copies is a failure,
  // not a speed-up: the drop-oldest queue sheds a few hundredths of a
  // percent when the shadow client keeps up.
  if (darklaunch && shadow_ratio < kMinShadowRatio) {
    result.fail("shadow ratio " + std::to_string(shadow_ratio) + " below " +
                std::to_string(kMinShadowRatio));
  }
  if (ok == 0) result.fail("no request completed");

  result.end_to_end["setup_s"] = {median(setup_seconds), "s"};
  result.end_to_end["op_time_rel"] = {block_median_mean(rel_op, kBlock),
                                      "ratio"};
  result.detail["req_per_s"] = {median(window_rps), "1/s"};
  result.detail["latency_p50_us"] = {median(window_p50), "us"};
  result.detail["latency_p99_us"] = {median(window_p99), "us"};
  result.detail["op_time_us"] = {median(window_op_us), "us"};
  result.detail["floor_us"] = {median(floors), "us"};
  result.detail["proxy.stalls"] = {static_cast<double>(stalls), "count"};
  result.detail["proxy.setup_stalls"] = {static_cast<double>(setup_stalls),
                                         "count"};
  if (darklaunch) result.detail["shadow_ratio"] = {shadow_ratio, "ratio"};

  if (traced) {
    std::vector<Span> spans = Tracer::get().drain();
    Metrics& layers = result.layers;
    report_tracing_overhead(rel_all, layers);
    const auto inbound = durations_us(spans, "http.inbound");
    const auto outbound = durations_us(spans, "http.outbound");
    const auto backend = durations_us(spans, "backend.self");
    const auto client = durations_us(spans, "client.request");
    layers["http.inbound_us.p50"] = {percentile(inbound, 50), "us"};
    layers["http.inbound_us.p99"] = {percentile(inbound, 99), "us"};
    layers["http.outbound_us.p50"] = {percentile(outbound, 50), "us"};
    layers["http.outbound_us.p99"] = {percentile(outbound, 99), "us"};
    layers["backend.self_us.p50"] = {percentile(backend, 50), "us"};
    // Closure: the mean layer rows against the mean client latency.
    const double rows = mean(inbound) + mean(backend) + mean(outbound);
    layers["trace.layer_sum_ratio"] = {
        mean(client) > 0 ? rows / mean(client) : 0.0, "ratio"};
    layers["proxy.self_p50_us"] = {bifrost.latency_for("stable").p50 * 1000.0,
                                   "us"};
    layers["proxy.requests"] = {
        static_cast<double>(bifrost.requests_for("stable") +
                            bifrost.requests_for("a")),
        "count"};
    layers["proxy.backend_errors"] = {
        static_cast<double>(bifrost.backend_errors()), "count"};
    layers["proxy.rejected"] = {
        static_cast<double>(bifrost.rejected_for("stable") +
                            bifrost.rejected_for("a")),
        "count"};
    layers["shadow.copies"] = {static_cast<double>(bifrost.shadow_copies()),
                               "count"};
    layers["shadow.shed"] = {static_cast<double>(bifrost.shadows_shed()),
                             "count"};
    layers["shadow.delivered"] = {
        static_cast<double>(stack->probe.shadow_received.load()), "count"};
    layers["shadow.lag_us.p50"] = {
        percentile(durations_us(spans, "shadow.lag"), 50), "us"};

    // The floor: the same clients straight to the backend for a second.
    Tracer::get().enable(true);
    if (stack->connect(stack->stable->port())) {
      (void)closed_loop(*stack, inputs, nullptr, 1ULL << 32, 0,
                        now_ns() + 1000000000, false, true);
    }
    Tracer::get().enable(false);
    std::vector<Span> direct = Tracer::get().drain();
    layers["direct.rtt_us.p50"] = {
        percentile(durations_us(direct, "direct.rtt"), 50), "us"};
    spans.insert(spans.end(), direct.begin(), direct.end());
    replay_hot_path(inputs, bifrost.current_config(), args.seed, layers);
    result.spans = std::move(spans);
  }
  return result;
}

}  // namespace perfbench

// Open-loop HTTP load generator — the JMeter stand-in of the paper's
// evaluation (§5.1.2: steady 35 req/s with a 4-request mix). Simulated
// users keep cookie jars so sticky sessions behave like real clients.
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
#include <vector>

#include "http/client.hpp"
#include "loadgen/arrivals.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bifrost::loadgen {

/// One template in the request mix.
struct RequestTemplate {
  std::string name;
  double weight = 1.0;
  /// Builds the request; called with the generator's RNG.
  std::function<http::Request(util::Rng&)> make;
};

struct CompletedRequest {
  double at_seconds = 0.0;  ///< send time, offset from run start
  double latency_ms = 0.0;
  int status = 0;  ///< 0 = transport error
  std::size_t user = 0;  ///< virtual-user index that sent the request
  std::string type;
  std::string served_by;  ///< X-Bifrost-Version response header, if any
};

class LoadGenerator {
 public:
  struct Options {
    double requests_per_second = 35.0;
    /// Poisson arrivals (exponential inter-arrival times) instead of a
    /// fixed interval; realistic production traffic is bursty, which is
    /// what makes load-dependent queueing effects visible. Either way
    /// the arrival stream is OPEN LOOP (an ArrivalSchedule seeded from
    /// rng_seed): send times never depend on response times, so a
    /// stalled system under test cannot hide its stall by slowing the
    /// offered load.
    bool poisson = false;
    std::size_t workers = 32;
    std::size_t virtual_users = 50;  ///< cookie jars
    std::uint64_t rng_seed = 7;
    std::chrono::milliseconds request_timeout{10000};
    /// Per-user static headers, stamped on every request the user sends
    /// (e.g. an A/B group header injected at login, paper §4.2.2:
    /// header-based filtering expects an upstream component to set the
    /// field). Called once per virtual user index.
    std::function<std::vector<std::pair<std::string, std::string>>(
        std::size_t)>
        user_headers;
  };

  LoadGenerator(Options options, std::string host, std::uint16_t port,
                std::vector<RequestTemplate> mix);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Starts firing requests (returns immediately).
  void start();

  /// Stops dispatching and drains in-flight requests.
  void stop();

  /// Blocks the caller for `duration` while the generator runs
  /// (convenience for start(); sleep; stop()-style tests).
  void run_for(std::chrono::milliseconds duration);

  /// Snapshot of completed requests so far.
  [[nodiscard]] std::vector<CompletedRequest> results() const;

  /// Latency summary over completions in [from, to) seconds.
  [[nodiscard]] util::Summary latency_summary(double from_seconds,
                                              double to_seconds) const;

  [[nodiscard]] std::uint64_t sent() const { return sent_.load(); }
  [[nodiscard]] std::uint64_t errors() const { return errors_.load(); }

 private:
  struct VirtualUser {
    std::map<std::string, std::string> cookies;
    std::mutex mutex;
  };

  void arrival_loop();
  void fire(std::size_t user_index, const RequestTemplate& tmpl,
            double at_seconds);

  Options options_;
  std::string host_;
  std::uint16_t port_;
  std::vector<RequestTemplate> mix_;
  std::vector<std::unique_ptr<VirtualUser>> users_;

  std::unique_ptr<http::HttpClient> client_;
  std::vector<std::thread> workers_;
  std::thread dispatcher_;
  std::atomic<bool> running_{false};

  // Work queue: (user index, template index, scheduled offset seconds).
  struct Job {
    std::size_t user;
    std::size_t tmpl;
    double at_seconds;
  };
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::vector<Job> queue_;

  std::chrono::steady_clock::time_point start_time_;
  mutable std::mutex results_mutex_;
  std::vector<CompletedRequest> results_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::mutex rng_mutex_;
  util::Rng rng_;
  /// Dispatcher-thread-only: the open-loop arrival clock (seeded from a
  /// stream derived off rng_seed so it is decorrelated from the
  /// template/user picks drawn from rng_).
  ArrivalSchedule arrivals_;
};

}  // namespace bifrost::loadgen

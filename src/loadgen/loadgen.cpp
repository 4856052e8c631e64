#include "loadgen/loadgen.hpp"

#include <condition_variable>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace bifrost::loadgen {

LoadGenerator::LoadGenerator(Options options, std::string host,
                             std::uint16_t port,
                             std::vector<RequestTemplate> mix)
    : options_(options),
      host_(std::move(host)),
      port_(port),
      mix_(std::move(mix)),
      rng_(options.rng_seed),
      arrivals_(options.poisson ? ArrivalSchedule::Mode::kPoisson
                                : ArrivalSchedule::Mode::kFixedRate,
                options.requests_per_second,
                util::derive_seed(options.rng_seed, /*stream=*/1)) {
  if (mix_.empty()) throw std::invalid_argument("loadgen needs a request mix");
  if (options_.requests_per_second <= 0.0) {
    throw std::invalid_argument("loadgen rate must be positive");
  }
  http::HttpClient::Options client_options;
  client_options.io_timeout = options_.request_timeout;
  client_options.max_idle_per_endpoint = options_.workers;
  client_ = std::make_unique<http::HttpClient>(client_options);
  users_.reserve(options_.virtual_users);
  for (std::size_t i = 0; i < options_.virtual_users; ++i) {
    users_.push_back(std::make_unique<VirtualUser>());
  }
}

LoadGenerator::~LoadGenerator() { stop(); }

void LoadGenerator::start() {
  if (running_.exchange(true)) return;
  start_time_ = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] {
      while (true) {
        Job job;
        {
          std::unique_lock<std::mutex> lock(queue_mutex_);
          queue_cv_.wait(lock,
                         [this] { return !running_ || !queue_.empty(); });
          if (queue_.empty()) {
            if (!running_) return;
            continue;
          }
          job = queue_.front();
          queue_.erase(queue_.begin());
        }
        fire(job.user, mix_[job.tmpl], job.at_seconds);
      }
    });
  }
  dispatcher_ = std::thread([this] { arrival_loop(); });
}

void LoadGenerator::stop() {
  if (!running_.exchange(false)) return;
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void LoadGenerator::run_for(std::chrono::milliseconds duration) {
  start();
  std::this_thread::sleep_for(duration);
  stop();
}

void LoadGenerator::arrival_loop() {
  auto next = start_time_;
  std::uint64_t sequence = 0;
  while (running_.load()) {
    // Open loop: the next send time comes from the pre-seeded arrival
    // schedule, never from how long previous requests took.
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(arrivals_.next_gap_seconds()));
    std::this_thread::sleep_until(next);
    if (!running_.load()) break;

    std::size_t tmpl;
    std::size_t user;
    {
      const std::lock_guard<std::mutex> lock(rng_mutex_);
      // Weighted template pick.
      double total = 0.0;
      for (const RequestTemplate& t : mix_) total += t.weight;
      double roll = rng_.uniform() * total;
      tmpl = 0;
      for (std::size_t i = 0; i < mix_.size(); ++i) {
        roll -= mix_[i].weight;
        if (roll <= 0.0) {
          tmpl = i;
          break;
        }
      }
      user = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(users_.size()) - 1));
    }
    const double at_seconds =
        std::chrono::duration<double>(next - start_time_).count();
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_.push_back(Job{user, tmpl, at_seconds});
    }
    queue_cv_.notify_one();
    ++sequence;
  }
}

void LoadGenerator::fire(std::size_t user_index, const RequestTemplate& tmpl,
                         double at_seconds) {
  http::Request request;
  {
    const std::lock_guard<std::mutex> lock(rng_mutex_);
    request = tmpl.make(rng_);
  }

  if (options_.user_headers) {
    for (const auto& [name, value] : options_.user_headers(user_index)) {
      request.headers.set(name, value);
    }
  }

  VirtualUser& user = *users_[user_index];
  {
    const std::lock_guard<std::mutex> lock(user.mutex);
    if (!user.cookies.empty()) {
      std::string cookie_header;
      for (const auto& [name, value] : user.cookies) {
        if (!cookie_header.empty()) cookie_header += "; ";
        cookie_header += name + "=" + value;
      }
      request.headers.set("Cookie", cookie_header);
    }
  }

  const auto send_time = std::chrono::steady_clock::now();
  auto response = client_->request(std::move(request), host_, port_);
  const double latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - send_time)
          .count();
  sent_.fetch_add(1);

  CompletedRequest completed;
  completed.at_seconds = at_seconds;
  completed.latency_ms = latency_ms;
  completed.user = user_index;
  completed.type = tmpl.name;
  if (response.ok()) {
    completed.status = response.value().status;
    completed.served_by =
        response.value().headers.get("X-Bifrost-Version").value_or("");
    // Store cookies (sticky-session UUIDs) back into the user's jar.
    for (const auto& [name, value] : response.value().headers.all()) {
      if (!util::iequals(name, "Set-Cookie")) continue;
      const auto semicolon = value.find(';');
      const auto pair = util::split_once(
          semicolon == std::string::npos ? value : value.substr(0, semicolon),
          '=');
      if (pair) {
        const std::lock_guard<std::mutex> lock(user.mutex);
        user.cookies[std::string(util::trim(pair->first))] = pair->second;
      }
    }
    if (completed.status >= 500) errors_.fetch_add(1);
  } else {
    completed.status = 0;
    errors_.fetch_add(1);
  }
  {
    const std::lock_guard<std::mutex> lock(results_mutex_);
    results_.push_back(std::move(completed));
  }
}

std::vector<CompletedRequest> LoadGenerator::results() const {
  const std::lock_guard<std::mutex> lock(results_mutex_);
  return results_;
}

util::Summary LoadGenerator::latency_summary(double from_seconds,
                                             double to_seconds) const {
  std::vector<double> latencies;
  {
    const std::lock_guard<std::mutex> lock(results_mutex_);
    for (const CompletedRequest& r : results_) {
      if (r.at_seconds >= from_seconds && r.at_seconds < to_seconds &&
          r.status > 0 && r.status < 500) {
        latencies.push_back(r.latency_ms);
      }
    }
  }
  return util::summarize(latencies);
}

}  // namespace bifrost::loadgen

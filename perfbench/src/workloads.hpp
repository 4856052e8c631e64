// The four perfbench workloads. Each drives ONE path of the system from
// this process and returns its end-to-end figures, its per-layer
// figures (traced runs only) and the outcome of its output checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for span dumps.
  std::string out_dir = ".bench_out";
};

struct Result {
  bool correct = true;
  std::vector<std::string> errors;  ///< first few check failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;  ///< the gated metrics (see BENCHMARK.json)
  Metrics detail;      ///< the workload's own named figures, every run
  Metrics layers;      ///< per-layer figures, traced runs only
  std::vector<Span> spans;

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
};

/// proxy-pass (darklaunch = false) and proxy-darklaunch.
Result run_proxy(const Args& args, bool darklaunch);

/// enact-checks (ramp = false) and enact-ramp.
Result run_enact(const Args& args, bool ramp);

/// splitmix64 finalizer: derives independent input streams from --seed.
std::uint64_t splitmix64(std::uint64_t x);

/// Keeps a replay's result alive so the compiler cannot drop the work.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Windows or strategies per block of the gated op_time_rel (see
/// block_median_mean).
constexpr std::size_t kBlock = 5;

/// Median of the given values (0 when empty).
double median(std::vector<double> values);

/// Prints the tracing overhead on op_time_rel and records it as
/// trace.overhead_pct. `sequence` holds every window's or strategy's
/// op_time_rel in run order; the even ones were traced. Each traced one
/// is compared with the mean of its untraced neighbours, which cancels
/// a trend along the run; the overhead is the median of those
/// comparisons, printed beside their quartiles as the noise it has to
/// be read against.
void report_tracing_overhead(const std::vector<double>& sequence,
                             Metrics& layers);

}  // namespace perfbench

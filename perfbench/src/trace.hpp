// Spans and statistics for the perfbench program.
//
// Every span is recorded from the benchmark's own code, around calls
// into a layer's public functions: the program under test is never
// patched. Spans live in per-thread buffers while a workload runs and
// are merged (and optionally written out) once it has stopped.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since the first call in this process.
std::int64_t now_ns();

struct Span {
  const char* name = "";    ///< static string, e.g. "engine.query"
  std::uint64_t id = 0;     ///< unique per span
  std::uint64_t parent = 0; ///< enclosing span id, 0 = none
  std::uint64_t group = 0;  ///< request id or strategy id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t value = 0;   ///< optional payload (bytes, region index)
  [[nodiscard]] double us() const { return (end_ns - start_ns) / 1e3; }
};

/// Process-wide span sink. Recording is off unless enabled; with it
/// off every recording call returns after one relaxed load.
class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends to the calling thread's buffer (no-op while disabled).
  void add(const Span& span);

  /// Moves every recorded span out of all buffers. Call once the
  /// threads that record have gone quiet.
  std::vector<Span> drain();

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
};

/// Span id of the layer call currently running on this thread (the
/// parent of any span it causes), and whether this thread is inside a
/// pool job.
inline thread_local std::uint64_t t_parent = 0;
inline thread_local bool t_in_pool_job = false;

/// Interpolated percentile (p in [0, 100]) of unsorted values; 0 when
/// empty.
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);
/// Mean over consecutive blocks of `block` values of each block's
/// median; 0 when empty. Each median ignores an outlier or two in its
/// block (a stall, an interference burst) and the mean over the blocks
/// follows a trend along the sequence (snapshot growth), so the result
/// reflects all the work while no single slow sample moves it.
double block_median_mean(const std::vector<double>& values,
                         std::size_t block);

/// Durations (us) of every span with this name.
std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const std::string& name);

/// Writes spans as TSV (name, id, parent, group, start_ns, end_ns,
/// value), at most `limit` per span name. Returns false on I/O error.
bool write_spans(const std::vector<Span>& spans, const std::string& path,
                 std::size_t limit);

/// Ordered metric table: name -> (value, unit).
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench

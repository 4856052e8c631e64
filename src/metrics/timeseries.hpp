// In-process time-series database: the Prometheus stand-in that Bifrost
// checks query (paper §4.2.2, Listing 1). Series are identified by a
// metric name plus a label set; samples are (time, value) pairs.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace bifrost::metrics {

/// Label set; ordered so series keys are canonical.
using Labels = std::map<std::string, std::string>;

struct Sample {
  double time = 0.0;  ///< seconds on the producing clock's timeline
  double value = 0.0;
};

/// Identifies one series.
struct SeriesKey {
  std::string name;
  Labels labels;

  [[nodiscard]] std::string to_string() const;
  auto operator<=>(const SeriesKey&) const = default;
};

/// A label selector: matches series with the given name whose labels
/// include all listed (name, value) pairs.
struct Selector {
  std::string name;
  Labels matchers;

  [[nodiscard]] bool matches(const SeriesKey& key) const;
  [[nodiscard]] std::string to_string() const;
};

/// Thread-safe append-mostly store with windowed reads.
class TimeSeriesStore {
 public:
  /// Appends a sample. Out-of-order samples are accepted but windowed
  /// reads assume per-series times are non-decreasing overall.
  void record(const std::string& name, const Labels& labels, double time,
              double value);

  /// Latest sample of each matching series at or before `at_time`
  /// (lookback-limited: samples older than `lookback` seconds are stale).
  [[nodiscard]] std::vector<std::pair<SeriesKey, Sample>> instant(
      const Selector& selector, double at_time,
      double lookback = 300.0) const;

  /// All samples of each matching series in (at_time - window, at_time].
  [[nodiscard]] std::vector<std::pair<SeriesKey, std::vector<Sample>>> range(
      const Selector& selector, double at_time, double window) const;

  /// Default evaluation time of a query: the newest sample time in the
  /// store, in one pass under one lock. Per series, the last-appended
  /// sample at or before 1e18 counts if its time is >= 0; the result is
  /// the maximum of those, or 0 when none counts. Recomputed on every
  /// call rather than cached, so it stays right after compact() and
  /// with out-of-order appends.
  [[nodiscard]] double newest_time() const;
  [[nodiscard]] std::size_t series_count() const;
  [[nodiscard]] std::size_t sample_count() const;

  /// Drops samples older than `before` across all series (retention).
  void compact(double before);

  void clear();

 private:
  mutable std::mutex mutex_;
  std::map<SeriesKey, std::vector<Sample>> series_;
};

}  // namespace bifrost::metrics

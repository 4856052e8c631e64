#include "metrics/timeseries.hpp"

#include <algorithm>

namespace bifrost::metrics {

std::string SeriesKey::to_string() const {
  std::string out = name;
  if (labels.empty()) return out;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + v + "\"";
  }
  out += '}';
  return out;
}

bool Selector::matches(const SeriesKey& key) const {
  if (key.name != name) return false;
  for (const auto& [k, v] : matchers) {
    const auto it = key.labels.find(k);
    if (it == key.labels.end() || it->second != v) return false;
  }
  return true;
}

std::string Selector::to_string() const {
  SeriesKey key{name, matchers};
  return key.to_string();
}

void TimeSeriesStore::record(const std::string& name, const Labels& labels,
                             double time, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  series_[SeriesKey{name, labels}].push_back(Sample{time, value});
}

std::vector<std::pair<SeriesKey, Sample>> TimeSeriesStore::instant(
    const Selector& selector, double at_time, double lookback) const {
  std::vector<std::pair<SeriesKey, Sample>> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, samples] : series_) {
    if (!selector.matches(key)) continue;
    // Scan from the back: samples are appended in time order.
    for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
      if (it->time <= at_time) {
        if (it->time >= at_time - lookback) out.emplace_back(key, *it);
        break;
      }
    }
  }
  return out;
}

std::vector<std::pair<SeriesKey, std::vector<Sample>>> TimeSeriesStore::range(
    const Selector& selector, double at_time, double window) const {
  std::vector<std::pair<SeriesKey, std::vector<Sample>>> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, samples] : series_) {
    if (!selector.matches(key)) continue;
    std::vector<Sample> in_window;
    for (const Sample& s : samples) {
      if (s.time > at_time - window && s.time <= at_time) {
        in_window.push_back(s);
      }
    }
    if (!in_window.empty()) out.emplace_back(key, std::move(in_window));
  }
  return out;
}

double TimeSeriesStore::newest_time() const {
  constexpr double kHorizon = 1e18;
  double newest = 0.0;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, samples] : series_) {
    // Same scan as instant(): the last-appended sample at or before the
    // horizon, not the largest time in the series. Starting from 0 is the
    // rule's ">= 0" bound: a negative time never raises the maximum.
    const auto last =
        std::find_if(samples.rbegin(), samples.rend(),
                     [](const Sample& s) { return s.time <= kHorizon; });
    if (last != samples.rend()) newest = std::max(newest, last->time);
  }
  return newest;
}

std::size_t TimeSeriesStore::series_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

std::size_t TimeSeriesStore::sample_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, samples] : series_) n += samples.size();
  return n;
}

void TimeSeriesStore::compact(double before) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, samples] : series_) {
    std::erase_if(samples,
                  [before](const Sample& s) { return s.time < before; });
  }
}

void TimeSeriesStore::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  series_.clear();
}

}  // namespace bifrost::metrics

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "http/client.hpp"
#include "http/url.hpp"
#include "json/json.hpp"
#include "metrics/query.hpp"
#include "metrics/registry.hpp"
#include "metrics/scraper.hpp"
#include "metrics/server.hpp"
#include "metrics/timeseries.hpp"
#include "runtime/manual_clock.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace bifrost::metrics {
namespace {

// ---------------------------------------------------------------------------
// TimeSeriesStore

TEST(TimeSeriesStore, RecordAndInstant) {
  TimeSeriesStore store;
  store.record("rt", {{"service", "search"}}, 1.0, 100.0);
  store.record("rt", {{"service", "search"}}, 2.0, 120.0);
  store.record("rt", {{"service", "product"}}, 2.0, 80.0);

  const auto hits = store.instant(Selector{"rt", {{"service", "search"}}}, 5.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_DOUBLE_EQ(hits[0].second.value, 120.0);
}

TEST(TimeSeriesStore, InstantHonorsAtTime) {
  TimeSeriesStore store;
  store.record("m", {}, 1.0, 10.0);
  store.record("m", {}, 5.0, 50.0);
  const auto at3 = store.instant(Selector{"m", {}}, 3.0);
  ASSERT_EQ(at3.size(), 1u);
  EXPECT_DOUBLE_EQ(at3[0].second.value, 10.0);
}

TEST(TimeSeriesStore, InstantLookbackDropsStale) {
  TimeSeriesStore store;
  store.record("m", {}, 1.0, 10.0);
  EXPECT_TRUE(store.instant(Selector{"m", {}}, 1000.0, 10.0).empty());
  EXPECT_EQ(store.instant(Selector{"m", {}}, 1000.0, 1000.0).size(), 1u);
}

TEST(TimeSeriesStore, SelectorMatchesSubsetOfLabels) {
  TimeSeriesStore store;
  store.record("m", {{"a", "1"}, {"b", "2"}}, 1.0, 5.0);
  EXPECT_EQ(store.instant(Selector{"m", {{"a", "1"}}}, 2.0).size(), 1u);
  EXPECT_EQ(store.instant(Selector{"m", {{"a", "x"}}}, 2.0).size(), 0u);
  EXPECT_EQ(store.instant(Selector{"m", {{"c", "3"}}}, 2.0).size(), 0u);
  EXPECT_EQ(store.instant(Selector{"other", {}}, 2.0).size(), 0u);
}

TEST(TimeSeriesStore, RangeWindow) {
  TimeSeriesStore store;
  for (int i = 1; i <= 10; ++i) {
    store.record("c", {}, static_cast<double>(i), static_cast<double>(i * i));
  }
  const auto ranges = store.range(Selector{"c", {}}, 10.0, 4.0);
  ASSERT_EQ(ranges.size(), 1u);
  ASSERT_EQ(ranges[0].second.size(), 4u);  // t in (6, 10]
  EXPECT_DOUBLE_EQ(ranges[0].second.front().value, 49.0);
  EXPECT_DOUBLE_EQ(ranges[0].second.back().value, 100.0);
}

TEST(TimeSeriesStore, CompactDropsOldSamples) {
  TimeSeriesStore store;
  store.record("m", {}, 1.0, 1.0);
  store.record("m", {}, 10.0, 2.0);
  store.compact(5.0);
  EXPECT_EQ(store.sample_count(), 1u);
}

TEST(TimeSeriesStore, SeriesEnumeration) {
  TimeSeriesStore store;
  store.record("a", {}, 1.0, 1.0);
  store.record("b", {{"x", "1"}}, 1.0, 1.0);
  EXPECT_EQ(store.series_count(), 2u);
  store.clear();
  EXPECT_EQ(store.series_count(), 0u);
}

// The default query time as the metrics server used to compute it: for
// every series key, an instant() at 1e18 with a 1e18 lookback, keeping
// the maximum sample time seen (starting from 0).
double scan_newest_time(const TimeSeriesStore& store,
                        const std::set<SeriesKey>& keys) {
  double at_time = 0.0;
  for (const SeriesKey& key : keys) {
    for (const auto& [k, sample] :
         store.instant(Selector{key.name, key.labels}, 1e18, 1e18)) {
      at_time = std::max(at_time, sample.time);
    }
  }
  return at_time;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Mostly small times with ties, plus the edges of the old rule: negative
// and signed-zero times, the 1e18 horizon itself, times past it,
// infinity and NaN.
double random_sample_time(util::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.08) return -std::floor(rng.uniform() * 50.0);
  if (u < 0.10) return -0.0;
  if (u < 0.12) return 1e18;
  if (u < 0.14) return 2e18;
  if (u < 0.15) return std::numeric_limits<double>::infinity();
  if (u < 0.16) return std::numeric_limits<double>::quiet_NaN();
  return std::floor(rng.uniform() * 400.0) / 4.0;
}

// Label sets that nest, so one series' selector also matches others.
SeriesKey random_series_key(util::Rng& rng) {
  static const std::vector<Labels> kLabelSets = {
      {}, {{"v", "a"}}, {{"v", "b"}}, {{"v", "a"}, {"r", "eu"}}};
  static const std::vector<std::string> kNames = {"rt", "errors", "sales"};
  return SeriesKey{
      kNames[static_cast<std::size_t>(rng.uniform_int(0, 2))],
      kLabelSets[static_cast<std::size_t>(rng.uniform_int(0, 3))]};
}

void record_random(TimeSeriesStore& store, std::set<SeriesKey>& keys,
                   util::Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    SeriesKey key = random_series_key(rng);
    store.record(key.name, key.labels, random_sample_time(rng),
                 rng.uniform());
    keys.insert(std::move(key));
  }
}

TEST(TimeSeriesStore, NewestTimeUsesLastAppendedSampleNotLargest) {
  TimeSeriesStore store;
  EXPECT_EQ(bits(store.newest_time()), bits(0.0));  // empty store
  store.record("m", {}, 9.0, 1.0);
  store.record("m", {}, 4.0, 1.0);  // out of order: now the series' last
  store.record("n", {}, 3.0, 1.0);
  EXPECT_DOUBLE_EQ(store.newest_time(), 4.0);
  store.record("n", {}, -5.0, 1.0);  // negative last sample is ignored
  EXPECT_DOUBLE_EQ(store.newest_time(), 4.0);
  store.record("m", {}, 2e18, 1.0);  // past the horizon: 4.0 still counts
  EXPECT_DOUBLE_EQ(store.newest_time(), 4.0);
}

TEST(TimeSeriesStore, NewestTimeMatchesPerSeriesInstantScan) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::Rng rng(seed);
    TimeSeriesStore store;
    std::set<SeriesKey> keys;
    const auto check = [&](const char* stage) {
      ASSERT_EQ(bits(store.newest_time()), bits(scan_newest_time(store, keys)))
          << "seed " << seed << " " << stage;
    };
    check("empty");
    record_random(store, keys, rng, static_cast<int>(rng.uniform_int(1, 40)));
    check("random appends");
    // compact() can empty a series while its key stays in the store.
    store.compact(std::floor(rng.uniform() * 120.0) - 10.0);
    check("after compact");
    record_random(store, keys, rng, static_cast<int>(rng.uniform_int(0, 10)));
    check("appends after compact");
    store.clear();
    keys.clear();
    check("after clear");
    record_random(store, keys, rng, static_cast<int>(rng.uniform_int(0, 10)));
    check("appends after clear");
  }
}

TEST(SeriesKey, ToStringCanonical) {
  EXPECT_EQ((SeriesKey{"m", {}}).to_string(), "m");
  EXPECT_EQ((SeriesKey{"m", {{"b", "2"}, {"a", "1"}}}).to_string(),
            "m{a=\"1\",b=\"2\"}");
}

// ---------------------------------------------------------------------------
// Query parsing

TEST(QueryParse, BareSelector) {
  const auto q = parse_query("request_errors");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().selector.name, "request_errors");
  EXPECT_FALSE(q.value().aggregation.has_value());
  EXPECT_FALSE(q.value().window_seconds.has_value());
}

TEST(QueryParse, PaperListing1Query) {
  const auto q = parse_query(R"(request_errors{instance="search:80"})");
  ASSERT_TRUE(q.ok()) << q.error_message();
  EXPECT_EQ(q.value().selector.matchers.at("instance"), "search:80");
}

TEST(QueryParse, MultipleMatchers) {
  const auto q =
      parse_query(R"(m{service="product", version="b"})");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().selector.matchers.size(), 2u);
  EXPECT_EQ(q.value().selector.matchers.at("version"), "b");
}

TEST(QueryParse, AggregationAndWindow) {
  const auto q = parse_query("rate(errors{s=\"x\"}[5m])");
  ASSERT_TRUE(q.ok()) << q.error_message();
  EXPECT_EQ(q.value().aggregation, Aggregation::kRate);
  EXPECT_DOUBLE_EQ(q.value().window_seconds.value(), 300.0);
}

TEST(QueryParse, DurationUnits) {
  EXPECT_DOUBLE_EQ(parse_query("sum(m[500ms])").value().window_seconds.value(),
                   0.5);
  EXPECT_DOUBLE_EQ(parse_query("sum(m[90s])").value().window_seconds.value(),
                   90.0);
  EXPECT_DOUBLE_EQ(parse_query("sum(m[2h])").value().window_seconds.value(),
                   7200.0);
}

TEST(QueryParse, Rejections) {
  EXPECT_FALSE(parse_query("").ok());
  EXPECT_FALSE(parse_query("1bad").ok());
  EXPECT_FALSE(parse_query("nope(m)").ok());
  EXPECT_FALSE(parse_query("sum(m[5x])").ok());
  EXPECT_FALSE(parse_query("m{unquoted=1}").ok());
  EXPECT_FALSE(parse_query("m{broken=\"x}").ok());
  EXPECT_FALSE(parse_query("rate(m)").ok());  // needs window
  EXPECT_FALSE(parse_query("sum(m").ok());
}

TEST(QueryParse, ToStringRoundTrip) {
  const auto q = parse_query(R"(avg(rt{service="search"}[60s]))");
  ASSERT_TRUE(q.ok());
  const auto again = parse_query(q.value().to_string());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().selector.matchers, q.value().selector.matchers);
  EXPECT_EQ(again.value().aggregation, q.value().aggregation);
}

// ---------------------------------------------------------------------------
// Query evaluation

class QueryEval : public testing::Test {
 protected:
  void SetUp() override {
    // Counter-style series per version plus a gauge.
    for (int i = 0; i <= 10; ++i) {
      store_.record("requests_total", {{"version", "a"}},
                    static_cast<double>(i), 10.0 * i);
      store_.record("requests_total", {{"version", "b"}},
                    static_cast<double>(i), 5.0 * i);
      store_.record("response_time", {{"service", "s"}},
                    static_cast<double>(i), 100.0 + i);
    }
  }

  double eval(const std::string& text, double at = 10.0) {
    auto result = evaluate(store_, text, at);
    EXPECT_TRUE(result.ok()) << result.error_message();
    return result.value().value;
  }

  TimeSeriesStore store_;
};

TEST_F(QueryEval, InstantDefaultsToSumAcrossSeries) {
  EXPECT_DOUBLE_EQ(eval("requests_total"), 150.0);  // 100 + 50
}

TEST_F(QueryEval, InstantWithMatcher) {
  EXPECT_DOUBLE_EQ(eval(R"(requests_total{version="a"})"), 100.0);
}

TEST_F(QueryEval, InstantAggregations) {
  EXPECT_DOUBLE_EQ(eval("avg(requests_total)"), 75.0);
  EXPECT_DOUBLE_EQ(eval("min(requests_total)"), 50.0);
  EXPECT_DOUBLE_EQ(eval("max(requests_total)"), 100.0);
  EXPECT_DOUBLE_EQ(eval("count(requests_total)"), 2.0);
}

TEST_F(QueryEval, RateOverWindow) {
  // Window (6,10] holds samples t=7..10; per-series delta between last
  // and first in-window sample: a: 100-70=30, b: 50-35=15; summed and
  // divided by the 4 s window -> 11.25.
  EXPECT_DOUBLE_EQ(eval("rate(requests_total[4s])"), 11.25);
}

TEST_F(QueryEval, IncreaseOverWindow) {
  // b's delta between first (t=7, 35) and last (t=10, 50) sample.
  EXPECT_DOUBLE_EQ(eval(R"(increase(requests_total{version="b"}[4s]))"), 15.0);
}

TEST_F(QueryEval, AvgOverWindow) {
  // Samples in (6,10]: 107,108,109,110 -> avg 108.5.
  EXPECT_DOUBLE_EQ(eval(R"(avg(response_time{service="s"}[4s]))"), 108.5);
}

TEST_F(QueryEval, NoDataReportsZeroSeries) {
  auto result = evaluate(store_, "missing_metric", 10.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().series_matched, 0u);
  EXPECT_DOUBLE_EQ(result.value().value, 0.0);
}

TEST_F(QueryEval, ParseErrorPropagates) {
  EXPECT_FALSE(evaluate(store_, "bad query{", 10.0).ok());
}

// ---------------------------------------------------------------------------
// Registry + exposition

TEST(Registry, CountersAndGauges) {
  Registry registry;
  registry.counter("hits", {{"v", "1"}}).increment();
  registry.counter("hits", {{"v", "1"}}).increment(2.0);
  registry.gauge("temp").set(36.6);
  registry.gauge("temp").add(0.4);
  EXPECT_DOUBLE_EQ(registry.counter("hits", {{"v", "1"}}).value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.gauge("temp").value(), 37.0);
}

TEST(Registry, ExposeFormat) {
  Registry registry;
  registry.counter("a_total", {{"k", "v"}}).increment(5);
  registry.gauge("g").set(1.5);
  const std::string text = registry.expose();
  EXPECT_NE(text.find("a_total{k=\"v\"} 5"), std::string::npos);
  EXPECT_NE(text.find("g 1.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, CountsAndSum) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.percentile(50.0), 0.0);
  histogram.observe(1.0);
  histogram.observe(2.0);
  histogram.observe(4.0);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 7.0);
}

TEST(Histogram, HandlesUnderflowAndOverflow) {
  Histogram histogram;
  histogram.observe(0.0);                           // underflow bucket
  histogram.observe(Histogram::kMinValue / 10.0);   // underflow bucket
  histogram.observe(1e9);                           // overflow bucket
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_LE(histogram.percentile(10.0), Histogram::kMinValue);
  EXPECT_GE(histogram.percentile(99.0),
            Histogram::bucket_upper(Histogram::kBuckets) * 0.99);
}

TEST(Histogram, PercentilesMonotoneInP) {
  Histogram histogram;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) histogram.observe(rng.exponential(20.0));
  double previous = 0.0;
  for (const double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double value = histogram.percentile(p);
    EXPECT_GE(value, previous) << "p=" << p;
    previous = value;
  }
}

// Percentile estimates must track util::percentile on known samples
// within the log-bucket resolution (2^(1/8) ~ 9% relative error).
TEST(Histogram, PercentileAccuracyAgainstExact) {
  Histogram histogram;
  util::Rng rng(42);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    // Latency-shaped mixture: a fast mode with a slow tail.
    const double value = rng.bernoulli(0.9) ? rng.exponential(8.0)
                                            : 100.0 + rng.exponential(50.0);
    samples.push_back(value);
    histogram.observe(value);
  }
  for (const double p : {50.0, 90.0, 95.0, 99.0}) {
    const double exact = util::percentile(samples, p);
    const double estimate = histogram.percentile(p);
    EXPECT_NEAR(estimate, exact, exact * 0.12)
        << "p" << p << ": exact " << exact << " vs estimate " << estimate;
  }
}

// Property test over random fills: for any mixture of in-range,
// underflow, and overflow observations, percentile() must be monotone
// in p across the whole [0, 100] grid, out-of-range p must clamp, and
// the estimate must stay inside the observed value envelope (widened to
// bucket resolution).
TEST(Histogram, PercentilePropertiesOverRandomFills) {
  const std::vector<double> grid{0.0,  0.1,  1.0,  5.0,  25.0, 50.0,
                                 75.0, 90.0, 99.0, 99.9, 100.0};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Histogram histogram;
    util::Rng rng(seed);
    const int fills = static_cast<int>(rng.uniform_int(1, 2000));
    for (int i = 0; i < fills; ++i) {
      double value = 0.0;
      switch (rng.uniform_int(0, 3)) {
        case 0:  // underflow branch: below the smallest resolvable value
          value = rng.uniform() * Histogram::kMinValue;
          break;
        case 1:  // overflow branch: beyond the last finite bucket
          value = Histogram::bucket_upper(Histogram::kBuckets) *
                  (1.0 + rng.uniform() * 10.0);
          break;
        default:  // latency-shaped in-range mass
          value = rng.exponential(25.0);
          break;
      }
      histogram.observe(value);
    }

    double previous = -1.0;
    for (const double p : grid) {
      const double value = histogram.percentile(p);
      EXPECT_GE(value, previous) << "seed " << seed << " p " << p;
      EXPECT_GE(value, 0.0) << "seed " << seed << " p " << p;
      EXPECT_LE(value, Histogram::bucket_upper(Histogram::kBuckets))
          << "seed " << seed << " p " << p;
      previous = value;
    }
    // Out-of-range p clamps to the endpoints instead of extrapolating.
    EXPECT_DOUBLE_EQ(histogram.percentile(-10.0), histogram.percentile(0.0))
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(histogram.percentile(200.0), histogram.percentile(100.0))
        << "seed " << seed;
  }
}

TEST(Histogram, AllUnderflowFillStaysBelowMinValue) {
  Histogram histogram;
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    histogram.observe(rng.uniform() * Histogram::kMinValue * 0.99);
  }
  // Every observation landed in the underflow bucket; estimates
  // interpolate inside [0, kMinValue) and never invent in-range mass.
  for (const double p : {0.0, 10.0, 50.0, 99.0, 100.0}) {
    EXPECT_GE(histogram.percentile(p), 0.0) << "p " << p;
    EXPECT_LE(histogram.percentile(p), Histogram::kMinValue) << "p " << p;
  }
}

TEST(Histogram, AllOverflowFillReturnsTopBound) {
  Histogram histogram;
  util::Rng rng(4);
  const double top = Histogram::bucket_upper(Histogram::kBuckets);
  for (int i = 0; i < 500; ++i) {
    histogram.observe(top * (1.5 + rng.uniform()));
  }
  // The overflow bucket has no finite upper edge, so the estimate is
  // floored at the last finite bound for every p.
  for (const double p : {0.0, 50.0, 100.0}) {
    EXPECT_DOUBLE_EQ(histogram.percentile(p), top) << "p " << p;
  }
}

TEST(Histogram, ConcurrentObserversLoseNothing) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.observe(0.5 + t + i % 10);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, HistogramExposition) {
  Registry registry;
  auto histogram = registry.histogram("rt_ms", {{"version", "stable"}});
  histogram->observe(1.0);
  histogram->observe(1.0);
  histogram->observe(50.0);
  const std::string text = registry.expose();
  EXPECT_NE(text.find("rt_ms_bucket{"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("version=\"stable\""), std::string::npos);
  EXPECT_NE(text.find("rt_ms_sum{version=\"stable\"} 52"), std::string::npos);
  EXPECT_NE(text.find("rt_ms_count{version=\"stable\"} 3"),
            std::string::npos);
  // The exposition stays machine-parseable.
  auto samples = parse_exposition(text);
  ASSERT_TRUE(samples.ok()) << samples.error_message();
  double inf_bucket = -1.0;
  for (const auto& sample : samples.value()) {
    if (sample.key.name == "rt_ms_bucket" &&
        sample.key.labels.at("le") == "+Inf") {
      inf_bucket = sample.value;
    }
  }
  EXPECT_DOUBLE_EQ(inf_bucket, 3.0);
}

TEST(Registry, RemoveHistogramDropsSeriesButKeepsHolders) {
  Registry registry;
  auto histogram = registry.histogram("rt_ms", {{"version", "old"}});
  histogram->observe(1.0);
  EXPECT_TRUE(registry.remove_histogram("rt_ms", {{"version", "old"}}));
  EXPECT_FALSE(registry.remove_histogram("rt_ms", {{"version", "old"}}));
  EXPECT_EQ(registry.expose().find("rt_ms"), std::string::npos);
  histogram->observe(2.0);  // holders may keep recording safely
  EXPECT_EQ(histogram->count(), 2u);
  // Re-creating the series starts fresh.
  EXPECT_EQ(registry.histogram("rt_ms", {{"version", "old"}})->count(), 0u);
}

TEST(Exposition, ParseRoundTrip) {
  Registry registry;
  registry.counter("x_total", {{"a", "1"}}).increment(7);
  registry.gauge("y").set(-2.5);
  auto samples = parse_exposition(registry.expose());
  ASSERT_TRUE(samples.ok()) << samples.error_message();
  ASSERT_EQ(samples.value().size(), 2u);
  EXPECT_EQ(samples.value()[0].key.name, "x_total");
  EXPECT_EQ(samples.value()[0].key.labels.at("a"), "1");
  EXPECT_DOUBLE_EQ(samples.value()[0].value, 7.0);
  EXPECT_DOUBLE_EQ(samples.value()[1].value, -2.5);
}

TEST(Exposition, SkipsCommentsAndBlanks) {
  auto samples = parse_exposition("# TYPE x counter\n\nx 1\n");
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().size(), 1u);
}

TEST(Exposition, RejectsMalformed) {
  EXPECT_FALSE(parse_exposition("novalue\n").ok());
  EXPECT_FALSE(parse_exposition("m{a=1} 2\n").ok());
  EXPECT_FALSE(parse_exposition("m{a=\"1\" 2\n").ok());
  EXPECT_FALSE(parse_exposition("m notanumber\n").ok());
}

// ---------------------------------------------------------------------------
// MetricsServer + Scraper over HTTP

TEST(MetricsServer, QueryEndpoint) {
  TimeSeriesStore store;
  store.record("rt", {{"s", "x"}}, 5.0, 42.0);
  MetricsServer server(store);
  server.start();
  http::HttpClient client;
  auto response = client.get(
      "http://127.0.0.1:" + std::to_string(server.port()) +
      "/api/v1/query?query=" + http::url_encode(R"(rt{s="x"})"));
  ASSERT_TRUE(response.ok()) << response.error_message();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_NE(response.value().body.find("\"value\":42"), std::string::npos);
  server.stop();
}

TEST(MetricsServer, QueryErrors) {
  TimeSeriesStore store;
  MetricsServer server(store);
  server.start();
  http::HttpClient client;
  const std::string base = "http://127.0.0.1:" + std::to_string(server.port());
  EXPECT_EQ(client.get(base + "/api/v1/query").value().status, 400);
  EXPECT_EQ(client.get(base + "/api/v1/query?query=bad{").value().status, 400);
  EXPECT_EQ(client.get(base + "/nope").value().status, 404);
  server.stop();
}

TEST(MetricsServer, QueryEndpointEvaluatesExpressions) {
  TimeSeriesStore store;
  store.record("sales_total", {{"version", "a"}}, 5.0, 100.0);
  store.record("sales_total", {{"version", "b"}}, 5.0, 130.0);
  MetricsServer server(store);
  server.start();
  http::HttpClient client;
  auto response = client.get(
      "http://127.0.0.1:" + std::to_string(server.port()) +
      "/api/v1/query?query=" +
      http::url_encode(
          R"(sales_total{version="b"} - sales_total{version="a"})"));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().status, 200);
  EXPECT_NE(response.value().body.find("\"value\":30"), std::string::npos);
  server.stop();
}

TEST(MetricsServer, IngestEndpoint) {
  TimeSeriesStore store;
  MetricsServer server(store);
  server.start();
  http::HttpClient client;
  auto response = client.post(
      "http://127.0.0.1:" + std::to_string(server.port()) + "/api/v1/ingest",
      R"({"name":"pushed","labels":{"k":"v"},"time":3,"value":9})",
      "application/json");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);
  const auto hits = store.instant(Selector{"pushed", {{"k", "v"}}}, 10.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_DOUBLE_EQ(hits[0].second.value, 9.0);
  server.stop();
}

TEST(MetricsServer, DefaultTimeIsNewestSampleTime) {
  TimeSeriesStore store;
  for (int i = 0; i <= 10; ++i) {
    const double t = static_cast<double>(i);
    store.record("requests_total", {{"version", "a"}}, t, 10.0 * i);
    store.record("requests_total", {{"version", "b"}}, t, 5.0 * i);
    store.record("response_time_ms", {{"service", "search"},
                                      {"version", "fast"}}, t, 100.0 + i);
    store.record("request_errors", {{"service", "search"},
                                    {"version", "fast"}}, t, 0.5 * i);
  }
  store.record("sales_total", {{"version", "fast"}}, 12.5, 150.0);
  store.record("sales_total", {{"version", "stable"}}, 12.0, 120.0);
  store.record("sales_total", {{"version", "stable"}}, 11.0, 110.0);
  store.record("stale", {}, -3.0, 1.0);
  ASSERT_EQ(store.newest_time(), 12.5);

  MetricsServer server(store);
  server.start();
  http::HttpClient client;
  const std::string base = "http://127.0.0.1:" +
                           std::to_string(server.port()) +
                           "/api/v1/query?query=";
  for (const std::string query : {
           R"(response_time_ms{service="search",version="fast"})",
           R"(request_errors{service="search",version="fast"})",
           R"(sales_total{version="fast"})",
           R"(sales_total{version="fast"} - sales_total{version="stable"})",
           "sum(requests_total)",
           "avg(response_time_ms)",
           "rate(requests_total[4s])",
           R"(increase(requests_total{version="a"}[5s]))",
           "stale",
           "missing_metric",
       }) {
    auto by_default = client.get(base + http::url_encode(query));
    auto explicit_time =
        client.get(base + http::url_encode(query) + "&time=12.5");
    ASSERT_TRUE(by_default.ok()) << by_default.error_message();
    ASSERT_TRUE(explicit_time.ok()) << explicit_time.error_message();
    EXPECT_EQ(by_default.value().status, 200) << query;
    EXPECT_EQ(by_default.value().body, explicit_time.value().body) << query;
    EXPECT_NE(by_default.value().body.find("\"time\":12.5"), std::string::npos)
        << query;
  }
  server.stop();
}

// Queries run on the reactor threads while ingests land on the same
// store: every request succeeds and every acknowledged ingest is visible
// to a query issued after the acknowledgement.
TEST(MetricsServer, InlineQueriesSeeEveryAcknowledgedIngest) {
  TimeSeriesStore store;
  MetricsServer server(store);
  server.start();
  const std::string base = "http://127.0.0.1:" + std::to_string(server.port());
  constexpr int kPoints = 500;
  std::atomic<int> acked{0};
  std::mutex errors_mutex;
  std::vector<std::string> errors;
  const auto fail = [&](std::string message) {
    const std::lock_guard<std::mutex> lock(errors_mutex);
    errors.push_back(std::move(message));
  };

  std::thread ingester([&] {
    http::HttpClient client;
    for (int i = 1; i <= kPoints; ++i) {
      const std::string n = std::to_string(i);
      auto response = client.post(
          base + "/api/v1/ingest",
          R"({"name":"hammer","labels":{"k":"v"},"time":)" + n +
              R"(,"value":)" + n + "}",
          "application/json");
      if (!response.ok() || response.value().status != 200) {
        fail("ingest " + n + " failed");
      }
      acked.store(i);
    }
  });

  // One reader at the default time (newest sample), one pinned to the
  // newest acknowledged time.
  const auto reader = [&](bool pin_time) {
    http::HttpClient client;
    const std::string url =
        base + "/api/v1/query?query=" + http::url_encode(R"(hammer{k="v"})");
    for (bool last = false; !last;) {
      const int floor = acked.load();
      last = floor == kPoints;
      auto response = client.get(
          pin_time ? url + "&time=" + std::to_string(floor) : url);
      if (!response.ok() || response.value().status != 200) {
        fail("query after ingest " + std::to_string(floor) + " failed");
        continue;
      }
      auto doc = json::parse(response.value().body);
      const json::Value* data = doc.ok() ? doc.value().find("data") : nullptr;
      if (data == nullptr) {
        fail("unparsable body: " + response.value().body);
        continue;
      }
      const double value = data->get_number("value", -1.0);
      const bool seen = pin_time ? value == floor : value >= floor;
      if (!seen) {
        fail("ingest " + std::to_string(floor) + " not visible: " +
             response.value().body);
      }
    }
  };
  std::thread default_reader(reader, false);
  std::thread pinned_reader(reader, true);
  ingester.join();
  default_reader.join();
  pinned_reader.join();
  server.stop();

  EXPECT_TRUE(errors.empty()) << errors.size() << " failures, first: "
                              << errors.front();
  EXPECT_EQ(store.sample_count(), static_cast<std::size_t>(kPoints));
}

TEST(Scraper, CollectsFromHttpTarget) {
  // A tiny exposition server.
  Registry registry;
  registry.counter("scraped_total", {{"z", "1"}}).increment(4);
  http::HttpServer::Options options;
  http::HttpServer exposition_server(
      options, [&](const http::Request&) {
        return http::Response::text(200, registry.expose());
      });
  exposition_server.start();

  runtime::ManualClock clock;
  clock.advance_to(runtime::Time(std::chrono::seconds(100)));
  TimeSeriesStore store;
  Scraper scraper(clock, store, std::chrono::seconds(1));
  Scraper::Target target;
  target.host = "127.0.0.1";
  target.port = exposition_server.port();
  target.labels = {{"instance", "it"}};
  scraper.add_target(target);

  EXPECT_EQ(scraper.scrape_once(), 1u);
  const auto hits =
      store.instant(Selector{"scraped_total", {{"instance", "it"}}}, 200.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_DOUBLE_EQ(hits[0].second.value, 4.0);
  EXPECT_DOUBLE_EQ(hits[0].second.time, 100.0);  // scheduler time stamped
  exposition_server.stop();
}

TEST(Scraper, UnreachableTargetCountsError) {
  runtime::ManualClock clock;
  TimeSeriesStore store;
  Scraper scraper(clock, store, std::chrono::seconds(1));
  Scraper::Target target;
  target.host = "127.0.0.1";
  target.port = 1;  // nothing listens here
  scraper.add_target(target);
  EXPECT_EQ(scraper.scrape_once(), 0u);
  EXPECT_EQ(scraper.scrape_errors(), 1u);
}

TEST(Scraper, PeriodicSchedulingOnClock) {
  Registry registry;
  registry.counter("tick_total").increment();
  http::HttpServer::Options options;
  http::HttpServer exposition_server(
      options, [&](const http::Request&) {
        return http::Response::text(200, registry.expose());
      });
  exposition_server.start();

  runtime::ManualClock clock;
  TimeSeriesStore store;
  Scraper scraper(clock, store, std::chrono::seconds(5));
  Scraper::Target target;
  target.host = "127.0.0.1";
  target.port = exposition_server.port();
  scraper.add_target(target);
  scraper.start();
  clock.advance_to(runtime::Time(std::chrono::seconds(16)));  // 3 scrapes
  scraper.stop();
  EXPECT_EQ(store.sample_count(), 3u);
  exposition_server.stop();
}

// ---------------------------------------------------------------------------
// Arithmetic expressions (A/B comparisons in the DSL)

class ExprEval : public testing::Test {
 protected:
  void SetUp() override {
    store_.record("sales_total", {{"version", "a"}}, 10.0, 120.0);
    store_.record("sales_total", {{"version", "b"}}, 10.0, 150.0);
  }

  double eval(const std::string& text) {
    auto result = evaluate(store_, text, 10.0);
    EXPECT_TRUE(result.ok()) << result.error_message();
    return result.value().value;
  }

  TimeSeriesStore store_;
};

TEST_F(ExprEval, SubtractionComparesVariants) {
  EXPECT_DOUBLE_EQ(
      eval(R"(sales_total{version="b"} - sales_total{version="a"})"), 30.0);
}

TEST_F(ExprEval, DivisionGivesRatio) {
  EXPECT_DOUBLE_EQ(
      eval(R"(sales_total{version="b"} / sales_total{version="a"})"),
      1.25);
}

TEST_F(ExprEval, DivisionByZeroIsZero) {
  EXPECT_DOUBLE_EQ(eval(R"(sales_total{version="a"} / missing_metric)"), 0.0);
}

TEST_F(ExprEval, ConstantsAndPrecedence) {
  EXPECT_DOUBLE_EQ(eval("2 + 3 * 4"), 14.0);
  EXPECT_DOUBLE_EQ(eval("(2 + 3) * 4"), 20.0);
  EXPECT_DOUBLE_EQ(eval(R"(sales_total{version="a"} * 2 + 10)"), 250.0);
}

TEST_F(ExprEval, LeftAssociativity) {
  EXPECT_DOUBLE_EQ(eval("10 - 4 - 3"), 3.0);
  EXPECT_DOUBLE_EQ(eval("24 / 4 / 2"), 3.0);
}

TEST_F(ExprEval, AggregationsInsideExpressions) {
  for (int t = 0; t <= 10; ++t) {
    store_.record("c", {}, static_cast<double>(t), 5.0 * t);
  }
  EXPECT_DOUBLE_EQ(eval("increase(c[4s]) / 4"), 3.75);
}

TEST_F(ExprEval, SeriesMatchedCountsLeaves) {
  auto present = evaluate(store_, R"(sales_total{version="a"} - 100)", 10.0);
  ASSERT_TRUE(present.ok());
  EXPECT_EQ(present.value().series_matched, 1u);
  auto absent = evaluate(store_, "ghost_metric - 100", 10.0);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent.value().series_matched, 0u);
}

TEST_F(ExprEval, OperatorsInsideSelectorsAreProtected) {
  store_.record("m", {{"instance", "host-1:80"}}, 10.0, 7.0);
  EXPECT_DOUBLE_EQ(eval(R"(m{instance="host-1:80"} + 1)"), 8.0);
}

TEST_F(ExprEval, MalformedExpressions) {
  EXPECT_FALSE(evaluate(store_, "a +", 10.0).ok());
  EXPECT_FALSE(evaluate(store_, "(a + b", 10.0).ok());
  EXPECT_FALSE(evaluate(store_, "a + + b", 10.0).ok());
  EXPECT_FALSE(evaluate(store_, "", 10.0).ok());
}

TEST_F(ExprEval, ToStringRoundTrips) {
  auto expr = parse_expr(
      R"(sales_total{version="b"} - sales_total{version="a"} * 2)");
  ASSERT_TRUE(expr.ok());
  auto again = parse_expr(expr.value().to_string());
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(evaluate(store_, again.value(), 10.0).value,
                   evaluate(store_, expr.value(), 10.0).value);
}

// Aggregation sweep over window sizes: rate * window == increase.
class RateWindowSweep : public testing::TestWithParam<int> {};

TEST_P(RateWindowSweep, RateTimesWindowEqualsIncrease) {
  TimeSeriesStore store;
  for (int i = 0; i <= 20; ++i) {
    store.record("c", {}, static_cast<double>(i), 3.0 * i);
  }
  const double window = GetParam();
  const auto rate = evaluate(
      store, "rate(c[" + std::to_string(GetParam()) + "s])", 20.0);
  const auto increase = evaluate(
      store, "increase(c[" + std::to_string(GetParam()) + "s])", 20.0);
  ASSERT_TRUE(rate.ok());
  ASSERT_TRUE(increase.ok());
  EXPECT_NEAR(rate.value().value * window, increase.value().value, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Windows, RateWindowSweep,
                         testing::Values(2, 5, 10, 19));

}  // namespace
}  // namespace bifrost::metrics

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/crc32.hpp"
#include "util/csv.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/uuid.hpp"

namespace bifrost::util {
namespace {

// ---------------------------------------------------------------------------
// strings

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleToken) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, SplitOnceFindsFirstDelimiter) {
  const auto pair = split_once("key=a=b", '=');
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->first, "key");
  EXPECT_EQ(pair->second, "a=b");
}

TEST(Strings, SplitOnceMissingDelimiter) {
  EXPECT_FALSE(split_once("no-delimiter", '=').has_value());
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC-123"), "abc-123"); }

TEST(Strings, IequalsMatchesCaseInsensitively) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("a", "ab"));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
  EXPECT_TRUE(ends_with("bar", ""));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("  13  "), 13);
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3").value(), -1000.0);
  EXPECT_FALSE(parse_double("2.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("x", "", "y"), "x");
}

// ---------------------------------------------------------------------------
// uuid

TEST(Uuid, FormatIsValidV4) {
  const std::string id = uuid4();
  EXPECT_EQ(id.size(), 36u);
  EXPECT_TRUE(is_uuid(id)) << id;
  EXPECT_EQ(id[14], '4');
}

TEST(Uuid, DistinctAcrossCalls) { EXPECT_NE(uuid4(), uuid4()); }

TEST(Uuid, SeededIsDeterministic) {
  EXPECT_EQ(uuid4_from(123), uuid4_from(123));
  EXPECT_NE(uuid4_from(123), uuid4_from(124));
  EXPECT_TRUE(is_uuid(uuid4_from(99)));
}

TEST(Uuid, RejectsMalformed) {
  EXPECT_FALSE(is_uuid(""));
  EXPECT_FALSE(is_uuid("0000"));
  EXPECT_FALSE(is_uuid("zzzzzzzz-zzzz-4zzz-zzzz-zzzzzzzzzzzz"));
  std::string wrong_version = uuid4();
  wrong_version[14] = '1';
  EXPECT_FALSE(is_uuid(wrong_version));
}

// ---------------------------------------------------------------------------
// stats

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 0.001);  // sample sd
}

TEST(Stats, EmptyInputsAreSafe) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 101.0), std::invalid_argument);
}

TEST(Stats, SummaryMatchesPaperTableFields) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 100.0});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.0);
}

TEST(Stats, BoxplotQuartilesAndOutliers) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  xs.push_back(1000.0);  // outlier
  const Boxplot b = boxplot(xs);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 1000.0);
  EXPECT_NEAR(b.median, 51.0, 1.0);
  EXPECT_EQ(b.outliers, 1u);
  EXPECT_LE(b.whisker_hi, 100.0);
}

TEST(Stats, MovingAverageWindow) {
  MovingAverage ma(3.0);
  ma.add(0.0, 10.0);
  ma.add(1.0, 20.0);
  ma.add(5.0, 30.0);
  EXPECT_DOUBLE_EQ(ma.at(1.0), 15.0);   // both early samples
  EXPECT_DOUBLE_EQ(ma.at(2.5), 15.0);   // t=0 and t=1 within (-0.5, 2.5]
  EXPECT_DOUBLE_EQ(ma.at(5.0), 30.0);
  EXPECT_DOUBLE_EQ(ma.at(100.0), 0.0);  // empty window
}

TEST(Stats, MovingAverageSeriesResamples) {
  MovingAverage ma(2.0);
  ma.add(0.0, 1.0);
  ma.add(4.0, 3.0);
  const auto series = ma.series(1.0);
  ASSERT_GE(series.size(), 5u);
  EXPECT_DOUBLE_EQ(series.front().second, 1.0);
  EXPECT_DOUBLE_EQ(series.back().second, 3.0);
}

TEST(Stats, MovingAverageRejectsNonPositiveWindow) {
  EXPECT_THROW(MovingAverage(0.0), std::invalid_argument);
}

TEST(Stats, SparklineShape) {
  EXPECT_EQ(sparkline({}), "");
  const std::string line = sparkline({0.0, 0.5, 1.0});
  EXPECT_FALSE(line.empty());
}

// ---------------------------------------------------------------------------
// rng

TEST(Rng, SeededReproducible) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    saw_lo |= v == 1;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// ---------------------------------------------------------------------------
// result

TEST(Result, ValueRoundTrip) {
  Result<int> r(42);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, ErrorCarriesMessage) {
  auto r = Result<int>::error("boom");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error_message(), "boom");
  EXPECT_EQ(r.value_or(-1), -1);
  EXPECT_THROW((void)r.value(), std::runtime_error);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok;
  EXPECT_TRUE(ok.ok());
  auto err = Result<void>::error("nope");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error_message(), "nope");
}

// ---------------------------------------------------------------------------
// csv

TEST(Csv, WritesHeaderAndEscapes) {
  const std::string path = testing::TempDir() + "bifrost_csv_test.csv";
  {
    CsvWriter csv(path, {"name", "value"});
    csv.row(std::vector<std::string>{"plain", "has,comma"});
    csv.row(std::vector<std::string>{"quote\"inside", "multi\nline"});
    csv.row(std::vector<double>{1.5, -2.0});
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("name,value"), std::string::npos);
  EXPECT_NE(content.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(content.find("\"quote\"\"inside\""), std::string::npos);
  EXPECT_NE(content.find("1.5,-2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatch) {
  const std::string path = testing::TempDir() + "bifrost_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Csv, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(testing::TempDir() + "x.csv", {}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// crc32

// Byte-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven implementation must match bit for bit.
std::uint32_t reference_crc32(const unsigned char* data, std::size_t size) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(Rng& rng, std::size_t size) {
  std::vector<unsigned char> out(size);
  for (auto& b : out) b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  return out;
}

TEST(Crc32, StandardCheckValue) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, MatchesReferenceAtEveryAlignment) {
  Rng rng(14);
  // Room for the longest buffer at the largest start offset.
  const std::vector<unsigned char> pool = random_bytes(rng, 1024 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size <= 1024; ++size) {
      const unsigned char* start = pool.data() + offset;
      const std::string_view view(reinterpret_cast<const char*>(start), size);
      ASSERT_EQ(crc32(view), reference_crc32(start, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Crc32, MatchesReferenceOnLargeBuffer) {
  Rng rng(600);
  const std::vector<unsigned char> big = random_bytes(rng, 600 * 1000);
  const std::string_view view(reinterpret_cast<const char*>(big.data()),
                              big.size());
  EXPECT_EQ(crc32(view), reference_crc32(big.data(), big.size()));
}

TEST(Crc32, IncrementalUpdatesCompose) {
  Rng rng(7);
  const std::vector<unsigned char> buf = random_bytes(rng, 4099);
  for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 2048u, 4099u}) {
    std::uint32_t crc = crc32_update(crc32_init(), buf.data(), split);
    crc = crc32_update(crc, buf.data() + split, buf.size() - split);
    EXPECT_EQ(crc32_final(crc), reference_crc32(buf.data(), buf.size()))
        << "split " << split;
  }
}

// Property-style sweep: percentile(xs, 50) equals median for many sizes.
class PercentileSweep : public testing::TestWithParam<int> {};

TEST_P(PercentileSweep, MedianMatchesSummary) {
  Rng rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < GetParam(); ++i) xs.push_back(rng.uniform() * 100.0);
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, percentile(xs, 50.0));
  EXPECT_LE(s.min, s.median);
  EXPECT_LE(s.median, s.max);
  EXPECT_GE(s.sd, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PercentileSweep,
                         testing::Values(1, 2, 3, 5, 10, 33, 100, 1001));

}  // namespace
}  // namespace bifrost::util

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "http/client.hpp"
#include "http/server.hpp"
#include "json/json.hpp"
#include "proxy/proxy.hpp"
#include "proxy/session_table.hpp"

namespace bifrost::proxy {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// ProxyConfig

ProxyConfig two_way_config(double stable_percent = 50.0) {
  ProxyConfig config;
  config.service = "search";
  config.backends = {
      BackendTarget{"stable", "127.0.0.1", 8001, stable_percent, "", ""},
      BackendTarget{"canary", "127.0.0.1", 8002, 100.0 - stable_percent, "",
                    ""},
  };
  return config;
}

TEST(ProxyConfig, JsonRoundTrip) {
  ProxyConfig config = two_way_config(95.0);
  config.sticky = true;
  config.shadows = {ShadowTarget{"stable", "dark", "127.0.0.1", 8003, 40.0}};
  const auto parsed = ProxyConfig::from_json(config.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  const ProxyConfig& again = parsed.value();
  EXPECT_EQ(again.service, "search");
  EXPECT_TRUE(again.sticky);
  ASSERT_EQ(again.backends.size(), 2u);
  EXPECT_EQ(again.backends[0].version, "stable");
  EXPECT_DOUBLE_EQ(again.backends[0].percent, 95.0);
  ASSERT_EQ(again.shadows.size(), 1u);
  EXPECT_EQ(again.shadows[0].target_version, "dark");
  EXPECT_DOUBLE_EQ(again.shadows[0].percent, 40.0);
}

TEST(ProxyConfig, HeaderModeRoundTrip) {
  ProxyConfig config;
  config.service = "product";
  config.mode = core::RoutingMode::kHeader;
  config.backends = {
      BackendTarget{"a", "127.0.0.1", 1001, 0.0, "X-Group", "A"},
      BackendTarget{"b", "127.0.0.1", 1002, 0.0, "X-Group", "B"},
  };
  const auto parsed = ProxyConfig::from_json(config.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().mode, core::RoutingMode::kHeader);
  EXPECT_EQ(parsed.value().backends[1].match_value, "B");
}

TEST(ProxyConfig, ValidateRejectsBadConfigs) {
  ProxyConfig empty;
  empty.service = "s";
  EXPECT_FALSE(empty.validate().ok());

  ProxyConfig bad_sum = two_way_config(80.0);
  bad_sum.backends[1].percent = 30.0;
  EXPECT_FALSE(bad_sum.validate().ok());

  ProxyConfig no_endpoint = two_way_config();
  no_endpoint.backends[0].port = 0;
  EXPECT_FALSE(no_endpoint.validate().ok());

  ProxyConfig bad_shadow = two_way_config();
  bad_shadow.shadows = {ShadowTarget{"stable", "x", "127.0.0.1", 1, 150.0}};
  EXPECT_FALSE(bad_shadow.validate().ok());
}

TEST(ProxyConfig, FromJsonRejectsUnknownMode) {
  auto doc = two_way_config().to_json();
  doc.as_object()["mode"] = "telepathy";
  EXPECT_FALSE(ProxyConfig::from_json(doc).ok());
}

// ---------------------------------------------------------------------------
// Routing decision (pure function)

TEST(DecideBackend, SingleBackendShortCircuit) {
  ProxyConfig config;
  config.service = "s";
  config.backends = {BackendTarget{"only", "h", 1, 100.0, "", ""}};
  http::Request req;
  util::Rng rng(1);
  EXPECT_EQ(BifrostProxy::decide_backend(config, req, std::nullopt, rng), 0u);
}

TEST(DecideBackend, PercentageSplitConverges) {
  const ProxyConfig config = two_way_config(80.0);
  http::Request req;
  util::Rng rng(42);
  int stable = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (BifrostProxy::decide_backend(config, req, std::nullopt, rng) == 0) {
      ++stable;
    }
  }
  EXPECT_NEAR(stable / static_cast<double>(kTrials), 0.8, 0.02);
}

TEST(DecideBackend, ZeroPercentNeverChosen) {
  const ProxyConfig config = two_way_config(100.0);
  http::Request req;
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(BifrostProxy::decide_backend(config, req, std::nullopt, rng), 0u);
  }
}

TEST(DecideBackend, StickyHitOverridesRandom) {
  ProxyConfig config = two_way_config(100.0);  // random would pick stable
  config.sticky = true;
  http::Request req;
  util::Rng rng(1);
  const std::optional<std::string> pinned = "canary";
  EXPECT_EQ(BifrostProxy::decide_backend(config, req, pinned, rng), 1u);
}

TEST(DecideBackend, StickyMissFallsThrough) {
  ProxyConfig config = two_way_config(100.0);
  config.sticky = true;
  http::Request req;
  util::Rng rng(1);
  // Assigned version no longer among backends -> fresh decision.
  const std::optional<std::string> pinned = "retired-version";
  EXPECT_EQ(BifrostProxy::decide_backend(config, req, pinned, rng), 0u);
}

TEST(DecideBackend, HeaderMatchSelectsBackend) {
  ProxyConfig config;
  config.service = "product";
  config.mode = core::RoutingMode::kHeader;
  config.backends = {
      BackendTarget{"default", "h", 1, 0.0, "", ""},
      BackendTarget{"b", "h", 2, 0.0, "X-Group", "B"},
  };
  util::Rng rng(1);
  http::Request req;
  req.headers.set("X-Group", "B");
  EXPECT_EQ(BifrostProxy::decide_backend(config, req, std::nullopt, rng), 1u);
  req.headers.set("X-Group", "C");
  EXPECT_EQ(BifrostProxy::decide_backend(config, req, std::nullopt, rng), 0u);
  http::Request no_header;
  EXPECT_EQ(BifrostProxy::decide_backend(config, no_header, std::nullopt, rng),
            0u);
}

TEST(DecideBackend, ExperimentFilterScopesPopulation) {
  // Only X-Country: US requests join the 50/50 split; everyone else is
  // routed to the stable default.
  ProxyConfig config = two_way_config(50.0);
  config.filter_header = "X-Country";
  config.filter_value = "US";
  config.default_version = "stable";
  ASSERT_TRUE(config.validate().ok());
  util::Rng rng(11);

  http::Request non_us;
  non_us.headers.set("X-Country", "CH");
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(BifrostProxy::decide_backend(config, non_us, std::nullopt, rng),
              0u);
  }
  http::Request no_header;
  EXPECT_EQ(BifrostProxy::decide_backend(config, no_header, std::nullopt, rng),
            0u);

  http::Request us;
  us.headers.set("X-Country", "US");
  int canary = 0;
  for (int i = 0; i < 2000; ++i) {
    if (BifrostProxy::decide_backend(config, us, std::nullopt, rng) == 1) {
      ++canary;
    }
  }
  EXPECT_NEAR(canary / 2000.0, 0.5, 0.05);
}

// Regression: header-mode routing used to dump unmatched traffic on
// backend index 0 even when default_version named another backend.
TEST(DecideBackend, HeaderNoMatchRoutesToDefaultVersion) {
  ProxyConfig config;
  config.service = "product";
  config.mode = core::RoutingMode::kHeader;
  config.default_version = "b";
  config.backends = {
      BackendTarget{"a", "h", 1, 0.0, "X-Group", "A"},
      BackendTarget{"b", "h", 2, 0.0, "X-Group", "B"},
  };
  ASSERT_TRUE(config.validate().ok());
  util::Rng rng(1);
  http::Request unmatched;
  unmatched.headers.set("X-Group", "C");
  EXPECT_EQ(BifrostProxy::decide_backend(config, unmatched, std::nullopt, rng),
            1u);
  http::Request no_header;
  EXPECT_EQ(BifrostProxy::decide_backend(config, no_header, std::nullopt, rng),
            1u);
  // A matching header still wins over the default.
  http::Request matched;
  matched.headers.set("X-Group", "A");
  EXPECT_EQ(BifrostProxy::decide_backend(config, matched, std::nullopt, rng),
            0u);
  // A catch-all backend (empty match_value) takes precedence over the
  // default_version fallback.
  config.backends.push_back(BackendTarget{"fallback", "h", 3, 0.0, "", ""});
  EXPECT_EQ(BifrostProxy::decide_backend(config, unmatched, std::nullopt, rng),
            2u);
}

TEST(ProxyConfig, DefaultVersionMustBeABackendWheneverSet) {
  ProxyConfig config;
  config.service = "product";
  config.mode = core::RoutingMode::kHeader;
  config.default_version = "ghost";
  config.backends = {BackendTarget{"a", "h", 1, 0.0, "X-Group", "A"}};
  EXPECT_FALSE(config.validate().ok());
  config.default_version = "a";
  EXPECT_TRUE(config.validate().ok());
}

// ---------------------------------------------------------------------------
// Sharded sticky-session table

// Regression: re-assigning an active session used to leave its eviction
// slot at the original insertion position, so hot sessions were evicted
// as if oldest.
TEST(SessionTable, ReassignRefreshesLruRecency) {
  SessionTable table(1, 2);
  table.assign("s1", "a");
  table.assign("s2", "a");
  table.assign("s1", "b");  // refresh: s2 is now the oldest
  table.assign("s3", "a");  // evicts s2, not s1
  EXPECT_EQ(table.touch("s1"), "b");
  EXPECT_EQ(table.touch("s2"), std::nullopt);
  EXPECT_EQ(table.touch("s3"), "a");
  EXPECT_EQ(table.size(), 2u);
}

TEST(SessionTable, TouchRefreshesLruRecency) {
  SessionTable table(1, 2);
  table.assign("s1", "a");
  table.assign("s2", "a");
  EXPECT_EQ(table.touch("s1"), "a");  // s2 becomes the eviction victim
  table.assign("s3", "a");
  EXPECT_EQ(table.touch("s1"), "a");
  EXPECT_EQ(table.touch("s2"), std::nullopt);
}

TEST(SessionTable, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SessionTable(0, 10).shard_count(), 1u);
  EXPECT_EQ(SessionTable(3, 10).shard_count(), 4u);
  EXPECT_EQ(SessionTable(16, 10).shard_count(), 16u);
}

TEST(SessionTable, CapacityIsBoundedAcrossShards) {
  SessionTable table(4, 64);
  for (int i = 0; i < 1000; ++i) {
    table.assign("session-" + std::to_string(i), "v");
  }
  // Per-shard LRU caps: never more than max (+ rounding slack), and the
  // table keeps serving lookups for retained entries.
  EXPECT_LE(table.size(), 64u + 4u);
  EXPECT_GT(table.size(), 0u);
}

TEST(SessionTable, SnapshotReportsMappingsAndTotal) {
  SessionTable table(2, 100);
  table.assign("u1", "stable");
  table.assign("u2", "canary");
  const auto [mappings, total] = table.snapshot(10);
  EXPECT_EQ(total, 2u);
  ASSERT_EQ(mappings.size(), 2u);
}

TEST(SessionTable, ConcurrentAssignTouchKeepsInvariants) {
  SessionTable table(8, 512);
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::string session = "s-" + std::to_string((t * 7 + i) % 700);
        if (i % 3 == 0) {
          // A known session reads back one of the two assigned versions.
          const auto version = table.touch(session);
          EXPECT_TRUE(!version || *version == "stable" ||
                      *version == "canary");
        } else {
          table.assign(session, i % 2 == 0 ? "stable" : "canary");
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(table.size(), 512u + 8u);
  const auto [mappings, total] = table.snapshot(1000);
  EXPECT_EQ(mappings.size(), total);
}

TEST(SessionTable, AssignIfAbsentKeepsFirstPin) {
  SessionTable table(1, 2);
  EXPECT_EQ(table.assign_if_absent("s1", "stable"), "stable");
  EXPECT_EQ(table.assign_if_absent("s1", "canary"), "stable");
  EXPECT_EQ(table.touch("s1"), "stable");
  EXPECT_EQ(table.size(), 1u);
  // Recency is refreshed on a hit: s2 becomes the eviction victim.
  table.assign("s2", "canary");
  EXPECT_EQ(table.assign_if_absent("s1", "canary"), "stable");
  EXPECT_EQ(table.assign_if_absent("s3", "canary"), "canary");
  EXPECT_EQ(table.touch("s2"), std::nullopt);
  EXPECT_EQ(table.touch("s1"), "stable");
}

TEST(SessionTable, ConcurrentAssignIfAbsentAgreesOnOneWinner) {
  SessionTable table(4, 1024);
  constexpr int kThreads = 8;
  constexpr int kSessions = 200;
  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &seen, t] {
      for (int i = 0; i < kSessions; ++i) {
        seen[t].push_back(table.assign_if_absent(
            "s-" + std::to_string(i), "v" + std::to_string(t)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kSessions; ++i) {
    const auto pinned = table.touch("s-" + std::to_string(i));
    ASSERT_TRUE(pinned.has_value());
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t][i], *pinned);
  }
}

TEST(ProxyConfig, FilterRequiresKnownDefault) {
  ProxyConfig config = two_way_config(50.0);
  config.filter_header = "X-Country";
  config.filter_value = "US";
  config.default_version = "ghost";
  EXPECT_FALSE(config.validate().ok());
  config.default_version = "stable";
  EXPECT_TRUE(config.validate().ok());
}

TEST(ProxyConfig, FilterJsonRoundTrip) {
  ProxyConfig config = two_way_config(50.0);
  config.filter_header = "X-Country";
  config.filter_value = "US";
  config.default_version = "stable";
  const auto parsed = ProxyConfig::from_json(config.to_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error_message();
  EXPECT_EQ(parsed.value().filter_header, "X-Country");
  EXPECT_EQ(parsed.value().filter_value, "US");
  EXPECT_EQ(parsed.value().default_version, "stable");
}

// ---------------------------------------------------------------------------
// Live proxy over sockets

class LiveProxyTest : public testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      http::HttpServer::Options options;
      options.worker_threads = 4;
      const std::string tag = i == 0 ? "stable" : "canary";
      backends_.push_back(std::make_unique<http::HttpServer>(
          options, [this, tag, i](const http::Request& req) {
            counts_[i].fetch_add(1);
            if (req.headers.has(kShadowHeader)) shadowed_[i].fetch_add(1);
            return http::Response::text(200, tag);
          }));
      backends_.back()->start();
    }
  }

  ProxyConfig config_with(double stable_percent, bool sticky = false) {
    ProxyConfig config;
    config.service = "search";
    config.sticky = sticky;
    config.backends = {
        BackendTarget{"stable", "127.0.0.1", backends_[0]->port(),
                      stable_percent, "", ""},
        BackendTarget{"canary", "127.0.0.1", backends_[1]->port(),
                      100.0 - stable_percent, "", ""},
    };
    return config;
  }

  std::unique_ptr<BifrostProxy> make_proxy(ProxyConfig config) {
    BifrostProxy::Options options;
    options.rng_seed = 99;
    auto proxy = std::make_unique<BifrostProxy>(options, std::move(config));
    proxy->start();
    return proxy;
  }

  std::vector<std::unique_ptr<http::HttpServer>> backends_;
  std::atomic<int> counts_[2] = {{0}, {0}};
  std::atomic<int> shadowed_[2] = {{0}, {0}};
  http::HttpClient client_;
};

TEST_F(LiveProxyTest, ForwardsAndTagsVersionHeader) {
  auto proxy = make_proxy(config_with(100.0));
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(proxy->data_port()) + "/x");
  ASSERT_TRUE(res.ok()) << res.error_message();
  EXPECT_EQ(res.value().status, 200);
  EXPECT_EQ(res.value().body, "stable");
  EXPECT_EQ(res.value().headers.get(kVersionHeader), "stable");
  EXPECT_EQ(proxy->requests_for("stable"), 1u);
}

TEST_F(LiveProxyTest, SplitsTrafficRoughlyByPercent) {
  auto proxy = make_proxy(config_with(50.0));
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy->data_port()) + "/";
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(client_.get(url).ok());
  EXPECT_GT(counts_[0].load(), 50);
  EXPECT_GT(counts_[1].load(), 50);
  EXPECT_EQ(counts_[0].load() + counts_[1].load(), 200);
}

TEST_F(LiveProxyTest, StickySessionPinsClient) {
  auto proxy = make_proxy(config_with(50.0, /*sticky=*/true));
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy->data_port()) + "/";
  auto first = client_.get(url);
  ASSERT_TRUE(first.ok());
  const auto set_cookie = first.value().headers.get("Set-Cookie");
  ASSERT_TRUE(set_cookie.has_value());
  const std::string pinned = first.value().body;

  // Replay the cookie: every subsequent request lands on the same
  // version (paper: sticky sessions for A/B tests).
  const std::string cookie = set_cookie->substr(0, set_cookie->find(';'));
  for (int i = 0; i < 30; ++i) {
    http::Request req;
    req.target = "/";
    req.headers.set("Cookie", cookie);
    auto res = client_.request(std::move(req), "127.0.0.1",
                               proxy->data_port());
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().body, pinned);
    EXPECT_FALSE(res.value().headers.has("Set-Cookie"));  // no re-issue
  }
  EXPECT_EQ(proxy->sticky_sessions(), 1u);
}

TEST_F(LiveProxyTest, NonStickyIssuesNoCookie) {
  auto proxy = make_proxy(config_with(50.0, /*sticky=*/false));
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(proxy->data_port()) + "/");
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.value().headers.has("Set-Cookie"));
}

TEST_F(LiveProxyTest, ShadowDuplicatesTraffic) {
  ProxyConfig config = config_with(100.0);
  config.shadows = {ShadowTarget{"stable", "canary", "127.0.0.1",
                                 backends_[1]->port(), 100.0}};
  auto proxy = make_proxy(std::move(config));
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy->data_port()) + "/";
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(client_.get(url).ok());
  // Shadow fire-and-forget: wait briefly for the async duplicates.
  for (int i = 0; i < 100 && shadowed_[1].load() < 20; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(counts_[0].load(), 20);
  EXPECT_EQ(shadowed_[1].load(), 20);  // all duplicates marked
  EXPECT_EQ(proxy->shadow_requests(), 20u);
}

TEST_F(LiveProxyTest, PartialShadowSamplesRoughlyPercent) {
  ProxyConfig config = config_with(100.0);
  config.shadows = {ShadowTarget{"stable", "canary", "127.0.0.1",
                                 backends_[1]->port(), 30.0}};
  auto proxy = make_proxy(std::move(config));
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy->data_port()) + "/";
  constexpr int kRequests = 400;
  for (int i = 0; i < kRequests; ++i) ASSERT_TRUE(client_.get(url).ok());
  // Allow async duplicates to drain.
  std::this_thread::sleep_for(300ms);
  const double ratio =
      static_cast<double>(proxy->shadow_requests()) / kRequests;
  EXPECT_NEAR(ratio, 0.30, 0.08);
}

TEST_F(LiveProxyTest, ShadowResponsesNeverReachClient) {
  ProxyConfig config = config_with(100.0);
  config.shadows = {ShadowTarget{"stable", "canary", "127.0.0.1",
                                 backends_[1]->port(), 100.0}};
  auto proxy = make_proxy(std::move(config));
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(proxy->data_port()) + "/");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().body, "stable");  // never the shadow's response
}

TEST_F(LiveProxyTest, DeadBackendYields502) {
  ProxyConfig config;
  config.service = "search";
  config.backends = {BackendTarget{"gone", "127.0.0.1", 1, 100.0, "", ""}};
  auto proxy = make_proxy(std::move(config));
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(proxy->data_port()) + "/");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().status, 502);
  EXPECT_EQ(proxy->backend_errors(), 1u);
}

TEST_F(LiveProxyTest, AdminConfigGetAndPut) {
  auto proxy = make_proxy(config_with(100.0));
  const std::string admin =
      "http://127.0.0.1:" + std::to_string(proxy->admin_port());

  auto get = client_.get(admin + "/admin/config");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value().status, 200);
  EXPECT_NE(get.value().body.find("stable"), std::string::npos);

  auto put = client_.put(admin + "/admin/config",
                         config_with(0.0).to_json().dump(),
                         "application/json");
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.value().status, 200);

  // All traffic now goes to canary.
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(proxy->data_port()) + "/");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().body, "canary");
}

TEST_F(LiveProxyTest, AdminRejectsInvalidConfig) {
  auto proxy = make_proxy(config_with(100.0));
  const std::string admin =
      "http://127.0.0.1:" + std::to_string(proxy->admin_port());
  EXPECT_EQ(client_.put(admin + "/admin/config", "not json", "text/plain")
                .value()
                .status,
            400);
  EXPECT_EQ(client_.put(admin + "/admin/config", R"({"backends":[]})",
                        "application/json")
                .value()
                .status,
            400);
  // Old config still active.
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(proxy->data_port()) + "/");
  EXPECT_EQ(res.value().body, "stable");
}

TEST_F(LiveProxyTest, AdminStatsAndMetrics) {
  auto proxy = make_proxy(config_with(100.0));
  const std::string admin =
      "http://127.0.0.1:" + std::to_string(proxy->admin_port());
  ASSERT_TRUE(client_
                  .get("http://127.0.0.1:" +
                       std::to_string(proxy->data_port()) + "/")
                  .ok());
  auto stats = client_.get(admin + "/admin/stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().body.find("\"configUpdates\""), std::string::npos);
  auto metrics = client_.get(admin + "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().body.find(
                "bifrost_proxy_requests_total{version=\"stable\"} 1"),
            std::string::npos);
  EXPECT_EQ(client_.get(admin + "/healthz").value().status, 200);
}

TEST_F(LiveProxyTest, AdminSessionsExposeUserMappings) {
  auto proxy = make_proxy(config_with(50.0, /*sticky=*/true));
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy->data_port()) + "/";
  // Three distinct clients (no cookie replay) -> three mappings.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client_.get(url).ok());
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(proxy->admin_port()) +
                         "/admin/sessions");
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.value().status, 200);
  auto doc = json::parse(res.value().body);
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ(doc.value().get_number("total"), 3.0);
  const json::Value* mappings = doc.value().find("mappings");
  ASSERT_NE(mappings, nullptr);
  ASSERT_EQ(mappings->as_array().size(), 3u);
  for (const auto& mapping : mappings->as_array()) {
    EXPECT_TRUE(mapping.get_bool("sticky"));
    const std::string version = mapping.get_string("version");
    EXPECT_TRUE(version == "stable" || version == "canary");
    EXPECT_FALSE(mapping.get_string("user").empty());
  }
}

TEST_F(LiveProxyTest, LatencyStatsTrackRequests) {
  auto proxy = make_proxy(config_with(100.0));
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy->data_port()) + "/";
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(client_.get(url).ok());
  const auto stats = proxy->latency_for("stable");
  EXPECT_EQ(stats.count, 25u);
  EXPECT_GT(stats.p50, 0.0);
  EXPECT_LE(stats.p50, stats.p95);
  EXPECT_LE(stats.p95, stats.p99);
  EXPECT_EQ(proxy->latency_for("ghost").count, 0u);

  // And the admin endpoint reports them.
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(proxy->admin_port()) +
                         "/admin/stats");
  ASSERT_TRUE(res.ok());
  EXPECT_NE(res.value().body.find("\"p95_ms\""), std::string::npos);
  EXPECT_NE(res.value().body.find("\"stable\""), std::string::npos);
}

// Regression: latency state for versions that left the routing table
// used to accumulate forever, growing memory across multi-phase runs.
TEST_F(LiveProxyTest, ApplyPrunesRetiredVersionLatency) {
  auto proxy = make_proxy(config_with(100.0));
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy->data_port()) + "/";
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(client_.get(url).ok());
  ASSERT_EQ(proxy->latency_for("stable").count, 10u);

  // New table without 'stable': its latency series must be pruned.
  ProxyConfig canary_only;
  canary_only.service = "search";
  canary_only.backends = {BackendTarget{
      "canary", "127.0.0.1", backends_[1]->port(), 100.0, "", ""}};
  ASSERT_TRUE(proxy->apply(canary_only).ok());
  EXPECT_EQ(proxy->latency_for("stable").count, 0u);
  auto metrics = client_.get("http://127.0.0.1:" +
                             std::to_string(proxy->admin_port()) + "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().body.find(
                std::string(kLatencyMetric) + "_count{version=\"stable\"}"),
            std::string::npos);

  // Re-introducing the version starts a fresh histogram.
  ASSERT_TRUE(proxy->apply(config_with(100.0)).ok());
  EXPECT_EQ(proxy->latency_for("stable").count, 0u);
  ASSERT_TRUE(client_.get(url).ok());
  EXPECT_EQ(proxy->latency_for("stable").count, 1u);
}

// Many client threads hammer the data path while another thread flips
// the routing table; nothing may be lost, double-counted, or unpinned.
TEST_F(LiveProxyTest, ConcurrentTrafficWhileApplyFlips) {
  auto proxy = make_proxy(config_with(50.0, /*sticky=*/true));
  const std::uint16_t port = proxy->data_port();
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;

  std::atomic<bool> stop_flipping{false};
  std::thread flipper([&] {
    // Both configs keep both versions so pinned sessions stay valid.
    for (int i = 0; !stop_flipping.load(); ++i) {
      EXPECT_TRUE(
          proxy->apply(config_with(i % 2 == 0 ? 70.0 : 30.0, true)).ok());
      std::this_thread::sleep_for(2ms);
    }
  });

  std::atomic<int> successes{0};
  std::atomic<int> sticky_violations{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      http::HttpClient client;
      std::string cookie;
      std::string pinned;
      for (int i = 0; i < kPerClient; ++i) {
        http::Request request;
        request.target = "/c" + std::to_string(c);
        if (!cookie.empty()) request.headers.set("Cookie", cookie);
        auto response = client.request(std::move(request), "127.0.0.1", port);
        if (!response.ok() || response.value().status != 200) continue;
        successes.fetch_add(1);
        const std::string version = response.value().body;
        if (pinned.empty()) {
          pinned = version;
          if (const auto set = response.value().headers.get("Set-Cookie")) {
            cookie = set->substr(0, set->find(';'));
          }
        } else if (version != pinned) {
          sticky_violations.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  stop_flipping.store(true);
  flipper.join();

  const int total = successes.load();
  EXPECT_EQ(total, kClients * kPerClient);
  EXPECT_EQ(sticky_violations.load(), 0);
  // No lost or double-counted requests: backend receipts and per-version
  // counters both add up to the client-observed total.
  EXPECT_EQ(counts_[0].load() + counts_[1].load(), total);
  EXPECT_EQ(proxy->requests_for("stable") + proxy->requests_for("canary"),
            static_cast<std::uint64_t>(total));
  EXPECT_EQ(proxy->latency_for("stable").count +
                proxy->latency_for("canary").count,
            static_cast<std::size_t>(total));
  // One session per client thread survived the config flips.
  EXPECT_EQ(proxy->sticky_sessions(), static_cast<std::size_t>(kClients));
}

// Regression: concurrent first requests carrying one (not yet pinned)
// session cookie used to each draw a version and race to assign it, so
// one user could see both versions. All of them must land on one.
TEST_F(LiveProxyTest, ConcurrentFirstRequestsOfOneSessionAgree) {
  auto proxy = make_proxy(config_with(50.0, /*sticky=*/true));
  const std::uint16_t port = proxy->data_port();
  constexpr int kClients = 6;
  constexpr int kRounds = 200;

  std::atomic<int> arrived{0};
  std::atomic<int> split_rounds{0};
  std::mutex mutex;
  std::vector<std::string> versions(kClients);
  int finished = 0;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      http::HttpClient client;
      for (int round = 0; round < kRounds; ++round) {
        // Spin barrier: every client fires the round's first request at
        // the same moment (and only after the previous round was judged).
        arrived.fetch_add(1);
        while (arrived.load() < (round + 1) * kClients) {
          std::this_thread::yield();
        }
        http::Request request;
        request.target = "/";
        request.headers.set("Cookie", std::string(kStickyCookie) +
                                          "=race-" + std::to_string(round));
        auto response = client.request(std::move(request), "127.0.0.1", port);
        const std::lock_guard<std::mutex> lock(mutex);
        versions[c] = response.ok() ? response.value().body : "error";
        if (++finished == (round + 1) * kClients &&
            std::count(versions.begin(), versions.end(), versions[0]) !=
                kClients) {
          split_rounds.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(split_rounds.load(), 0);
  EXPECT_EQ(proxy->sticky_sessions(), static_cast<std::size_t>(kRounds));
}

// Regression for the fire_shadows ordering bug: the bernoulli sampling
// draw must happen before the request copy is made, and only sampled
// shadows may pay the copy. With a partial percentage, copies ==
// dispatches == backend receipts; a draw-after-copy implementation
// would copy on every request and fail the first assertion.
TEST_F(LiveProxyTest, ShadowCopiesMatchDispatchesUnderPartialSampling) {
  ProxyConfig config = config_with(100.0);
  config.shadows = {ShadowTarget{"stable", "canary", "127.0.0.1",
                                 backends_[1]->port(), 30.0}};
  auto proxy = make_proxy(std::move(config));
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy->data_port()) + "/";
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i) ASSERT_TRUE(client_.get(url).ok());

  // Let the async duplicates drain before comparing counters.
  for (int i = 0;
       i < 200 && shadowed_[1].load() <
                      static_cast<int>(proxy->shadow_requests());
       ++i) {
    std::this_thread::sleep_for(10ms);
  }

  EXPECT_EQ(proxy->shadow_copies(), proxy->shadow_requests());
  EXPECT_EQ(static_cast<int>(proxy->shadow_requests()), shadowed_[1].load());
  // ~30% sampled: strictly between "never copied" and "always copied".
  EXPECT_GT(proxy->shadow_copies(), 0u);
  EXPECT_LT(proxy->shadow_copies(), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(proxy->shadows_shed(), 0u);  // idle proxy: nothing shed
}

// TSan hammer: client threads drive traffic while one thread flips the
// routing table and another flips ejection/recovery of the canary.
// Exercises the gate/health/reroute paths against concurrent applies;
// correctness claim is "no request lost and no data race", not any
// particular version split.
TEST_F(LiveProxyTest, ConcurrentTrafficWhileEjectionAndApplyFlip) {
  ProxyConfig initial = config_with(50.0);
  initial.default_version = "stable";
  initial.overload.enabled = true;
  auto proxy = make_proxy(std::move(initial));
  const std::uint16_t port = proxy->data_port();
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    for (int i = 0; !stop.load(); ++i) {
      ProxyConfig config = config_with(i % 2 == 0 ? 70.0 : 30.0);
      config.default_version = "stable";
      config.overload.enabled = true;
      EXPECT_TRUE(proxy->apply(std::move(config)).ok());
      std::this_thread::sleep_for(2ms);
    }
  });
  std::thread ejector([&] {
    while (!stop.load()) {
      proxy->force_eject("canary");
      std::this_thread::sleep_for(3ms);
      proxy->force_recover("canary");
      std::this_thread::sleep_for(3ms);
    }
  });

  std::atomic<int> successes{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      http::HttpClient client;
      for (int i = 0; i < kPerClient; ++i) {
        auto response = client.get("http://127.0.0.1:" +
                                   std::to_string(port) + "/");
        if (response.ok() && response.value().status == 200) {
          successes.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true);
  flipper.join();
  ejector.join();

  const int total = successes.load();
  // Ejection only reroutes — it must never fail a live request.
  EXPECT_EQ(total, kClients * kPerClient);
  EXPECT_EQ(counts_[0].load() + counts_[1].load(), total);
  EXPECT_EQ(proxy->requests_for("stable") + proxy->requests_for("canary"),
            static_cast<std::uint64_t>(total));
  // The flip threads really exercised both transitions.
  const auto events = proxy->health_events_since(0);
  EXPECT_GE(events.size(), 2u);
}

TEST_F(LiveProxyTest, ApplyRejectsInvalidSwapsAtomically) {
  auto proxy = make_proxy(config_with(100.0));
  ProxyConfig bad;
  bad.service = "search";
  EXPECT_FALSE(proxy->apply(bad).ok());
  EXPECT_EQ(proxy->current_config().backends.size(), 2u);
}

TEST_F(LiveProxyTest, EmulationCostAddsLatency) {
  BifrostProxy::Options options;
  options.emulation_cost = 30ms;
  options.rng_seed = 1;
  BifrostProxy proxy(options, config_with(100.0));
  proxy.start();
  const auto start = std::chrono::steady_clock::now();
  auto res = client_.get("http://127.0.0.1:" +
                         std::to_string(proxy.data_port()) + "/");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(res.ok());
  EXPECT_GE(elapsed, 30ms);
}

TEST(ProxyLifecycle, RejectsInvalidInitialConfig) {
  ProxyConfig invalid;
  invalid.service = "s";
  EXPECT_THROW(BifrostProxy(BifrostProxy::Options{}, invalid),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Config epochs: duplicate/stale applies are idempotent no-ops, and the
// highest applied epoch survives a proxy restart via epoch_file.

TEST(ConfigEpoch, DuplicateAndStaleEpochsAreDeduplicated) {
  BifrostProxy proxy(BifrostProxy::Options{}, two_way_config());

  ProxyConfig fresh = two_way_config(80.0);
  fresh.epoch = 5;
  auto applied = proxy.apply_versioned(fresh);
  ASSERT_TRUE(applied.ok()) << applied.error_message();
  EXPECT_TRUE(applied.value());
  EXPECT_EQ(proxy.applied_epoch(), 5u);

  // Same epoch again (a recovering engine re-issuing its journaled
  // intent): no-op, even though the payload differs.
  ProxyConfig duplicate = two_way_config(10.0);
  duplicate.epoch = 5;
  applied = proxy.apply_versioned(duplicate);
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied.value());
  EXPECT_DOUBLE_EQ(proxy.current_config().backends[0].percent, 80.0);

  ProxyConfig stale = two_way_config(20.0);
  stale.epoch = 3;
  applied = proxy.apply_versioned(stale);
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied.value());
  EXPECT_EQ(proxy.duplicate_epochs(), 2u);
  EXPECT_EQ(proxy.applied_epoch(), 5u);

  ProxyConfig newer = two_way_config(30.0);
  newer.epoch = 6;
  applied = proxy.apply_versioned(newer);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied.value());
  EXPECT_EQ(proxy.applied_epoch(), 6u);

  // Epoch 0 = legacy unversioned config: always applied, floor kept.
  ProxyConfig legacy = two_way_config(40.0);
  applied = proxy.apply_versioned(legacy);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied.value());
  EXPECT_EQ(proxy.applied_epoch(), 6u);
}

TEST(ConfigEpoch, PersistedEpochSurvivesRestart) {
  const std::string file = testing::TempDir() + "proxy_epoch_" +
                           std::to_string(::getpid());
  std::remove(file.c_str());
  BifrostProxy::Options options;
  options.epoch_file = file;
  {
    BifrostProxy proxy(options, two_way_config());
    ProxyConfig config = two_way_config(70.0);
    config.epoch = 7;
    auto applied = proxy.apply_versioned(config);
    ASSERT_TRUE(applied.ok());
    EXPECT_TRUE(applied.value());
  }
  {
    // A restarted proxy (fresh process, same epoch file) still rejects
    // the epochs it already applied before dying.
    BifrostProxy proxy(options, two_way_config());
    EXPECT_EQ(proxy.applied_epoch(), 7u);
    ProxyConfig replayed = two_way_config(10.0);
    replayed.epoch = 7;
    auto applied = proxy.apply_versioned(replayed);
    ASSERT_TRUE(applied.ok());
    EXPECT_FALSE(applied.value());
    ProxyConfig next = two_way_config(60.0);
    next.epoch = 8;
    applied = proxy.apply_versioned(next);
    ASSERT_TRUE(applied.ok());
    EXPECT_TRUE(applied.value());
  }
  std::remove(file.c_str());
}

TEST_F(LiveProxyTest, AdminHealthAndEpochOverHttp) {
  auto proxy = make_proxy(config_with(100.0));
  const std::string admin =
      "http://127.0.0.1:" + std::to_string(proxy->admin_port());

  auto health = client_.get(admin + "/admin/health");
  ASSERT_TRUE(health.ok()) << health.error_message();
  ASSERT_EQ(health.value().status, 200);
  auto doc = json::parse(health.value().body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().get_string("status"), "ok");
  EXPECT_EQ(doc.value().get_string("service"), "search");
  EXPECT_EQ(doc.value().get_number("configEpoch", -1), 0.0);

  ProxyConfig update = config_with(50.0);
  update.epoch = 3;
  auto put = client_.put(admin + "/admin/config", update.to_json().dump(),
                         "application/json");
  ASSERT_TRUE(put.ok()) << put.error_message();
  ASSERT_EQ(put.value().status, 200);
  auto put_doc = json::parse(put.value().body);
  ASSERT_TRUE(put_doc.ok());
  EXPECT_TRUE(put_doc.value().get_bool("applied", false));

  // Re-issuing the same epoch over the admin API is acknowledged as a
  // success but NOT applied (idempotent recovery semantics).
  ProxyConfig replay = config_with(10.0);
  replay.epoch = 3;
  put = client_.put(admin + "/admin/config", replay.to_json().dump(),
                    "application/json");
  ASSERT_TRUE(put.ok());
  ASSERT_EQ(put.value().status, 200);
  put_doc = json::parse(put.value().body);
  ASSERT_TRUE(put_doc.ok());
  EXPECT_FALSE(put_doc.value().get_bool("applied", true));

  // GET /admin/config echoes the authoritative applied epoch.
  auto got = client_.get(admin + "/admin/config");
  ASSERT_TRUE(got.ok());
  auto got_doc = json::parse(got.value().body);
  ASSERT_TRUE(got_doc.ok());
  EXPECT_EQ(got_doc.value().get_number("epoch", -1), 3.0);

  health = client_.get(admin + "/admin/health");
  ASSERT_TRUE(health.ok());
  doc = json::parse(health.value().body);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().get_number("configEpoch", -1), 3.0);
  EXPECT_EQ(doc.value().get_number("duplicateEpochs", -1), 1.0);
}

// ---------------------------------------------------------------------------
// Graceful drain

TEST_F(LiveProxyTest, StopDrainsInFlightRequests) {
  // A slow backend: the proxy is stopped while a request is still being
  // served; the drain deadline must let it finish.
  http::HttpServer::Options backend_options;
  backend_options.worker_threads = 2;
  http::HttpServer slow(backend_options, [](const http::Request&) {
    std::this_thread::sleep_for(250ms);
    return http::Response::text(200, "slow-ok");
  });
  slow.start();

  ProxyConfig config;
  config.service = "search";
  config.backends = {
      BackendTarget{"v1", "127.0.0.1", slow.port(), 100.0, "", ""}};
  BifrostProxy::Options options;
  options.drain_timeout = 2000ms;
  BifrostProxy proxy(options, std::move(config));
  proxy.start();
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy.data_port()) + "/";

  util::Result<http::Response> response =
      util::Result<http::Response>::error("not sent");
  std::thread requester([&] {
    http::HttpClient client;
    response = client.get(url);
  });
  std::this_thread::sleep_for(50ms);  // request is now in flight
  proxy.stop();                       // must wait for it, then close
  requester.join();

  ASSERT_TRUE(response.ok()) << response.error_message();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "slow-ok");
  slow.stop();
}

TEST_F(LiveProxyTest, DrainDeadlineBoundsStopLatency) {
  // With a tiny drain deadline and a very slow backend, stop() gives up
  // waiting and force-closes instead of hanging for the full response.
  http::HttpServer::Options backend_options;
  backend_options.worker_threads = 2;
  http::HttpServer glacial(backend_options, [](const http::Request&) {
    std::this_thread::sleep_for(1500ms);
    return http::Response::text(200, "late");
  });
  glacial.start();

  ProxyConfig config;
  config.service = "search";
  config.backends = {
      BackendTarget{"v1", "127.0.0.1", glacial.port(), 100.0, "", ""}};
  BifrostProxy::Options options;
  options.drain_timeout = 100ms;
  BifrostProxy proxy(options, std::move(config));
  proxy.start();
  const std::string url =
      "http://127.0.0.1:" + std::to_string(proxy.data_port()) + "/";

  std::thread requester([&] {
    http::HttpClient client;
    (void)client.get(url);  // will be cut off; outcome irrelevant
  });
  std::this_thread::sleep_for(50ms);
  const auto begin = std::chrono::steady_clock::now();
  proxy.stop();
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, 1000ms) << "stop() should respect the drain deadline";
  requester.join();
  glacial.stop();
}

}  // namespace
}  // namespace bifrost::proxy

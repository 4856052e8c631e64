// The formal model of multi-phase live testing from Section 3 of the
// paper, as a declarative C++ data model:
//
//   Strategy  S = <B, A>          — services B, automaton A
//   Service   b = <v1..vn>       — versions with static config sc_i
//   Routing   dc = <M, Gamma>    — user mappings M (user, version, sticky)
//                                   and dark-launch rules Gamma
//                                   (source, target, p)
//   Automaton A = <Omega, S, s1, delta, F>
//   State     s = <C, T, W, Phi, eta>
//   Checks    basic     <f, Omega_i, tau, T_c, Out_c>
//             exception <f, Omega_i, tau, s_fallback>
//
// Checks aggregate 0/1 execution results by summation; basic checks map
// the aggregate through ordered thresholds (n thresholds -> n+1 disjoint
// ranges (t_i, t_{i+1}]) to an integer; a state's outcome is the weighted
// linear combination of check outcomes; delta maps the outcome through
// the state's thresholds to the successor state.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "util/result.hpp"

namespace bifrost::core {

// ---------------------------------------------------------------------------
// Fault tolerance at the engine's outside-world edges (providers and
// proxies). Both policies are plain data here; the enforcement lives in
// engine/resilience.hpp so the model stays declarative.

/// Retry budget for one call to an external dependency. The default is
/// a single attempt (no retries); `max_attempts > 1` enables
/// exponential backoff between attempts.
struct RetryPolicy {
  int max_attempts = 1;  ///< total attempts, including the first
  runtime::Duration initial_backoff = std::chrono::milliseconds(200);
  double multiplier = 2.0;  ///< backoff growth factor per attempt (>= 1)
  runtime::Duration max_backoff = std::chrono::seconds(30);  ///< backoff cap
  /// Fraction in [0,1] of extra, deterministically seeded jitter added
  /// on top of the base backoff (delay in [base, base * (1 + jitter)]).
  double jitter = 0.0;
  /// An attempt that takes longer than this counts as failed even if it
  /// eventually returns a value. Zero disables the timeout.
  runtime::Duration attempt_timeout = std::chrono::seconds(0);

  [[nodiscard]] bool enabled() const { return max_attempts > 1; }
};

/// Per-target circuit breaker (closed -> open -> half-open). After
/// `failure_threshold` consecutive failures the target is "open": calls
/// fail fast without touching the dependency for `open_duration`, after
/// which `half_open_probes` successful probe calls close it again.
struct CircuitBreakerPolicy {
  bool enabled = false;
  int failure_threshold = 5;
  runtime::Duration open_duration = std::chrono::seconds(30);
  int half_open_probes = 1;
};

/// Overload protection and backend health for a service's data plane,
/// enacted by the service's Bifrost proxy (declared in the strategy's
/// `overload:` block; the engine copies it into every ProxyConfig it
/// pushes). Three mechanisms, all off unless `enabled`:
///  * admission control — per-version bounded concurrency; excess live
///    requests get 503 + Retry-After instead of queueing. With
///    `adaptive`, the limit shrinks multiplicatively when the recent
///    window p50 inflates past `latency_inflation` x a rolling baseline
///    and grows additively (+1 per healthy window) back to
///    `max_concurrency`.
///  * priority shedding — shadow duplicates run through a bounded queue
///    (capacity `shadow_queue`, drop-oldest) and are shed outright when
///    any live gate's utilization reaches `shed_utilization`, so dark
///    traffic never displaces live traffic.
///  * outlier ejection — a per-backend EWMA (weight `ewma_alpha`) of
///    errors/timeouts at or above `eject_threshold` (after
///    `eject_min_samples` samples) ejects the version for an
///    exponentially growing backoff window starting at `base_ejection`
///    (capped at `max_ejection`); its traffic reroutes to
///    default_version. Re-admission is gated by an active probe
///    (`GET probe_path` every `probe_interval`).
struct OverloadPolicy {
  bool enabled = false;

  // Admission control (per-version bounded concurrency).
  int max_concurrency = 0;  ///< live requests per version; 0 = unlimited
  bool adaptive = false;
  int min_concurrency = 2;         ///< adaptive floor
  double latency_inflation = 2.0;  ///< window p50 / baseline p50 trigger
  int adapt_window = 32;           ///< latency samples per adaptation step

  // Shadow-traffic shedding.
  int shadow_queue = 64;          ///< bounded shadow queue (drop-oldest)
  double shed_utilization = 0.9;  ///< shed shadows at this gate utilization

  // Outlier ejection.
  double eject_threshold = 0.5;  ///< EWMA failure rate that ejects
  int eject_min_samples = 8;     ///< samples before EWMA is trusted
  double ewma_alpha = 0.2;       ///< EWMA weight of the newest sample
  runtime::Duration base_ejection = std::chrono::seconds(5);
  runtime::Duration max_ejection = std::chrono::seconds(60);
  std::string probe_path = "/health";
  runtime::Duration probe_interval = std::chrono::milliseconds(250);
};

// ---------------------------------------------------------------------------
// Services (B) and static configuration (sc)

/// One deployed version of a service with its endpoint (static config).
struct VersionDef {
  std::string version;  ///< e.g. "stable", "canary", "a", "b"
  std::string host;
  std::uint16_t port = 0;
  /// Per-version backend deadline at the proxy, ms (a canary can get a
  /// tighter deadline than stable). 0 = the proxy's default timeout.
  std::uint32_t timeout_ms = 0;
  /// Per-version concurrency cap, overriding
  /// OverloadPolicy::max_concurrency. 0 = inherit the policy's cap.
  int max_concurrency = 0;

  [[nodiscard]] std::string endpoint() const {
    return host + ":" + std::to_string(port);
  }
};

/// One proxy instance ("region") of a federated service. A service that
/// declares regions is fronted by N proxies instead of one; config
/// pushes fan out to every region in `canary_order` and the fleet
/// advances under the service's quorum rule.
struct RegionDef {
  std::string name;  ///< e.g. "us-east", "eu-west"
  std::string proxy_admin_host;
  std::uint16_t proxy_admin_port = 0;
  /// Relative share of fleet traffic this region carries. Used to
  /// weight cross-region mean aggregation; purely informational for
  /// routing (each region's proxy splits its own traffic).
  double weight = 1.0;
  /// Push ordering: lower values are pushed first. The region with the
  /// lowest canary_order is the fleet's canary region (ties broken by
  /// declaration order).
  int canary_order = 0;
};

/// A service b_i with its versions and the Bifrost proxy fronting it.
struct ServiceDef {
  std::string name;
  std::vector<VersionDef> versions;
  /// Admin endpoint of the service's Bifrost proxy (one proxy per
  /// service, paper §4.1). Empty host means "no proxy" (service not part
  /// of any live test). Ignored when `regions` is non-empty — a
  /// federated service talks to its per-region proxies instead.
  std::string proxy_admin_host;
  std::uint16_t proxy_admin_port = 0;
  /// Federation: the per-region proxies fronting this service. Empty
  /// means the classic single-proxy deployment.
  std::vector<RegionDef> regions;
  /// Minimum regions a fleet push must land on to proceed (regions that
  /// miss it are marked region_degraded and resynced later). 0 means
  /// majority: floor(n/2) + 1. A push scoped to fewer regions than the
  /// quorum must land on all of them.
  int quorum = 0;
  /// Fault tolerance for routing updates pushed to this service's proxy
  /// (applied per region for federated services).
  RetryPolicy retry{};
  CircuitBreakerPolicy circuit_breaker{};
  /// Data-plane overload protection enacted by this service's proxy.
  OverloadPolicy overload{};

  [[nodiscard]] const VersionDef* find_version(const std::string& v) const;
  [[nodiscard]] const RegionDef* find_region(const std::string& r) const;
  [[nodiscard]] bool federated() const { return !regions.empty(); }
  /// Effective quorum: `quorum` when set, else majority of the fleet.
  [[nodiscard]] int quorum_size() const;
  /// Region pointers sorted by (canary_order, declaration order).
  [[nodiscard]] std::vector<const RegionDef*> regions_in_canary_order() const;
  /// The region pushed first (lowest canary_order); nullptr when not
  /// federated.
  [[nodiscard]] const RegionDef* canary_region() const;
};

// ---------------------------------------------------------------------------
// Dynamic routing configuration (dc = <M, Gamma>)

/// An entry of M: user u_k assigned to version v_j, optionally sticky.
struct UserAssignment {
  std::string user;
  std::string version;
  bool sticky = false;

  auto operator<=>(const UserAssignment&) const = default;
};

/// An entry of Gamma: duplicate p percent of traffic from source version
/// to target version (dark launch).
struct ShadowRule {
  std::string source_version;
  std::string target_version;
  double percent = 100.0;
};

/// How the proxy identifies which bucket a request belongs to.
enum class RoutingMode {
  kCookie,  ///< proxy decides and re-identifies via Set-Cookie UUID
  kHeader,  ///< an upstream component injected a header; proxy matches it
};

/// Traffic share routed to one version. In cookie mode `percent` drives
/// a (sticky or per-request) random split; in header mode requests whose
/// `match_header` equals `match_value` go to this version.
struct VersionSplit {
  std::string version;
  double percent = 0.0;
  std::string match_header;
  std::string match_value;
};

/// Restricts an experiment to a sub-population (the fine-grained part
/// of the user selection function eta, e.g. "5% of US users"): only
/// requests whose `header` equals `value` take part in the split;
/// everyone else goes straight to `default_version`.
struct ExperimentFilter {
  std::string header;
  std::string value;
  std::string default_version;

  [[nodiscard]] bool active() const { return !header.empty(); }
};

/// The dynamic routing configuration of one service in one state (an
/// element of Phi). The split plus stickiness and the optional filter
/// realize the user selection function eta; shadows realize Gamma.
struct ServiceRouting {
  std::string service;
  RoutingMode mode = RoutingMode::kCookie;
  bool sticky = false;
  ExperimentFilter filter;
  std::vector<VersionSplit> splits;
  std::vector<ShadowRule> shadows;
  /// Region scope for federated services: only the named regions
  /// receive this config (the rest of the fleet keeps what it has).
  /// Empty means the whole fleet. Lets a state ramp the canary region
  /// alone before a later state pushes fleet-wide.
  std::vector<std::string> regions;
};

// ---------------------------------------------------------------------------
// Checks (C), thresholds (T), weights (W)

/// Comparison operator of a DSL validator expression such as "<5".
enum class Comparator { kLt, kLe, kGt, kGe, kEq, kNe };

struct Validator {
  Comparator cmp = Comparator::kLt;
  double operand = 0.0;

  [[nodiscard]] bool eval(double value) const;
  [[nodiscard]] std::string to_string() const;

  /// Parses "<5", ">=0.99", "== 3", "!=0", ...
  static util::Result<Validator> parse(std::string_view text);
};

/// Cross-region combination of per-region metric streams. The query is
/// executed once per region (every "$region" occurrence replaced by the
/// region name) and the scalars combine before the validator applies.
enum class RegionAggregate {
  kNone,   ///< single query, no region fan-out
  kMax,    ///< worst region
  kMin,    ///< best region
  kMean,   ///< weight-averaged fleet value
  kDelta,  ///< canary value minus the rest's weighted mean (drift detector)
};

/// One metric retrieval + comparison inside a check's evaluation
/// function f_c (Listing 1 of the paper): fetch `query` from `provider`
/// and apply `validator` to the scalar result.
struct MetricCondition {
  std::string provider = "prometheus";
  std::string alias;  ///< DSL-visible name of the retrieved metric
  std::string query;  ///< provider query text (PromQL subset)
  Validator validator;
  /// If true, an unreachable provider / empty result fails the
  /// condition; if false, no-data counts as success (optimistic).
  bool fail_on_no_data = true;
  /// Cross-region aggregation: when not kNone, `query` fans out over
  /// the regions of `region_service` and the validator sees the
  /// aggregate (or, for kDelta, canary minus fleet mean).
  RegionAggregate aggregate = RegionAggregate::kNone;
  std::string region_service{};  ///< federated service whose regions fan out
};

/// Access to monitoring data Omega during a check execution. The real
/// engine implements this against metrics providers over HTTP; the
/// simulator implements it against synthetic data.
class EvalContext {
 public:
  virtual ~EvalContext() = default;

  /// Scalar result of `query` against `provider`; error when the
  /// provider is unreachable; nullopt value when no series matched.
  virtual util::Result<std::optional<double>> query(
      const std::string& provider, const std::string& query) = 0;

  [[nodiscard]] virtual double now_seconds() const = 0;
};

/// Optional programmatic evaluation function for library users who need
/// more than declarative conditions. ANDed with `conditions`.
using CustomEval = std::function<bool(EvalContext&)>;

enum class CheckKind { kBasic, kException };

/// A check c_i. tau is (interval, executions). For basic checks,
/// `thresholds`/`outputs` form Out_c and `weight` is the w_i used in the
/// state's weighted linear combination. For exception checks,
/// `fallback_state` is the state entered the moment one execution fails.
struct CheckDef {
  std::string name;
  CheckKind kind = CheckKind::kBasic;
  std::vector<MetricCondition> conditions;  ///< ANDed per execution
  CustomEval custom;                        ///< optional, ANDed too

  runtime::Duration interval = std::chrono::seconds(5);
  int executions = 1;  ///< n in f^tau = sum of n executions

  // Basic checks only (Out_c):
  std::vector<double> thresholds;  ///< ordered, strictly increasing
  std::vector<int> outputs;        ///< size thresholds.size() + 1
  double weight = 1.0;

  // Exception checks only:
  std::string fallback_state;

  [[nodiscard]] runtime::Duration total_duration() const {
    return interval * executions;
  }
};

// ---------------------------------------------------------------------------
// States (S) and the transition function (delta)

enum class FinalKind {
  kNone,      ///< non-final state
  kSuccess,   ///< rollout completed
  kRollback,  ///< rolled back to the stable version
};

/// A state s_i = <C, T, W, Phi, eta>. `thresholds` (T) with
/// `transitions` encode delta restricted to this state: n thresholds
/// form n+1 ranges; range i leads to transitions[i]. Re-entering the
/// same state name re-executes the state with timers reset.
struct StateDef {
  std::string name;
  std::vector<CheckDef> checks;
  std::vector<double> thresholds;
  std::vector<std::string> transitions;  ///< size thresholds.size() + 1
  std::vector<ServiceRouting> routing;   ///< Phi
  /// Minimum time in the state even if all checks finish earlier (states
  /// with no checks use this as their dwell time).
  runtime::Duration min_duration = std::chrono::seconds(0);
  FinalKind final_kind = FinalKind::kNone;

  [[nodiscard]] bool is_final() const { return final_kind != FinalKind::kNone; }

  /// Time until all checks have completed their executions.
  [[nodiscard]] runtime::Duration duration() const;
};

// ---------------------------------------------------------------------------
// Strategy (S = <B, A>)

/// Endpoint of a metrics provider named in MetricCondition::provider.
struct ProviderConfig {
  std::string host;
  std::uint16_t port = 0;
  /// Fault tolerance for queries against this provider.
  RetryPolicy retry{};
  CircuitBreakerPolicy circuit_breaker{};
};

struct StrategyDef {
  std::string name;
  std::vector<ServiceDef> services;  ///< B
  std::vector<StateDef> states;      ///< automaton states
  std::string initial_state;         ///< s1
  std::map<std::string, ProviderConfig> providers;

  [[nodiscard]] const StateDef* find_state(const std::string& name) const;
  [[nodiscard]] const ServiceDef* find_service(const std::string& name) const;

  /// Sum over the longest path of state durations; an upper bound is not
  /// computable with cycles, so this uses the linear chain from the
  /// initial state following first transitions (the "expected" path).
  [[nodiscard]] runtime::Duration expected_duration() const;
};

// ---------------------------------------------------------------------------
// Model semantics helpers

/// Maps an aggregated value through ordered thresholds to the value of
/// the range it falls into: outputs[i] for thresholds[i-1] < e <=
/// thresholds[i], outputs.back() for e > thresholds.back().
/// Preconditions (validated): thresholds strictly increasing,
/// outputs.size() == thresholds.size() + 1.
int map_through_thresholds(const std::vector<double>& thresholds,
                           const std::vector<int>& outputs, double e);

/// delta restricted to a state: the name of the successor state for the
/// given weighted outcome.
const std::string& next_state_name(const StateDef& state, double outcome);

/// Weighted linear combination sum(value_i * weight_i) of check results.
double weighted_outcome(const std::vector<std::pair<double, double>>&
                            value_weight_pairs);

/// Full structural validation (see validate.cpp for the rule list).
util::Result<void> validate(const StrategyDef& strategy);

/// Graphviz dot rendering of the automaton (Figure 2 style).
std::string to_dot(const StrategyDef& strategy);

}  // namespace bifrost::core

// perfbench: one steady benchmark for Bifrost's two end-to-end paths.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: proxy-pass, proxy-darklaunch, enact-checks, enact-ramp
// (see ../NOTES.md). --trace 0 prints the end-to-end metrics; --trace 1
// traces every other window or strategy of the run, prints the tracing
// overhead and reports the per-layer metrics. The last stdout line is
// the JSON result; ../run.py builds this program and checks that line
// against BENCHMARK.json.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> values) { return percentile(values, 50); }

void report_tracing_overhead(const std::vector<double>& sequence,
                             Metrics& layers) {
  std::vector<double> change_pct;
  for (std::size_t k = 0; k < sequence.size(); k += 2) {
    std::vector<double> neighbours;
    if (k > 0) neighbours.push_back(sequence[k - 1]);
    if (k + 1 < sequence.size()) neighbours.push_back(sequence[k + 1]);
    const double base = mean(neighbours);
    if (base > 0) change_pct.push_back(100.0 * (sequence[k] / base - 1.0));
  }
  const double overhead = percentile(change_pct, 50);
  std::printf(
      "tracing overhead: op_time_rel %+.2f%% (median over %zu traced "
      "windows or strategies against their untraced neighbours; "
      "quartiles %+.2f%% .. %+.2f%%)\n",
      overhead, change_pct.size(), percentile(change_pct, 25),
      percentile(change_pct, 75));
  layers["trace.overhead_pct"] = {overhead, "%"};
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "proxy-pass|proxy-darklaunch|enact-checks|enact-ramp "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

Result run(const Args& args) {
  if (args.workload == "proxy-pass") return run_proxy(args, false);
  if (args.workload == "proxy-darklaunch") return run_proxy(args, true);
  if (args.workload == "enact-checks") return run_enact(args, false);
  return run_enact(args, true);
}

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.10g", value);
  return text;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

void print_table(const char* title, const Metrics& metrics) {
  std::printf("%s:", title);
  for (const auto& [name, metric] : metrics) {
    std::printf(" %s=%s", name.c_str(), number(metric.value).c_str());
    if (metric.unit != "count" && metric.unit != "ratio") {
      std::printf("[%s]", metric.unit.c_str());
    }
  }
  std::printf("\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload ||
      (args.workload != "proxy-pass" && args.workload != "proxy-darklaunch" &&
       args.workload != "enact-checks" && args.workload != "enact-ramp")) {
    return usage("missing or unknown --workload");
  }

  std::printf(
      "provenance: nproc=%u compiler=\"GCC %s\" build=%s seed=%llu "
      "traffic=loopback(127.0.0.1)\n",
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(args.seed));
  std::fflush(stdout);

  Result result;
  try {
    result = run(args);
    print_table("workload", result.detail);
    print_table("end-to-end", result.end_to_end);
    if (args.trace) {
      // The workload's own figures travel with the layers; layer
      // counters keep their names, the rest are prefixed "e2e.".
      for (const auto& [name, metric] : result.detail) {
        const bool layer =
            name.rfind("engine.", 0) == 0 || name.rfind("proxy.", 0) == 0;
        result.layers[layer ? name : "e2e." + name] = metric;
      }
      print_table("layers", result.layers);
      ::mkdir(args.out_dir.c_str(), 0755);
      const std::string path = args.out_dir + "/spans-" + args.workload +
                               "-" + std::to_string(args.seed) + ".tsv";
      if (write_spans(result.spans, path, 20000)) {
        std::printf("spans: %zu recorded, written to %s (at most 20000 per "
                    "name)\n",
                    result.spans.size(), path.c_str());
      }
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }
  for (const std::string& e : result.errors) {
    std::printf("check failed: %s\n", e.c_str());
  }
  if (result.attempted == 0) result.attempted = 1;
  const Metrics& reported = args.trace ? result.layers : result.end_to_end;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      result.correct ? json_metrics(reported).c_str() : "{}");
  return 0;
}

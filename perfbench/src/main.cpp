// perfbench — the end-to-end benchmark of the CWSP hardening toolkit.
//
//   perfbench --generate --workload W --seed N --out DIR [--trace 1]
//       writes the seeded inputs (never timed; its own process)
//   perfbench --workload W --seed N --seconds S --trace 0|1 --out DIR
//             --tool PATH
//       runs workload W and prints, as its last stdout line, one JSON
//       object with `correct`, `attempted`, `failed` and `metrics`
//   perfbench --self-test --tool PATH --out DIR
//       feeds every output check a deliberately wrong input
//
// perfbench/run.py builds this binary and drives it; README.md documents
// the workloads, metrics and estimator.

#include <sys/stat.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>

#include "bencharness/generator.hpp"
#include "checks.hpp"
#include "common/error.hpp"
#include "netlist/writer.hpp"
#include "workloads.hpp"

namespace perfbench {

int run_self_test(const RunConfig& config);

namespace {

using WorkloadFn = RunResult (*)(const RunConfig&, Tracer&, bool);
using GenerateFn = void (*)(const RunConfig&);

struct Workload {
  const char* name;
  WorkloadFn run;
  GenerateFn generate;  // nullptr: the workload needs no input files
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"campaign-c880", run_campaign_c880, generate_campaign_inputs},
      {"service-mix", run_service_mix, generate_service_inputs},
      {"spice-delay-line", run_spice_delay_line, nullptr},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The metrics of BENCHMARK.json with their units: every untraced run prints
// all end-to-end ones, every traced run all per-layer ones.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const MetricSpec kEndToEnd[] = {
    {"throughput_per_s", "1/s"},
    {"latency_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};
const MetricSpec kPerLayer[] = {
    {"netlist.parse_s", "s"},
    {"sta.analyze_s", "s"},
    {"cwsp.harden_s", "s"},
    {"set.plan_s", "s"},
    {"sim.context_build_s", "s"},
    {"sim.golden_sweep_s", "s"},
    {"sim.timed_resolution_s", "s"},
    {"sim.width64.strikes_per_s", "strikes/s"},
    {"sim.width256.strikes_per_s", "strikes/s"},
    {"sim.width512.strikes_per_s", "strikes/s"},
    {"campaign.setup_s", "s"},
    {"campaign.run_s", "s"},
    {"campaign.report_s", "s"},
    {"campaign.lane_batches", "count"},
    {"campaign.lane_timed_resolutions", "count"},
    {"campaign.lane_analytic_strikes", "count"},
    {"campaign.lane_occupancy", "ratio"},
    {"kernel.golden_cache_hit_ratio", "ratio"},
    {"campaign.parallel_speedup", "ratio"},
    {"analysis.window_s", "s"},
    {"analysis.certify_s", "s"},
    {"lint.run_s", "s"},
    {"scheme.compare_s", "s"},
    {"service.session_build_s", "s"},
    {"service.overhead_ms", "ms"},
    {"service.session_hit_ratio", "ratio"},
    {"service.result_cache_hit_ratio", "ratio"},
    {"service.batch_coalesced", "count"},
    {"service.sta_p50_ms", "ms"},
    {"service.lint_p50_ms", "ms"},
    {"service.certify_p50_ms", "ms"},
    {"service.campaign_p50_ms", "ms"},
    {"service.compare_p50_ms", "ms"},
    {"service.p99_ms", "ms"},
    {"service.round_requests_per_s", "1/s"},
    {"spice.calibrate_s", "s"},
    {"spice.characterize_unit_s", "s"},
    {"spice.steps", "count"},
    {"spice.newton_iterations", "count"},
    {"spice.rejected_steps", "count"},
    {"spice.transient_s", "s"},
    {"spice.steps_per_s", "1/s"},
    {"spice.glitch_s", "s"},
    {"cell.characterize_s", "s"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    CWSP_REQUIRE_MSG(key.rfind("--", 0) == 0, "unexpected argument " << key);
    key = key.substr(2);
    if (key == "generate" || key == "self-test") {
      args.values[key] = "1";
    } else {
      CWSP_REQUIRE_MSG(i + 1 < argc, "--" << key << " needs a value");
      args.values[key] = argv[++i];
    }
  }
  return args;
}

// Reduces the result to exactly the `wanted` metrics; a missing one, a
// wrong unit, or (when `positive`) a value that is not finite and > 0 is
// a check failure.
template <std::size_t N>
void keep_only(RunResult& result, const MetricSpec (&wanted)[N],
               bool positive) {
  std::map<std::string, std::pair<double, std::string>> kept;
  for (const MetricSpec& spec : wanted) {
    const auto it = result.metrics.find(spec.name);
    const bool ok =
        it != result.metrics.end() && it->second.second == spec.unit &&
        std::isfinite(it->second.first) && (!positive || it->second.first > 0.0);
    result.check(ok, std::string("metric missing, in the wrong unit or not "
                                 "measured: ") + spec.name);
    if (ok) kept.insert(*it);
  }
  result.metrics = std::move(kept);
}

// Prints the traced run's per-layer table: self time per span name, then
// every per-layer figure.
void print_layers(const Tracer& tracer, const RunResult& result) {
  std::cout << "span self time (s), count\n";
  for (const auto& [name, self] : tracer.self_seconds()) {
    std::cout << "  " << name << "  " << self << "  " << tracer.count(name)
              << "\n";
  }
  std::cout << "per-layer metrics\n";
  for (const auto& [name, value] : result.metrics) {
    std::cout << "  " << name << " = " << value.first << " " << value.second
              << "\n";
  }
}

RunResult run_traced(const RunConfig& config, const Workload& named) {
  // Untraced and traced passes of the named workload, half the time each:
  // the difference is the tracing overhead.
  RunConfig half = config;
  half.seconds = config.seconds / 2.0;
  Tracer off(false);
  const RunResult plain = named.run(half, off, false);
  Tracer tracer(true);
  RunResult result = named.run(half, tracer, false);
  result.attempted += plain.attempted;
  result.failed += plain.failed;
  result.problems.insert(result.problems.end(), plain.problems.begin(),
                         plain.problems.end());
  result.set("trace.overhead_pct",
             (plain.metrics.at("throughput_per_s").first /
                  result.metrics.at("throughput_per_s").first -
              1.0) * 100.0,
             "%");
  // Layers the named workload never calls are taken from a short census
  // pass of the workload that owns them.
  for (const Workload& other : workloads()) {
    if (&other == &named) continue;
    const RunResult census = other.run(config, tracer, true);
    result.attempted += census.attempted;
    result.failed += census.failed;
    result.problems.insert(result.problems.end(), census.problems.begin(),
                           census.problems.end());
    for (const auto& [name, value] : census.metrics) {
      result.metrics.emplace(name, value);
    }
  }
  const std::string nesting = checks::spans_nest(tracer.spans());
  result.check(nesting.empty(), nesting);
  const std::string trace_path = config.out_dir + "/trace-" + config.workload +
                                 "-" + std::to_string(config.seed) + ".json";
  write_file(trace_path, tracer.chrome_json());
  std::cout << "trace: " << trace_path << " (" << tracer.spans().size()
            << " spans)\n";

  keep_only(result, kPerLayer, false);
  print_layers(tracer, result);
  return result;
}

int run(const Args& args) {
  RunConfig config;
  config.workload = args.get("workload", "");
  config.seed = std::stoull(args.get("seed", "1"));
  config.seconds = std::stod(args.get("seconds", "10"));
  config.trace = args.get("trace", "0") == "1";
  config.tool_path = args.get("tool", "");
  config.out_dir = args.get("out", "");
  CWSP_REQUIRE_MSG(!config.out_dir.empty(), "--out is required");

  if (args.has("self-test")) return run_self_test(config);

  const Workload* workload = find_workload(config.workload);
  CWSP_REQUIRE_MSG(workload != nullptr,
                   "unknown workload '" << config.workload << "'");
  if (args.has("generate")) {
    for (const Workload& w : workloads()) {
      if (w.generate != nullptr && (&w == workload || config.trace)) {
        w.generate(config);
      }
    }
    return 0;
  }

  RunResult result;
  if (config.trace) {
    result = run_traced(config, *workload);
  } else {
    Tracer off(false);
    result = workload->run(config, off, false);
    keep_only(result, kEndToEnd, true);
  }
  for (const std::string& problem : result.problems) {
    std::cerr << "CHECK FAILED: " << problem << "\n";
  }
  std::cout << result.to_json() << std::endl;
  return 0;
}

}  // namespace

// ------------------------------------------------------ shared helpers

std::string inputs_dir(const RunConfig& config) {
  const std::string dir =
      config.out_dir + "/inputs-" + std::to_string(config.seed);
  mkdir(config.out_dir.c_str(), 0755);
  mkdir(dir.c_str(), 0755);
  return dir;
}

std::string generate_design(const std::string& name, std::uint64_t seed) {
  const cwsp::CellLibrary library = cwsp::make_default_library();
  constexpr int kAttempts = 8;
  for (int attempt = 0;; ++attempt) {
    cwsp::bench::GeneratorOptions options;
    options.seed = derive_seed(seed, static_cast<std::uint64_t>(attempt));
    try {
      const auto generated = cwsp::bench::generate_benchmark(
          cwsp::bench::find_benchmark(name), library, options);
      return cwsp::to_bench_string(
          cwsp::bench::clone_with_output_flip_flops(generated.netlist));
    } catch (const cwsp::Error&) {
      if (attempt + 1 == kAttempts) throw;
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CWSP_REQUIRE_MSG(in.good(), "cannot read " << path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  CWSP_REQUIRE_MSG(out.good(), "cannot write " << path);
}

void set_end_to_end(RunResult& result, double throughput_per_s,
                    double latency_ms, double setup_s) {
  result.set("throughput_per_s", throughput_per_s, "1/s");
  result.set("latency_ms", latency_ms, "ms");
  result.set("setup_s", setup_s, "s");
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}

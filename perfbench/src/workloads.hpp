#pragma once
// The benchmark's workloads. Each one has an input generator, run in its
// own process before the measured one (generation is never timed), and a
// run function. A run measures a fixed unit of work repeated until the
// run's time is spent, checks every output, and fills the end-to-end
// metrics; with the tracer enabled it fills the per-layer metrics instead.
//
// End-to-end metrics (same names on every workload; README has the map):
//   throughput_per_s  work items per second (strikes, requests, transients)
//   latency_ms        what one user request waits for
//   setup_s           process CPU time until the first timed unit
//   peak_rss_mb       peak resident set

#include <string>

#include "harness.hpp"

namespace perfbench {

/// Directory holding the generated inputs of one seed.
[[nodiscard]] std::string inputs_dir(const RunConfig& config);

void generate_campaign_inputs(const RunConfig& config);
void generate_service_inputs(const RunConfig& config);

/// `census` runs a short fixed traced pass: the per-layer figures of the
/// layers this workload owns, taken while another workload is traced.
RunResult run_campaign_c880(const RunConfig& config, Tracer& tracer,
                            bool census = false);
RunResult run_service_mix(const RunConfig& config, Tracer& tracer,
                          bool census = false);
RunResult run_spice_delay_line(const RunConfig& config, Tracer& tracer,
                               bool census = false);

/// .bench text of the named benchmark generated from `seed`, wrapped with
/// output flip-flops. The generator cannot calibrate every circuit for
/// every seed; a seed it rejects is replaced by the next derived one, so
/// a run seed always yields the same inputs.
[[nodiscard]] std::string generate_design(const std::string& name,
                                          std::uint64_t seed);

/// Reads a whole file; throws cwsp::Error when it cannot.
[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

/// Sets the four end-to-end metrics; `setup_s` is the process CPU time
/// (all threads, from process creation) when the first timed unit can
/// start.
void set_end_to_end(RunResult& result, double throughput_per_s,
                    double latency_ms, double setup_s);

}  // namespace perfbench

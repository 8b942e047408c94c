// campaign-c880: lane-kernel fault-injection campaigns on the generated
// ISCAS85 C880 wrapped with output flip-flops (README, "Workloads").
//
// Unit of work: one CWSP campaign of a fixed 2,048-strike plan (1,920
// functional + 128 out-of-envelope single-SET strikes, 10 cycles per
// run, auto lane width) at jobs 1, plus its JSON report.

#include <algorithm>
#include <thread>

#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "checks.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "cwsp/harden.hpp"
#include "cwsp/timing.hpp"
#include "netlist/bench_parser.hpp"
#include "sim/strike_lanes.hpp"
#include "sta/sta.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cwsp;

constexpr std::size_t kFunctional = 1920;
constexpr std::size_t kOutOfEnvelope = 128;
constexpr std::size_t kCycles = 10;
// Strikes of the scalar-kernel identity sub-plan (the scalar path is an
// order of magnitude slower, so it checks a prefix shard).
constexpr std::size_t kScalarShards = 8;

std::string c880_path(const RunConfig& config) {
  return inputs_dir(config) + "/C880.bench";
}

struct Counters {
  std::uint64_t batches, timed, analytic, filled, slots, hits, misses;
  static Counters read() {
    auto& r = metrics::Registry::global();
    return {r.counter("campaign.lane_batches").value(),
            r.counter("campaign.lane_timed_resolutions").value(),
            r.counter("campaign.lane_analytic_strikes").value(),
            r.counter("campaign.lane_slots_filled").value(),
            r.counter("campaign.lane_slots_total").value(),
            r.counter("kernel.golden_cache_hits").value(),
            r.counter("kernel.golden_cache_misses").value()};
  }
};

campaign::EngineOptions engine_options(std::uint64_t seed, std::size_t jobs,
                                       std::size_t lane_width = 0) {
  campaign::EngineOptions options;
  options.seed = seed;
  options.cycles_per_run = kCycles;
  options.jobs = jobs;
  options.lane_width = lane_width;
  return options;
}

}  // namespace

void generate_campaign_inputs(const RunConfig& config) {
  write_file(c880_path(config),
             generate_design("C880", derive_seed(config.seed, 0xc880)));
}

RunResult run_campaign_c880(const RunConfig& config, Tracer& tracer,
                            bool census) {
  RunResult result;
  const auto params = core::ProtectionParams::q100();
  const std::uint64_t campaign_seed = derive_seed(config.seed, 0xca);

  // ---- set-up: parse, STA, harden, plan, kernel context, engine.
  const CellLibrary library = make_default_library();
  const std::string text = read_file(c880_path(config));
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Netlist> netlist;
  {
    auto span = tracer.span("netlist.parse");
    netlist = std::make_unique<Netlist>(parse_bench_string(text, library, "C880"));
  }
  TimingResult sta;
  {
    auto span = tracer.span("sta.analyze");
    sta = run_sta(*netlist);
  }
  core::HardenedDesign hardened;
  {
    auto span = tracer.span("cwsp.harden");
    hardened = core::harden(*netlist, params);
  }
  const Picoseconds period =
      std::max(core::hardened_clock_period(sta.dmax, library),
               core::min_clock_period_for_delta(params));
  set::StrikePlan plan;
  {
    auto span = tracer.span("set.plan");
    set::StrikePlanOptions plan_options;
    plan_options.functional_strikes = kFunctional;
    plan_options.out_of_envelope_strikes = kOutOfEnvelope;
    plan_options.cycles_per_run = kCycles;
    plan_options.clock_period = period;
    plan_options.out_of_envelope_width = params.delta + Picoseconds(400.0);
    plan = set::build_strike_plan(*netlist, plan_options,
                                  derive_seed(config.seed, 0x91a));
  }
  std::shared_ptr<const sim::CompiledKernelContext> context;
  {
    auto span = tracer.span("sim.context_build");
    context = sim::CompiledKernelContext::build(*netlist);
  }
  const campaign::CampaignEngine engine(*netlist, params, period, context);
  const double setup_s = process_cpu_s();
  const double own_setup_s = seconds_since(setup_start);
  result.check(hardened.full_designed_protection,
               "C880 is not fully protected at the designed delta");

  // ---- timed units at jobs 1.
  std::vector<double> run_s, unit_s, report_s;
  std::string reference;
  const Counters before = Counters::read();
  const Clock::time_point loop_start = Clock::now();
  const double budget = census ? 0.0 : config.seconds;
  // Units run on one thread, so they are timed with the process CPU clock.
  const auto run_unit = [&](std::size_t jobs, std::uint64_t unit) {
    auto unit_span = tracer.span("campaign.unit", unit);
    const double t0 = process_cpu_s();
    campaign::CampaignResult run;
    const campaign::EngineOptions options = engine_options(campaign_seed, jobs);
    {
      auto span = tracer.span("campaign.run");
      run = engine.run(plan, options);
    }
    const double t1 = process_cpu_s();
    std::string report;
    {
      auto span = tracer.span("campaign.report");
      report =
          campaign::format_campaign_json(run, plan, *netlist, options, period);
    }
    const double t2 = process_cpu_s();
    ++result.attempted;
    if (reference.empty()) {
      reference = report;
      const std::string problem = checks::campaign_report(report, plan.size());
      result.check(problem.empty(), problem);
    } else {
      const std::string diff = checks::identical(
          reference, report, "jobs " + std::to_string(jobs) + " report");
      result.check(diff.empty(), diff);
    }
    return std::pair{t1 - t0, t2 - t1};
  };
  std::uint64_t unit = 0;
  {
    CpuRotation rotation;
    do {
      rotation.step();
      const auto [run, report] = run_unit(1, ++unit);
      run_s.push_back(run);
      report_s.push_back(report);
      unit_s.push_back(run + report);
    } while (seconds_since(loop_start) < budget);
  }
  const Counters after = Counters::read();
  const std::uint64_t j1_units = unit;

  // The parallel engine must produce the same report; traced runs also
  // time it on the wall clock (campaign.parallel_speedup).
  const std::size_t parallel_jobs = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  std::vector<double> parallel_s, serial_wall_s;
  for (int rep = 0; rep < (tracer.enabled() && !census ? 20 : 1); ++rep) {
    for (const std::size_t jobs : {parallel_jobs, std::size_t{1}}) {
      const Clock::time_point t0 = Clock::now();
      (void)run_unit(jobs, ++unit);
      (jobs == 1 ? serial_wall_s : parallel_s).push_back(seconds_since(t0));
    }
  }

  // ---- checks outside the timed loop: scalar compiled kernel identity on
  // a prefix shard of the plan.
  {
    const set::StrikePlan sub = set::shard_plan(plan, kScalarShards).front();
    campaign::EngineOptions lane = engine_options(campaign_seed, 1);
    campaign::EngineOptions scalar = lane;
    scalar.use_lane_kernel = false;
    const std::string lane_report = campaign::format_campaign_json(
        engine.run(sub, lane), sub, *netlist, lane, period);
    const std::string scalar_report = campaign::format_campaign_json(
        engine.run(sub, scalar), sub, *netlist, scalar, period);
    const std::string diff =
        checks::identical(scalar_report, lane_report, "lane vs scalar kernel");
    result.check(diff.empty(), diff);
  }

  const double strikes = static_cast<double>(plan.size());
  set_end_to_end(result, strikes / fast_time(run_s), fast_time(unit_s) * 1e3,
                 setup_s);
  if (!tracer.enabled()) return result;

  // ---- per-layer figures (traced runs only).
  const double units = static_cast<double>(j1_units);
  result.set("netlist.parse_s", tracer.total_s("netlist.parse"), "s");
  result.set("sta.analyze_s", tracer.total_s("sta.analyze"), "s");
  result.set("cwsp.harden_s", tracer.total_s("cwsp.harden"), "s");
  result.set("set.plan_s", tracer.total_s("set.plan"), "s");
  result.set("sim.context_build_s", tracer.total_s("sim.context_build"), "s");
  result.set("campaign.setup_s", own_setup_s, "s");
  result.set("campaign.run_s", fast_time(run_s), "s");
  result.set("campaign.report_s", fast_time(report_s), "s");
  result.set("campaign.lane_batches",
             static_cast<double>(after.batches - before.batches) / units, "count");
  result.set("campaign.lane_timed_resolutions",
             static_cast<double>(after.timed - before.timed) / units, "count");
  result.set("campaign.lane_analytic_strikes",
             static_cast<double>(after.analytic - before.analytic) / units,
             "count");
  result.set("campaign.lane_occupancy",
             static_cast<double>(after.filled - before.filled) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, after.slots - before.slots)),
             "ratio");
  result.set("kernel.golden_cache_hit_ratio",
             static_cast<double>(after.hits - before.hits) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, after.hits - before.hits + after.misses - before.misses)),
             "ratio");
  result.set("campaign.parallel_speedup",
             fast_time(serial_wall_s) / fast_time(parallel_s), "ratio");

  // Golden sweep: the WideLogicSim cycle sweep at the auto width, driven
  // directly with seeded random stimulus (one evaluate + clock per cycle).
  {
    sim::WideLogicSim sweep(context->view);
    Rng rng(derive_seed(config.seed, 0x5e));
    std::vector<double> per_cycle;
    for (int batch = 0; batch < (census ? 5 : 40); ++batch) {
      for (std::size_t pi = 0; pi < netlist->primary_inputs().size(); ++pi) {
        for (std::size_t w = 0; w < sweep.words_per_net(); ++w) {
          sweep.set_input_word(pi, w, rng.next_u64());
        }
      }
      auto span = tracer.span("sim.golden_sweep");
      const Clock::time_point t0 = Clock::now();
      for (int c = 0; c < 100; ++c) {
        sweep.evaluate();
        sweep.clock();
      }
      per_cycle.push_back(seconds_since(t0) / 100.0);
    }
    result.set("sim.golden_sweep_s", fast_time(per_cycle), "s");
  }
  // Timed strike-cycle resolution on the compiled kernel, per strike, on a
  // sample of the plan's functional strikes.
  {
    sim::CompiledEventSim kernel(*netlist, context);
    const std::vector<bool> ff_zero(netlist->num_flip_flops(), false);
    std::vector<double> per_strike;
    std::size_t sampled = 0;
    for (const set::PlannedStrike& planned : plan.strikes) {
      if (planned.klass != set::StrikeClass::kFunctional) continue;
      if (++sampled > (census ? 32u : 256u)) break;
      const auto inputs = campaign::CampaignEngine::strike_inputs(
          *netlist, kCycles, campaign_seed, planned.index);
      const sim::GoldenCycle& golden =
          kernel.golden_eval(inputs[planned.cycle], ff_zero);
      auto span = tracer.span("sim.timed_resolution");
      const Clock::time_point t0 = Clock::now();
      (void)kernel.resolve_strike(golden, period, planned.strike);
      per_strike.push_back(seconds_since(t0));
    }
    result.set("sim.timed_resolution_s", fast_time(per_strike), "s");
  }
  // Engine throughput at each explicit lane width, jobs 1.
  for (const std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
    std::vector<double> times;
    for (int rep = 0; rep < (census ? 2 : 8); ++rep) {
      auto span = tracer.span("campaign.run");
      const Clock::time_point t0 = Clock::now();
      (void)engine.run(plan, engine_options(campaign_seed, 1, width));
      times.push_back(seconds_since(t0));
    }
    result.set("sim.width" + std::to_string(width) + ".strikes_per_s",
               strikes / fast_time(times), "strikes/s");
  }
  return result;
}

}  // namespace perfbench

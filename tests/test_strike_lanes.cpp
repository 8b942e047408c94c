// Differential tests of the fault-parallel strike-lane kernel.
//
// Three layers of byte-identity, each against an independently-tested
// reference:
//
//   * WideLogicSim at every supported lane width (64/256/512 — portable
//     or vectorized, whatever this build dispatches) against the scalar
//     LogicSim lane by lane, and its flip sweeps against a scalar
//     topological evaluation with the site inverted, over fuzzed
//     netlists and the embedded ISCAS circuits;
//   * the campaign engine's lane path against the scalar ProtectionSim
//     worker pool: identical plans produce byte-identical JSON reports
//     at every lane width and jobs value, including edge batches
//     (smaller than the lane count, strikes on PI/FF-Q/PO nets,
//     zero-width pulses, strike cycles beyond the run);
//   * certify at every lane width against its 64-wide reports.

#include "sim/strike_lanes.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/certify.hpp"
#include "campaign/campaign.hpp"
#include "campaign/report.hpp"
#include "common/metrics.hpp"
#include "iscas_data.hpp"
#include "netlist/bench_parser.hpp"
#include "netlist_fuzz.hpp"
#include "sim/compiled_kernel.hpp"
#include "sim/logic_sim.hpp"

namespace cwsp {
namespace {

std::vector<bool> random_bits(std::size_t n, Rng& rng) {
  std::vector<bool> bits(n);
  for (std::size_t i = 0; i < n; ++i) bits[i] = rng.next_bool();
  return bits;
}

/// Scalar flip-sweep oracle: settles one (input, state) vector in
/// topological order with `site` inverted where it is driven (an invalid
/// site flips nothing). XOR against the unflipped values is the lane
/// diff WideLogicSim::flip_diff_word reports.
std::vector<bool> settle_with_flip(const Netlist& netlist,
                                   const std::vector<bool>& inputs,
                                   const std::vector<bool>& state,
                                   NetId site) {
  std::vector<bool> value(netlist.num_nets(), false);
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    const Net& net = netlist.net(NetId{n});
    switch (net.driver_kind) {
      case DriverKind::kPrimaryInput:
        value[n] = inputs[net.driver_index];
        break;
      case DriverKind::kFlipFlop:
        value[n] = state[net.driver_index];
        break;
      case DriverKind::kConstant:
        value[n] = net.constant_value;
        break;
      default:
        break;
    }
  }
  if (site.valid() && netlist.net(site).driver_kind != DriverKind::kGate) {
    value[site.index()] = !value[site.index()];
  }
  for (GateId g : netlist.topological_order()) {
    const Gate& gate = netlist.gate(g);
    unsigned bits = 0;
    for (std::size_t i = 0; i < gate.inputs.size(); ++i) {
      if (value[gate.inputs[i].index()]) bits |= 1u << i;
    }
    value[gate.output.index()] = netlist.cell_of(g).evaluate(bits);
    if (gate.output == site) value[site.index()] = !value[site.index()];
  }
  return value;
}

// ---------------------------------------------------------- WideLogicSim

class WideLogicSimDifferential : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  CellLibrary lib_ = make_default_library();
};

TEST_P(WideLogicSimDifferential, EveryWidthTracksScalarLogicSimPerLane) {
  const auto netlist = testing::make_random_netlist(lib_, GetParam());
  const auto context = sim::CompiledKernelContext::build(netlist);
  const std::size_t npi = netlist.primary_inputs().size();

  for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
    sim::WideLogicSim wide(context->view, width);
    ASSERT_EQ(wide.lanes(), width);
    Rng rng(GetParam() ^ width);

    // Every lane is an independent clocked simulation; three steps catch
    // FF-state evolution bugs, not just combinational ones.
    std::vector<sim::LogicSim> scalars;
    for (std::size_t l = 0; l < width; ++l) scalars.emplace_back(netlist);

    for (int step = 0; step < 3; ++step) {
      for (std::size_t l = 0; l < width; ++l) {
        const auto inputs = random_bits(npi, rng);
        for (std::size_t i = 0; i < npi; ++i) {
          wide.set_input_lane(i, l, inputs[i]);
        }
        scalars[l].set_inputs(inputs);
      }
      wide.evaluate();
      for (std::size_t l = 0; l < width; ++l) scalars[l].evaluate();

      for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
        for (std::size_t l = 0; l < width; ++l) {
          ASSERT_EQ(wide.value(NetId{n}, l), scalars[l].value(NetId{n}))
              << "seed " << GetParam() << " width " << width << " step "
              << step << " net " << n << " lane " << l;
        }
      }

      wide.clock();
      for (std::size_t l = 0; l < width; ++l) scalars[l].clock();
    }
  }
}

TEST_P(WideLogicSimDifferential, FlipSweepsMatchScalarFlipPerLane) {
  const auto netlist = testing::make_random_netlist(lib_, GetParam());
  const auto context = sim::CompiledKernelContext::build(netlist);
  const std::size_t npi = netlist.primary_inputs().size();
  const std::size_t nff = netlist.num_flip_flops();

  for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
    sim::WideLogicSim wide(context->view, width);
    Rng rng(GetParam() ^ (width << 8));

    std::vector<std::vector<bool>> lane_inputs(width);
    std::vector<std::vector<bool>> lane_state(width);
    std::vector<std::vector<bool>> lane_base(width);
    for (std::size_t l = 0; l < width; ++l) {
      lane_inputs[l] = random_bits(npi, rng);
      lane_state[l] = random_bits(nff, rng);
      for (std::size_t i = 0; i < npi; ++i) {
        wide.set_input_lane(i, l, lane_inputs[l][i]);
      }
      for (std::size_t f = 0; f < nff; ++f) {
        wide.set_ff_lane(f, l, lane_state[l][f]);
      }
      lane_base[l] = settle_with_flip(netlist, lane_inputs[l], lane_state[l],
                                      NetId{});
    }
    wide.evaluate();

    for (std::size_t site = 0; site < netlist.num_nets(); ++site) {
      wide.evaluate_with_flip(NetId{site});
      for (std::size_t l = 0; l < width; ++l) {
        const auto flipped = settle_with_flip(netlist, lane_inputs[l],
                                              lane_state[l], NetId{site});
        for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
          const bool diff =
              ((wide.flip_diff_word(NetId{n}, l / 64) >> (l % 64)) & 1u) != 0;
          ASSERT_EQ(diff, flipped[n] != lane_base[l][n])
              << "seed " << GetParam() << " width " << width << " site "
              << site << " net " << n << " lane " << l;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, WideLogicSimDifferential,
                         ::testing::Values(11u, 23u, 47u));

TEST(WideLogicSimIscas, EveryWidthTracksScalarOnEmbeddedCircuits) {
  const CellLibrary lib = make_default_library();
  for (const char* bench : {testdata::kC17, testdata::kS27}) {
    const auto netlist = parse_bench_string(bench, lib);
    const auto context = sim::CompiledKernelContext::build(netlist);
    const std::size_t npi = netlist.primary_inputs().size();

    for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
      sim::WideLogicSim wide(context->view, width);
      Rng rng(width * 31u + netlist.num_nets());
      std::vector<sim::LogicSim> scalars;
      for (std::size_t l = 0; l < width; ++l) scalars.emplace_back(netlist);

      for (int step = 0; step < 2; ++step) {
        for (std::size_t l = 0; l < width; ++l) {
          const auto inputs = random_bits(npi, rng);
          for (std::size_t i = 0; i < npi; ++i) {
            wide.set_input_lane(i, l, inputs[i]);
          }
          scalars[l].set_inputs(inputs);
        }
        wide.evaluate();
        for (std::size_t l = 0; l < width; ++l) scalars[l].evaluate();
        for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
          for (std::size_t l = 0; l < width; ++l) {
            ASSERT_EQ(wide.value(NetId{n}, l), scalars[l].value(NetId{n}))
                << netlist.name() << " width " << width << " net " << n
                << " lane " << l;
          }
        }
        wide.clock();
        for (std::size_t l = 0; l < width; ++l) scalars[l].clock();
      }
    }
  }
}

// -------------------------------------------------- campaign lane path

class LaneCampaignTest : public ::testing::Test {
 protected:
  CellLibrary lib_ = make_default_library();
  Netlist netlist_ = parse_bench_string(testdata::kS27, lib_);
  core::ProtectionParams params_ = core::ProtectionParams::q100();
  Picoseconds period_{2000.0};

  [[nodiscard]] campaign::CampaignEngine engine() const {
    return campaign::CampaignEngine(netlist_, params_, period_);
  }

  [[nodiscard]] std::string report_for(
      const set::StrikePlan& plan, const campaign::EngineOptions& opts) const {
    const auto result = engine().run(plan, opts);
    return campaign::format_campaign_json(result, plan, netlist_, opts,
                                          period_);
  }

  void expect_width_and_jobs_invariant(const set::StrikePlan& plan,
                                       campaign::EngineOptions base,
                                       const std::string& label) const {
    base.use_lane_kernel = false;
    base.jobs = 1;
    const std::string scalar = report_for(plan, base);
    for (std::size_t width : sim::WideLogicSim::supported_lane_widths()) {
      for (std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
        campaign::EngineOptions lane = base;
        lane.use_lane_kernel = true;
        lane.lane_width = width;
        lane.jobs = jobs;
        EXPECT_EQ(scalar, report_for(plan, lane))
            << label << ": lane width " << width << " jobs " << jobs;
      }
    }
  }
};

TEST_F(LaneCampaignTest, AdversarialPlanReportsAreByteIdentical) {
  set::StrikePlanOptions po;
  po.functional_strikes = 24;
  po.protection_path_strikes = 6;
  po.clock_edge_strikes = 6;
  po.out_of_envelope_strikes = 6;
  po.cycles_per_run = 8;
  po.clock_period = period_;
  po.out_of_envelope_width = params_.delta + Picoseconds(400.0);
  const auto plan = set::build_strike_plan(netlist_, po, 7);

  campaign::EngineOptions opts;
  opts.seed = 99;
  opts.cycles_per_run = 8;
  expect_width_and_jobs_invariant(plan, opts, "adversarial");
}

TEST_F(LaneCampaignTest, EveryNetEveryWidthClassMatchesScalar) {
  // Manual plan sweeping every net of s27 — primary inputs, FF Q nets,
  // gate outputs and PO-driving nets included — with a zero-width pulse,
  // an in-envelope pulse, and an out-of-envelope pulse per net, plus
  // strike cycles at and beyond the run length.
  const std::size_t cycles = 6;
  const double widths[] = {0.0, params_.delta.value() * 0.5,
                           params_.delta.value() + 400.0};
  set::StrikePlan plan;
  std::size_t index = 0;
  for (std::size_t n = 0; n < netlist_.num_nets(); ++n) {
    for (std::size_t v = 0; v < std::size(widths); ++v) {
      set::PlannedStrike p;
      p.index = index;
      p.klass = set::StrikeClass::kFunctional;
      // Lands some strikes on the final cycle and some past the run.
      p.cycle = index % (cycles + 2);
      p.strike.node = NetId{n};
      p.strike.start = Picoseconds(120.0 * static_cast<double>(v + 1));
      p.strike.width = Picoseconds(widths[v]);
      plan.strikes.push_back(p);
      ++index;
    }
  }

  campaign::EngineOptions opts;
  opts.seed = 2026;
  opts.cycles_per_run = cycles;
  expect_width_and_jobs_invariant(plan, opts, "every-net");
}

TEST_F(LaneCampaignTest, SpuriousEqWindowStrikesMatchScalar) {
  // Pulses on FF Q nets positioned exactly across the CLK_DEL sampling
  // moment exercise the spurious-EQ squash path analytically resolved by
  // the lane engine.
  const double t_sample = params_.clk_del_delay().value();
  set::StrikePlan plan;
  std::size_t index = 0;
  for (std::size_t f = 0; f < netlist_.num_flip_flops(); ++f) {
    const NetId q = netlist_.flip_flop(FlipFlopId{f}).q;
    for (double width : {params_.delta.value() * 0.5,
                         params_.delta.value() + 300.0}) {
      set::PlannedStrike p;
      p.index = index;
      p.klass = set::StrikeClass::kFunctional;
      p.cycle = index % 5;
      p.strike.node = q;
      p.strike.start = Picoseconds(t_sample - width * 0.5);
      p.strike.width = Picoseconds(width);
      plan.strikes.push_back(p);
      ++index;
    }
  }

  campaign::EngineOptions opts;
  opts.seed = 5;
  opts.cycles_per_run = 5;
  expect_width_and_jobs_invariant(plan, opts, "spurious-eq");
}

TEST_F(LaneCampaignTest, BatchSmallerThanLaneCountMatchesScalar) {
  set::StrikePlanOptions po;
  po.functional_strikes = 3;  // far below even the 64-lane width
  po.cycles_per_run = 6;
  po.clock_period = period_;
  const auto plan = set::build_strike_plan(netlist_, po, 13);

  campaign::EngineOptions opts;
  opts.seed = 17;
  opts.cycles_per_run = 6;
  expect_width_and_jobs_invariant(plan, opts, "small-batch");
}

TEST_F(LaneCampaignTest, LaneTelemetryCountsBatchesAndSlots) {
  set::StrikePlanOptions po;
  po.functional_strikes = 10;
  po.cycles_per_run = 4;
  po.clock_period = period_;
  const auto plan = set::build_strike_plan(netlist_, po, 3);

  auto& registry = metrics::Registry::global();
  const auto batches_before =
      registry.counter("campaign.lane_batches").value();
  const auto filled_before =
      registry.counter("campaign.lane_slots_filled").value();

  campaign::EngineOptions opts;
  opts.seed = 4;
  opts.cycles_per_run = 4;
  opts.lane_width = 64;
  const auto result = engine().run(plan, opts);
  EXPECT_EQ(result.report.runs, plan.size());

  EXPECT_EQ(registry.counter("campaign.lane_batches").value(),
            batches_before + 1);
  EXPECT_EQ(registry.counter("campaign.lane_slots_filled").value(),
            filled_before + static_cast<std::int64_t>(plan.size()));
}

// ------------------------------------------------ certify lane widths

TEST(CertifyLaneWidths, ReportsAreWidthInvariant) {
  const CellLibrary lib = make_default_library();
  const auto netlist = parse_bench_string(testdata::kS27, lib);
  const auto params = core::ProtectionParams::q100();
  const Picoseconds period{2000.0};
  const auto context = sim::CompiledKernelContext::build(netlist);

  analysis::CertifyOptions base;
  base.seed = 3;
  base.minimize_witnesses = false;
  base.lane_width = 64;
  const auto reference =
      analysis::certify_design(netlist, params, period, base, context);
  const std::string ref_text = analysis::format_certify_text(reference, netlist);
  const std::string ref_json = analysis::format_certify_json(reference, netlist);

  for (std::size_t width : {std::size_t{256}, std::size_t{512}, std::size_t{0}}) {
    analysis::CertifyOptions opts = base;
    opts.lane_width = width;
    const auto got =
        analysis::certify_design(netlist, params, period, opts, context);
    EXPECT_EQ(ref_text, analysis::format_certify_text(got, netlist))
        << "lane width " << width;
    EXPECT_EQ(ref_json, analysis::format_certify_json(got, netlist))
        << "lane width " << width;
  }
}

}  // namespace
}  // namespace cwsp

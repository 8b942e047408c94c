// spice-delay-line: MiniSpice calibration of the paper's POLY2 + inverter
// delay line, scaled down, then the transients behind it (README,
// "Workloads").
//
// Once per run, untimed by the end-to-end metrics: calibrate a 1-segment
// line to a seeded 40.0-40.2 ps target. Unit of work: one delay-line
// transient at the calibrated R (the step the calibration's bisection
// repeats), the Fig. 6 struck-inverter transients at Q = 100 and 150 fC,
// and one characterization of the cell library.

#include "cell/characterize.hpp"
#include "checks.hpp"
#include "spice/delay_line.hpp"
#include "spice/subckt.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cwsp;

constexpr int kSegments = 1;
// The line's delay is read on the transient's 1 ps grid with interpolated
// crossings, and 30 bisection rounds pin R to 400 kOhm / 2^30, so a
// calibration that converged lands within one grid step of its target.
constexpr double kCalibrationTolerancePs = 1.0;

// The bisection's cost follows the resistances it visits, so the seeded
// targets stay in a band narrow enough that every seed takes the same path
// through the early, expensive rounds.
double target_ps(std::uint64_t seed) {
  return 40.0 + static_cast<double>(derive_seed(seed, 0xde1a) % 200) / 1000.0;
}

}  // namespace

RunResult run_spice_delay_line(const RunConfig& config, Tracer& tracer,
                               bool census) {
  RunResult result;
  const CellLibrary library = make_default_library();
  const spice::SpiceTech tech;
  const double target = target_ps(config.seed);
  const double setup_s = process_cpu_s();

  // The calibration lasts ~0.4 s, longer than the host's calm stretches,
  // so its time is a per-layer figure, not a repeated unit.
  spice::SolverDiagnostics calibration_diag;
  spice::DelayLineDesign design;
  double calibrate_s = 0.0;
  {
    auto span = tracer.span("spice.calibrate");
    const double t0 = process_cpu_s();
    design = spice::calibrate_delay_line(kSegments, Picoseconds(target), tech,
                                         &calibration_diag);
    calibrate_s = process_cpu_s() - t0;
  }
  const std::string calibrated = checks::calibration(
      target, design.achieved.value(), kCalibrationTolerancePs);
  result.check(calibrated.empty(), calibrated);

  std::vector<double> transient_s, characterize_s, unit_s;
  spice::SolverDiagnostics transient_diag;
  const Clock::time_point loop_start = Clock::now();
  const double budget = census ? 0.0 : config.seconds;
  std::uint64_t unit = 0;
  {
    CpuRotation rotation;
    do {
      rotation.step();
      ++unit;
      // Single-threaded: timed with the process CPU clock.
      auto unit_span = tracer.span("spice.unit", unit);
      const double t0 = process_cpu_s();
      double delay = 0.0;
      {
        auto span = tracer.span("spice.transient");
        spice::SolverDiagnostics diag;
        delay = spice::measure_delay_line(kSegments, design.r_poly, tech, &diag)
                    .value();
        if (unit == 1) transient_diag = diag;
      }
      const double t1 = process_cpu_s();
      double width100 = 0.0, width150 = 0.0, peak = 0.0;
      {
        auto span = tracer.span("spice.glitch");
        width100 =
            spice::measure_strike_glitch_width(Femtocoulombs(100.0), tech)
                .value();
        width150 =
            spice::measure_strike_glitch_width(Femtocoulombs(150.0), tech)
                .value();
        peak = spice::strike_waveform(Femtocoulombs(150.0), tech).peak();
      }
      CharacterizationReport characterization;
      {
        auto span = tracer.span("cell.characterize");
        characterization = characterize_library(library);
      }
      const double t2 = process_cpu_s();
      transient_s.push_back(t1 - t0);
      characterize_s.push_back(t2 - t1);
      unit_s.push_back(t2 - t0);
      ++result.attempted;
      for (const std::string& problem :
           {checks::calibration(target, delay, kCalibrationTolerancePs),
            checks::fig6(width100, width150, peak),
            checks::all_spice_exact(characterization)}) {
        result.check(problem.empty(), problem);
      }
    } while (seconds_since(loop_start) < budget);
  }

  // Delay rises with R across a sweep around the calibrated point.
  std::vector<double> r_kohm, delay_ps;
  for (const double factor : {0.25, 0.5, 1.0, 2.0}) {
    const double r = design.r_poly.value() * factor;
    delay_ps.push_back(
        spice::measure_delay_line(kSegments, Kiloohms(r), tech).value());
    r_kohm.push_back(r);
  }
  const std::string sweep = checks::rises_with_r(r_kohm, delay_ps);
  result.check(sweep.empty(), sweep);

  set_end_to_end(result, 1.0 / fast_time(unit_s),
                 fast_time(transient_s) * 1e3, setup_s);
  if (!tracer.enabled()) return result;

  result.set("spice.calibrate_s", calibrate_s, "s");
  result.set("spice.characterize_unit_s", fast_time(characterize_s), "s");
  result.set("spice.steps", static_cast<double>(calibration_diag.steps),
             "count");
  result.set("spice.newton_iterations",
             static_cast<double>(calibration_diag.newton_iterations), "count");
  result.set("spice.rejected_steps",
             static_cast<double>(calibration_diag.rejected_steps), "count");
  result.set("spice.transient_s", fast_time(transient_s), "s");
  result.set("spice.steps_per_s",
             static_cast<double>(transient_diag.steps) / fast_time(transient_s),
             "1/s");
  const double units = static_cast<double>(unit);
  result.set("spice.glitch_s", tracer.total_s("spice.glitch") / units, "s");
  result.set("cell.characterize_s",
             tracer.total_s("cell.characterize") / units, "s");
  return result;
}

}  // namespace perfbench

#pragma once
// Output checks of the three workloads. Each returns an empty string when
// the output has the property, or a one-line description of the failure.
// They take the program's reports as text (or plain values), so the
// self-test can feed each one a deliberately wrong input.

#include <string>
#include <vector>

#include "cell/characterize.hpp"
#include "harness.hpp"

namespace perfbench::checks {

/// Byte identity of two reports; names the first differing offset.
[[nodiscard]] std::string identical(const std::string& expected,
                                    const std::string& actual,
                                    const std::string& what);

/// A `cwsp-campaign-report-v1` document under the CWSP scheme: status ok,
/// every planned strike done, none inconclusive or timed out, zero
/// unexpected escapes (the paper's coverage claim) and a non-zero
/// unprotected failure count (the injection is not vacuous).
[[nodiscard]] std::string campaign_report(const std::string& json,
                                          std::size_t planned);

/// A `cwsp-certify-report-v1` document: covered + escapes + unknown equals
/// the site count, zero escapes, certified at the designed δ.
[[nodiscard]] std::string certify_report(const std::string& json);

/// A `cwsp-compare-v1` document: the CWSP hardened period is the regular
/// period + 11.5 ps (clk→Q 69→76 ps, setup 40→38 ps, +6.5 ps load), and
/// every CWSP coverage cell has zero unexpected escapes and nothing
/// inconclusive.
[[nodiscard]] std::string compare_report(const std::string& json);

/// Delay-line calibration hit its target within `tolerance_ps`.
[[nodiscard]] std::string calibration(double target_ps, double achieved_ps,
                                      double tolerance_ps);

/// Delays measured at increasing resistances rise strictly.
[[nodiscard]] std::string rises_with_r(const std::vector<double>& r_kohm,
                                       const std::vector<double>& delay_ps);

/// Fig. 6: ~500 ps at 100 fC, ~600 ps at 150 fC, peak clamped near
/// VDD + 0.6 V (tolerances in the README).
[[nodiscard]] std::string fig6(double width_100fc_ps, double width_150fc_ps,
                               double peak_v);

/// Every characterized arc is a direct MiniSpice measurement.
[[nodiscard]] std::string all_spice_exact(
    const cwsp::CharacterizationReport& report);

/// Spans nest: every child lies inside its parent's interval.
[[nodiscard]] std::string spans_nest(const std::vector<Span>& spans);

}  // namespace perfbench::checks

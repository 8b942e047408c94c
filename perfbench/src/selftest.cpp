// Self-test of the benchmark's own output checks: every check must accept
// a genuine output and reject the same output with one deliberate fault.
// Genuine outputs come from the repository's pipeline4 example design.

#include <iostream>

#include "checks.hpp"
#include "common/error.hpp"
#include "service/handlers.hpp"
#include "service/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cwsp;

// Replaces the first occurrence of `from` after `anchor`; the fault must
// actually land, so a missing pattern is an error.
std::string mutate(std::string text, const std::string& anchor,
                   const std::string& from, const std::string& to) {
  const std::size_t start = text.find(anchor);
  CWSP_REQUIRE_MSG(start != std::string::npos, "no '" << anchor << "'");
  const std::size_t at = text.find(from, start);
  CWSP_REQUIRE_MSG(at != std::string::npos, "no '" << from << "'");
  return text.replace(at, from.size(), to);
}

struct Tally {
  int failures = 0;
  void expect(const std::string& name, const std::string& verdict,
              bool should_pass) {
    const bool passed = verdict.empty();
    const bool ok = passed == should_pass;
    failures += ok ? 0 : 1;
    std::cout << (ok ? "ok    " : "WRONG ") << name << ": "
              << (passed ? "accepted" : "rejected (" + verdict + ")") << "\n";
  }
};

}  // namespace

int run_self_test(const RunConfig& config) {
  const CellLibrary library = make_default_library();
  const std::string design = "examples/designs/pipeline4.bench";
  const auto session = service::load_design_session(design, library);
  Tally t;

  service::CampaignSpec campaign_spec;
  campaign_spec.runs = 16;
  campaign_spec.adversarial = true;
  const std::string report = service::run_campaign(*session, campaign_spec).output;
  const std::size_t planned = 16 + 3 * 4;
  t.expect("campaign report", checks::campaign_report(report, planned), true);
  const std::string flipped =
      mutate(report, "\"totals\"", "\"unexpected_escapes\": 0",
             "\"unexpected_escapes\": 1");
  t.expect("campaign report with one verdict flipped",
           checks::campaign_report(flipped, planned), false);
  t.expect("campaign identity with one verdict flipped",
           checks::identical(report, flipped, "campaign"), false);
  t.expect("campaign report missing a strike",
           checks::campaign_report(report, planned + 1), false);
  t.expect("campaign report with a vacuous injection",
           checks::campaign_report(
               mutate(report, "\"totals\"", "\"unprotected_failures\": ",
                      "\"unprotected_failures\": 0, \"was\": "),
               planned),
           false);

  // The service payload oracle: one-shot CLI stdout vs the shared handler.
  const std::string payload = service::run_sta_report(*session);
  if (!config.tool_path.empty()) {
    const ProcessOutput oneshot = run_process({config.tool_path, "sta", design});
    t.expect("sta payload vs cwsp_tool",
             checks::identical(oneshot.out, payload, "sta"), true);
  }
  std::string changed = payload;
  changed[changed.size() / 2] ^= 1;
  t.expect("service payload with one byte changed",
           checks::identical(payload, changed, "sta"), false);

  const std::string certify =
      service::run_certify(*session, service::CertifySpec{}).output;
  t.expect("certify report", checks::certify_report(certify), true);
  t.expect("certify counts not summing to sites",
           checks::certify_report(
               mutate(certify, "\"counts\"", "\"covered\":", "\"covered\":1")),
           false);
  t.expect("certify report with an escape",
           checks::certify_report(
               "{\"delta_ps\":500.000,\"envelope_ps\":500.000,\"counts\":"
               "{\"sites\":3,\"covered\":2,\"escapes\":1,\"unknown\":0}}"),
           false);

  service::CompareSpec compare_spec;
  compare_spec.runs = 8;
  compare_spec.schemes = {"cwsp"};
  const std::string compare = service::run_compare(*session, compare_spec).output;
  t.expect("compare report", checks::compare_report(compare), true);
  t.expect("compare hardened period not regular + 11.5 ps",
           checks::compare_report(
               mutate(compare, "\"table3\"", "\"period_hardened_ps\": ",
                      "\"period_hardened_ps\": 1")),
           false);
  t.expect("compare cwsp cell with an unexpected escape",
           checks::compare_report(
               mutate(compare, "\"table4\"", "\"unexpected_escapes\": 0",
                      "\"unexpected_escapes\": 2")),
           false);

  t.expect("calibration on target", checks::calibration(40.0, 40.4, 1.0), true);
  t.expect("calibration off target", checks::calibration(40.0, 41.5, 1.0),
           false);
  t.expect("delay rising with R",
           checks::rises_with_r({1, 2, 4}, {10.0, 12.0, 15.0}), true);
  t.expect("delay falling with R",
           checks::rises_with_r({1, 2, 4}, {10.0, 12.0, 11.0}), false);
  t.expect("Fig. 6 as measured", checks::fig6(500.0, 584.4, 1.577), true);
  t.expect("Fig. 6 glitch too narrow", checks::fig6(450.0, 584.4, 1.577),
           false);
  t.expect("Fig. 6 peak not clamped", checks::fig6(500.0, 584.4, 2.1), false);

  CharacterizationReport characterization;
  characterization.arcs.resize(2);
  characterization.arcs[0].cell = "INV";
  characterization.arcs[1].cell = "NAND2";
  t.expect("characterization all exact",
           checks::all_spice_exact(characterization), true);
  characterization.arcs[1].provenance = ArcProvenance::kCalibratedFallback;
  t.expect("characterization with a fallback arc",
           checks::all_spice_exact(characterization), false);

  std::vector<Span> spans(2);
  spans[0] = {"parent", 1, 0, 1, 1, 0.0, 10.0};
  spans[1] = {"child", 2, 1, 1, 1, 2.0, 5.0};
  t.expect("nested spans", checks::spans_nest(spans), true);
  spans[1].end_us = 12.0;
  t.expect("child span outliving its parent", checks::spans_nest(spans), false);

  std::cout << (t.failures == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return t.failures == 0 ? 0 : 1;
}

}  // namespace perfbench

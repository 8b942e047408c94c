#include "checks.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "service/json.hpp"

namespace perfbench::checks {
namespace {

namespace json = cwsp::service::json;

std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

const json::Value& field(const json::Value& object, const std::string& key) {
  const json::Value* v = object.find(key);
  CWSP_REQUIRE_MSG(v != nullptr, "report has no field '" << key << "'");
  return *v;
}

// Parse failures and missing fields are check failures too.
template <typename Body>
std::string guarded(const std::string& what, Body body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return what + ": " + e.what();
  }
}

}  // namespace

std::string identical(const std::string& expected, const std::string& actual,
                      const std::string& what) {
  if (expected == actual) return "";
  std::size_t at = 0;
  while (at < expected.size() && at < actual.size() &&
         expected[at] == actual[at]) {
    ++at;
  }
  return what + ": reports differ at byte " + std::to_string(at) + " of " +
         std::to_string(expected.size());
}

std::string campaign_report(const std::string& text, std::size_t planned) {
  return guarded("campaign report", [&]() -> std::string {
    const json::Value doc = json::parse(text);
    const json::Value& totals = field(doc, "totals");
    if (field(doc, "status").as_string() != "ok") {
      return "campaign status is " + field(doc, "status").as_string();
    }
    const double strikes = field(totals, "strikes").as_number();
    if (strikes != static_cast<double>(planned)) {
      return "campaign ran " + num(strikes) + " of " +
             std::to_string(planned) + " planned strikes";
    }
    for (const char* zero : {"unexpected_escapes", "inconclusive", "timeouts"}) {
      if (field(totals, zero).as_number() != 0.0) {
        return std::string("campaign has ") +
               num(field(totals, zero).as_number()) + " " + zero;
      }
    }
    if (field(totals, "unprotected_failures").as_number() <= 0.0) {
      return "no strike corrupts the unprotected design: injection is vacuous";
    }
    return "";
  });
}

std::string certify_report(const std::string& text) {
  return guarded("certify report", [&]() -> std::string {
    const json::Value doc = json::parse(text);
    const json::Value& counts = field(doc, "counts");
    const double sites = field(counts, "sites").as_number();
    const double covered = field(counts, "covered").as_number();
    const double escapes = field(counts, "escapes").as_number();
    const double unknown = field(counts, "unknown").as_number();
    if (sites <= 0.0) return "certify report has no sites";
    if (covered + escapes + unknown != sites) {
      return "certify counts " + num(covered) + " + " + num(escapes) + " + " +
             num(unknown) + " != " + num(sites) + " sites";
    }
    if (escapes != 0.0) return "certify found " + num(escapes) + " escapes";
    if (field(doc, "envelope_ps").as_number() !=
        field(doc, "delta_ps").as_number()) {
      return "certified envelope is not the designed delta";
    }
    return "";
  });
}

std::string compare_report(const std::string& text) {
  return guarded("compare report", [&]() -> std::string {
    const json::Value doc = json::parse(text);
    bool saw_cwsp = false;
    for (const json::Value& row : field(doc, "table3").as_array()) {
      if (field(row, "scheme").as_string() != "cwsp") continue;
      saw_cwsp = true;
      const double regular = field(row, "period_regular_ps").as_number();
      const double hardened = field(row, "period_hardened_ps").as_number();
      const double expected = regular + 11.5;
      if (std::abs(hardened - expected) > 0.0005) {
        return "cwsp hardened period " + num(hardened) + " ps, expected " +
               num(expected) + " (regular " + num(regular) + " + 11.5)";
      }
    }
    if (!saw_cwsp) return "compare table has no cwsp row";
    std::size_t cwsp_cells = 0;
    for (const json::Value& row : field(doc, "table4").as_array()) {
      if (field(row, "scheme").as_string() != "cwsp") continue;
      ++cwsp_cells;
      if (field(row, "unexpected_escapes").as_number() != 0.0 ||
          field(row, "inconclusive").as_number() != 0.0) {
        return "cwsp/" + field(row, "fault_model").as_string() +
               " has unexpected escapes or inconclusive strikes";
      }
    }
    if (cwsp_cells == 0) return "compare table has no cwsp coverage cell";
    return "";
  });
}

std::string calibration(double target_ps, double achieved_ps,
                        double tolerance_ps) {
  if (std::abs(achieved_ps - target_ps) <= tolerance_ps) return "";
  return "delay line calibrated to " + num(achieved_ps) + " ps, target " +
         num(target_ps) + " +/- " + num(tolerance_ps);
}

std::string rises_with_r(const std::vector<double>& r_kohm,
                         const std::vector<double>& delay_ps) {
  for (std::size_t i = 1; i < delay_ps.size(); ++i) {
    if (!(delay_ps[i] > delay_ps[i - 1])) {
      return "delay " + num(delay_ps[i]) + " ps at " + num(r_kohm[i]) +
             " kOhm does not exceed " + num(delay_ps[i - 1]) + " ps at " +
             num(r_kohm[i - 1]) + " kOhm";
    }
  }
  return "";
}

std::string fig6(double width_100fc_ps, double width_150fc_ps, double peak_v) {
  if (std::abs(width_100fc_ps - 500.0) > 25.0) {
    return "Fig. 6 glitch at 100 fC is " + num(width_100fc_ps) + " ps";
  }
  if (std::abs(width_150fc_ps - 600.0) > 30.0) {
    return "Fig. 6 glitch at 150 fC is " + num(width_150fc_ps) + " ps";
  }
  if (peak_v < 1.45 || peak_v > 1.75) {
    return "Fig. 6 peak " + num(peak_v) + " V is not clamped near 1.6 V";
  }
  return "";
}

std::string all_spice_exact(const cwsp::CharacterizationReport& report) {
  if (report.arcs.empty()) return "characterization produced no arcs";
  for (const cwsp::CharacterizedArc& arc : report.arcs) {
    if (arc.provenance != cwsp::ArcProvenance::kSpiceExact) {
      return "arc " + arc.cell + " is " + cwsp::to_string(arc.provenance);
    }
  }
  return "";
}

std::string spans_nest(const std::vector<Span>& spans) {
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    if (s.end_us < s.start_us) return "span " + s.name + " ends before it starts";
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) return "span " + s.name + " has no recorded parent";
    const Span& p = *it->second;
    if (s.start_us < p.start_us || s.end_us > p.end_us) {
      return "span " + s.name + " escapes its parent " + p.name;
    }
  }
  return "";
}

}  // namespace perfbench::checks

// service-mix: an in-process analysis server (2 workers) under a closed
// loop of 2 client connections sending a fixed mix of sta, lint, certify,
// campaign and compare requests over 12 designs (README, "Workloads").
//
// Unit of work: one round of the 30-request mix below, split between the
// two connections by slot parity; the round ends when both have their
// last response.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <limits>
#include <map>
#include <thread>

#include "analysis/certify.hpp"
#include "analysis/glitch_window.hpp"
#include "checks.hpp"
#include "common/metrics.hpp"
#include "cwsp/timing.hpp"
#include "lint/lint.hpp"
#include "scheme/compare.hpp"
#include "service/client.hpp"
#include "service/handlers.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "set/strike_plan.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cwsp;
namespace json = service::json;

// Generated designs (1.4k-9.8k gates once wrapped with output flip-flops)
// followed by the repository's sequential example designs; 12 designs
// against the server's default 8-entry session cache.
const char* const kGenerated[] = {"C880",  "alu2",       "C1908", "dalu",
                                  "C432",  "alu4",       "b11_LoptLC",
                                  "C499",  "k2",         "C3540"};
const char* const kExamples[] = {"examples/designs/pipeline4.bench",
                                 "examples/designs/toggle2.bench"};

enum class Op { kSta, kLint, kCertify, kCampaign, kCompare };
const char* op_name(Op op) {
  switch (op) {
    case Op::kSta: return "sta";
    case Op::kLint: return "lint";
    case Op::kCertify: return "certify";
    case Op::kCampaign: return "campaign";
    case Op::kCompare: return "compare";
  }
  return "";
}

// The mix. The composition is fixed so that a round costs the same
// whatever the seed; the seed picks the circuits and every request's own
// seed. Design indices: 0-9 kGenerated, 10 pipeline4, 11 toggle2.
//
// Popularity is skewed against the 8-entry session cache: certify,
// campaign and compare (the ops that use sessions) touch all 12 designs,
// C880 four times a round, pipeline4 three, alu2 and toggle2 twice, the
// other eight once. Every sta request names a freshly re-stamped copy of
// its design (a new header comment each round, as netlist writers stamp
// them), so it misses both caches and runs parse + STA + session build;
// these copies evict sessions too. Lint does not use sessions. The last two
// slots repeat slots 0 and 2 verbatim: the only requests the result cache
// can answer.
struct Slot {
  Op op;
  int design;
  int repeat_of = -1;
};
const Slot kMix[] = {
    {Op::kCampaign, 0},  {Op::kSta, 0},       {Op::kCertify, 10},
    {Op::kCampaign, 2},  {Op::kLint, 0},      {Op::kCampaign, 10},
    {Op::kCertify, 0},   {Op::kCampaign, 3},  {Op::kCompare, 0},
    {Op::kCampaign, 1},  {Op::kSta, 10},      {Op::kCampaign, 4},
    {Op::kCertify, 1},   {Op::kLint, 1},      {Op::kCampaign, 11},
    {Op::kCampaign, 5},  {Op::kCompare, 10},  {Op::kSta, 1},
    {Op::kCampaign, 0},  {Op::kCampaign, 6},  {Op::kCertify, 11},
    {Op::kLint, 4},      {Op::kCampaign, 7},  {Op::kSta, 2},
    {Op::kCampaign, 8},  {Op::kLint, 6},      {Op::kCampaign, 9},
    {Op::kLint, 9},      {Op::kCampaign, 0, 0}, {Op::kCertify, 10, 2},
};
constexpr std::size_t kSlots = sizeof(kMix) / sizeof(kMix[0]);
constexpr std::size_t kCampaignRuns = 32;
constexpr std::size_t kCompareRuns = 8;
constexpr std::size_t kClients = 2;

std::vector<std::string> design_paths(const RunConfig& config) {
  std::vector<std::string> paths;
  for (const char* name : kGenerated) {
    paths.push_back(inputs_dir(config) + "/" + name + ".bench");
  }
  for (const char* path : kExamples) paths.push_back(path);
  return paths;
}

// Where the re-stamped copy of design `path` goes: same file name (so the
// same design name), its own directory.
std::string restamped_path(const RunConfig& config, const std::string& path) {
  const std::string dir = inputs_dir(config) + "/restamped";
  mkdir(dir.c_str(), 0755);
  return dir + path.substr(path.find_last_of('/'));
}

// One request: the NDJSON line and the equivalent one-shot CLI arguments.
struct Request {
  Op op;
  std::string path;
  std::string line;
  std::vector<std::string> cli;
};

Request make_request(const Slot& slot, const std::string& path,
                     std::uint64_t seed) {
  Request r{slot.op, path, "", {}};
  const std::string s = std::to_string(seed);
  std::string fields;
  switch (slot.op) {
    case Op::kSta:
      r.cli = {"sta", path};
      break;
    case Op::kLint: {
      const std::string delta = std::to_string(400 + seed % 151);
      fields = ",\"hardened\":true,\"delta\":" + delta;
      r.cli = {"lint", path, "--hardened", "--delta", delta, "--json"};
      break;
    }
    case Op::kCertify:
      fields = ",\"seed\":" + s;
      r.cli = {"certify", path, "--seed", s, "--json"};
      break;
    case Op::kCampaign: {
      const std::string runs = std::to_string(kCampaignRuns);
      fields = ",\"runs\":" + runs + ",\"adversarial\":true,\"seed\":" + s;
      r.cli = {"campaign", path, "--runs", runs, "--adversarial", "--seed", s,
               "--json"};
      break;
    }
    case Op::kCompare: {
      const std::string runs = std::to_string(kCompareRuns);
      fields = ",\"runs\":" + runs + ",\"seed\":" + s;
      r.cli = {"compare", path, "--runs", runs, "--seed", s, "--json"};
      break;
    }
  }
  r.line = std::string("{\"op\":\"") + op_name(slot.op) +
           "\",\"design_path\":\"" + json::escape(path) + "\"" + fields;
  return r;
}

// Request seeds are fresh per (round, slot); repeats reuse their source.
// Writes this round's re-stamped copies for the sta slots.
std::vector<Request> round_requests(const RunConfig& config,
                                    const std::vector<std::string>& paths,
                                    const std::vector<std::string>& texts,
                                    std::uint64_t round) {
  std::vector<Request> requests;
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::size_t source =
        kMix[i].repeat_of >= 0 ? static_cast<std::size_t>(kMix[i].repeat_of) : i;
    const std::uint64_t seed =
        1 + derive_seed(config.seed, round * 1000 + source) % 1000000;
    std::string path = paths[kMix[i].design];
    if (kMix[i].op == Op::kSta) {
      path = restamped_path(config, path);
      write_file(path, "# written by round " + std::to_string(round) + "\n" +
                           texts[kMix[i].design]);
    }
    requests.push_back(make_request(kMix[i], path, seed));
  }
  return requests;
}

struct Reply {
  double latency_s = 0.0;
  bool ok = false;
  std::string payload;
  std::string error;
};

// One request, one response, timed on the wall clock.
Reply round_trip(service::Client& client, const Request& request,
                 const std::string& id) {
  Reply reply;
  const Clock::time_point t0 = Clock::now();
  std::string line;
  try {
    client.send_line("{\"id\":\"" + id + "\"," + request.line.substr(1) + "}");
    if (!client.read_line(line)) {
      reply.error = "connection closed";
      return reply;
    }
  } catch (const std::exception& e) {
    reply.error = e.what();
    return reply;
  }
  reply.latency_s = seconds_since(t0);
  try {
    const json::Value response = json::parse(line);
    reply.ok = response.boolean("ok", false) && response.text("id", "") == id;
    reply.payload = response.text("payload", "");
    if (!reply.ok) reply.error = response.text("error", "bad response");
  } catch (const std::exception& e) {
    reply.error = e.what();
  }
  return reply;
}

// Sends `requests[i]` for every i of this client's parity, one at a time.
void client_loop(service::Client& client, const std::vector<Request>& requests,
                 std::size_t parity, std::uint64_t round, Tracer& tracer,
                 std::vector<Reply>& replies) {
  for (std::size_t i = parity; i < requests.size(); i += kClients) {
    auto span = tracer.span("service.request", round);
    replies[i] = round_trip(
        client, requests[i],
        "r" + std::to_string(round) + "s" + std::to_string(i));
  }
}

// The service::run_* call behind `request`, on `session`, in process.
void run_direct(const Request& request, const service::DesignSession& session,
                const CellLibrary& library) {
  const json::Value fields = json::parse(request.line + "}");
  const auto seed = static_cast<std::uint64_t>(fields.number("seed", 1));
  switch (request.op) {
    case Op::kSta: (void)service::run_sta_report(session); break;
    case Op::kLint: {
      service::LintSpec spec;
      spec.path = request.path;
      spec.hardened = true;
      spec.delta_ps = fields.number("delta", 0.0);
      (void)service::run_lint(spec, library);
      break;
    }
    case Op::kCertify: {
      service::CertifySpec spec;
      spec.seed = seed;
      (void)service::run_certify(session, spec);
      break;
    }
    case Op::kCampaign: {
      service::CampaignSpec spec;
      spec.runs = kCampaignRuns;
      spec.adversarial = true;
      spec.seed = seed;
      (void)service::run_campaign(session, spec);
      break;
    }
    case Op::kCompare: {
      service::CompareSpec spec;
      spec.runs = kCompareRuns;
      spec.seed = seed;
      (void)service::run_compare(session, spec);
      break;
    }
  }
}

std::string check_reply(const Request& request, const Reply& reply) {
  if (!reply.ok) return std::string(op_name(request.op)) + ": " + reply.error;
  switch (request.op) {
    case Op::kCertify: return checks::certify_report(reply.payload);
    case Op::kCompare: return checks::compare_report(reply.payload);
    case Op::kCampaign: {
      const std::size_t extra = std::max<std::size_t>(1, kCampaignRuns / 4);
      return checks::campaign_report(reply.payload, kCampaignRuns + 3 * extra);
    }
    default: return "";
  }
}

// Round-trip overhead on warm sessions: for lint, certify, campaign and
// compare on C880 and pipeline4, the fastest of three round trips with
// fresh seeds minus the fastest of the same three service::run_* calls in
// process. A first, untimed request warms the server's session. (An sta
// request on a warm design is answered by the result cache.)
std::vector<double> probe_overhead(const RunConfig& config,
                                   const std::vector<std::string>& paths,
                                   const std::vector<std::string>& texts,
                                   const CellLibrary& library,
                                   service::Client& client, Tracer& tracer) {
  constexpr std::uint64_t kProbes = 3;
  std::vector<double> overhead_ms;
  for (const int design : {0, 10}) {
    const auto session = service::DesignSession::build(
        service::design_name_from_path(paths[design]), texts[design], library);
    for (const Op op : {Op::kLint, Op::kCertify, Op::kCampaign, Op::kCompare}) {
      double rtt = std::numeric_limits<double>::infinity();
      double direct = rtt;
      for (std::uint64_t k = 0; k <= kProbes; ++k) {
        const std::uint64_t salt =
            0xbe000000 + static_cast<std::uint64_t>(design) * 100 +
            static_cast<std::uint64_t>(op) * 10 + k;
        const Request request = make_request(
            {op, design}, paths[design],
            1 + derive_seed(config.seed, salt) % 1000000);
        const Reply reply =
            round_trip(client, request, "probe" + std::to_string(salt));
        const std::string problem = check_reply(request, reply);
        CWSP_REQUIRE_MSG(problem.empty(), "overhead probe: " << problem);
        if (k == 0) continue;
        rtt = std::min(rtt, reply.latency_s);
        auto span = tracer.span("service.direct");
        const Clock::time_point t0 = Clock::now();
        run_direct(request, *session, library);
        direct = std::min(direct, seconds_since(t0));
      }
      overhead_ms.push_back((rtt - direct) * 1e3);
    }
  }
  return overhead_ms;
}

struct Registry {
  std::uint64_t session_hits, session_misses, result_hits, result_misses,
      coalesced;
  static Registry read() {
    auto& r = metrics::Registry::global();
    return {r.counter("service.sessions.hits").value(),
            r.counter("service.sessions.misses").value(),
            r.counter("service.result_cache.hits").value(),
            r.counter("service.result_cache.misses").value(),
            r.counter("service.batch.coalesced").value()};
  }
};

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void generate_service_inputs(const RunConfig& config) {
  for (std::size_t i = 0; i < std::size(kGenerated); ++i) {
    write_file(design_paths(config)[i],
               generate_design(kGenerated[i], derive_seed(config.seed, 0x5e7 + i)));
  }
}

RunResult run_service_mix(const RunConfig& config, Tracer& tracer,
                          bool census) {
  RunResult result;
  const std::vector<std::string> paths = design_paths(config);
  std::vector<std::string> texts;
  for (const std::string& path : paths) texts.push_back(read_file(path));

  // ---- set-up: server start, two connections, a cold session per design.
  const CellLibrary library = make_default_library();
  service::ServerOptions options;
  options.socket_path = config.out_dir + "/svc-" + std::to_string(getpid()) +
                        ".sock";
  options.workers = 2;
  service::Server server(options, library);
  std::string server_error;
  std::thread server_thread([&] {
    try {
      server.run();
    } catch (const std::exception& e) {
      server_error = e.what();
    }
  });
  service::DialOptions dial;
  dial.attempts = 200;
  dial.backoff_base_ms = 0.5;
  dial.backoff_cap_ms = 2.0;
  std::vector<std::unique_ptr<service::Client>> clients;
  Registry before{}, after{};
  std::vector<std::vector<double>> latency(kSlots);  // per slot, per round
  std::vector<double> all_latencies, round_s;
  std::vector<Reply> first_round(kSlots);
  std::vector<Request> first_requests;
  std::uint64_t rounds = 0;
  double setup_s = 0.0;
  std::vector<double> overhead_ms;
  try {
    {
      auto span = tracer.span("service.setup");
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.push_back(
            std::make_unique<service::Client>(options.socket_path, dial));
      }
      std::vector<Request> warm;
      for (std::size_t d = 0; d < paths.size(); ++d) {
        warm.push_back(make_request({Op::kSta, static_cast<int>(d)}, paths[d], 1));
      }
      std::vector<Reply> warm_replies(warm.size());
      for (std::size_t c = 0; c < kClients; ++c) {
        client_loop(*clients[c], warm, c, 0, tracer, warm_replies);
      }
      for (const Reply& reply : warm_replies) {
        result.check(reply.ok, "warm-up sta: " + reply.error);
      }
    }
    setup_s = process_cpu_s();

    // ---- timed rounds.
    before = Registry::read();
    const Clock::time_point loop_start = Clock::now();
    const double budget = census ? 0.0 : config.seconds;
    do {
      ++rounds;
      const std::vector<Request> requests =
          round_requests(config, paths, texts, rounds);
      std::vector<Reply> replies(kSlots);
      auto round_span = tracer.span("service.round", rounds);
      const Clock::time_point t0 = Clock::now();
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back(client_loop, std::ref(*clients[c]),
                             std::cref(requests), c, rounds, std::ref(tracer),
                             std::ref(replies));
      }
      for (std::thread& t : threads) t.join();
      round_s.push_back(seconds_since(t0));
      result.attempted += kSlots;
      for (std::size_t i = 0; i < kSlots; ++i) {
        if (!replies[i].ok) {
          ++result.failed;
          result.check(false, check_reply(requests[i], replies[i]));
          continue;
        }
        latency[i].push_back(replies[i].latency_s);
        all_latencies.push_back(replies[i].latency_s);
        const std::string problem = check_reply(requests[i], replies[i]);
        result.check(problem.empty(), problem);
      }
      if (rounds == 1) {
        first_round = std::move(replies);
        first_requests = requests;
      }
    } while (seconds_since(loop_start) < budget && result.failed == 0);
    after = Registry::read();
    if (tracer.enabled()) {
      overhead_ms =
          probe_overhead(config, paths, texts, library, *clients[0], tracer);
    }
  } catch (const std::exception& e) {
    result.check(false, std::string("service-mix: ") + e.what());
  }
  clients.clear();
  server.request_shutdown();
  server_thread.join();
  result.check(server_error.empty(), "server: " + server_error);
  if (rounds == 0 || all_latencies.empty()) {
    result.check(false, "service-mix completed no round");
    return result;
  }

  // ---- payload identity against one-shot CLI runs of the first round.
  for (std::size_t i = 0; i < first_requests.size() && !config.tool_path.empty();
       ++i) {
    if (!first_round[i].ok) continue;
    std::vector<std::string> argv = {config.tool_path};
    argv.insert(argv.end(), first_requests[i].cli.begin(),
                first_requests[i].cli.end());
    const ProcessOutput oneshot = run_process(argv);
    const std::string diff = checks::identical(
        oneshot.out, first_round[i].payload,
        std::string("service ") + op_name(first_requests[i].op) + " on " +
            first_requests[i].path + " vs cwsp_tool");
    result.check(diff.empty(), diff);
  }
  result.check(!config.tool_path.empty(), "no --tool for the payload oracle");

  // Per-slot fast latency, then medians over slots.
  std::vector<double> slot_fast;
  std::map<Op, std::vector<double>> op_fast;
  for (std::size_t i = 0; i < kSlots; ++i) {
    if (latency[i].empty()) continue;
    slot_fast.push_back(fast_time(latency[i]));
    op_fast[kMix[i].op].push_back(slot_fast.back());
  }
  // Closed-loop capacity: each connection sends its requests one after the
  // other, so the connections together answer kClients requests per mean
  // round trip. Taken at each slot's fastest round trip; the fastest whole
  // round (service.round_requests_per_s) lasts ~0.3 s and follows the
  // host's bursts.
  double fast_sum_s = 0.0;
  for (const double t : slot_fast) fast_sum_s += t;
  set_end_to_end(result,
                 static_cast<double>(kClients * slot_fast.size()) / fast_sum_s,
                 quantile(slot_fast, 0.5) * 1e3, setup_s);
  if (!tracer.enabled()) return result;

  // ---- per-layer figures (traced runs only).
  result.set("service.round_requests_per_s",
             static_cast<double>(kSlots) / fast_time(round_s), "1/s");
  for (const auto& [op, values] : op_fast) {
    result.set(std::string("service.") + op_name(op) + "_p50_ms",
               quantile(values, 0.5) * 1e3, "ms");
  }
  result.set("service.p99_ms", quantile(all_latencies, 0.99) * 1e3, "ms");
  result.set("service.session_hit_ratio",
             ratio(after.session_hits - before.session_hits,
                   after.session_hits - before.session_hits +
                       after.session_misses - before.session_misses),
             "ratio");
  result.set("service.result_cache_hit_ratio",
             ratio(after.result_hits - before.result_hits,
                   after.result_hits - before.result_hits +
                       after.result_misses - before.result_misses),
             "ratio");
  result.set("service.batch_coalesced",
             static_cast<double>(after.coalesced - before.coalesced) /
                 static_cast<double>(rounds),
             "count");

  // Direct calls into the layers behind the ops, on warm sessions.
  std::vector<std::shared_ptr<const service::DesignSession>> sessions;
  std::vector<double> build_s;
  for (std::size_t d = 0; d < paths.size(); ++d) {
    auto span = tracer.span("service.session_build");
    const Clock::time_point t0 = Clock::now();
    sessions.push_back(service::DesignSession::build(
        service::design_name_from_path(paths[d]), texts[d], library));
    build_s.push_back(seconds_since(t0));
  }
  result.set("service.session_build_s", quantile(build_s, 0.5), "s");

  result.set("service.overhead_ms", quantile(overhead_ms, 0.5), "ms");

  // The analysis, lint and scheme layers on the most popular design.
  const service::DesignSession& top = *sessions[0];
  const auto params = core::ProtectionParams::q100();
  {
    const std::vector<NetId> sites = set::strike_sites(*top.netlist);
    auto span = tracer.span("analysis.window");
    const Clock::time_point t0 = Clock::now();
    for (const NetId site : sites) {
      (void)analysis::propagate_windows(*top.kernel_context->view,
                                        *top.kernel_context->gate_delay_ps,
                                        site);
    }
    result.set("analysis.window_s", seconds_since(t0), "s");
  }
  {
    auto span = tracer.span("analysis.certify");
    const Clock::time_point t0 = Clock::now();
    (void)analysis::certify_design(*top.netlist, params, top.period_q100, {},
                                   top.kernel_context);
    result.set("analysis.certify_s", seconds_since(t0), "s");
  }
  {
    const std::string text = read_file(paths[0]);
    lint::LintOptions lint_options;
    lint_options.params = params;
    auto span = tracer.span("lint.run");
    const Clock::time_point t0 = Clock::now();
    (void)lint::lint_bench_string(text, library, top.name, lint_options);
    result.set("lint.run_s", seconds_since(t0), "s");
  }
  {
    scheme::CompareOptions compare_options;
    compare_options.runs = kCompareRuns;
    auto span = tracer.span("scheme.compare");
    const Clock::time_point t0 = Clock::now();
    (void)scheme::run_compare(*top.netlist, params, top.period_q100,
                              top.kernel_context, compare_options);
    result.set("scheme.compare_s", seconds_since(t0), "s");
  }
  return result;
}

}  // namespace perfbench

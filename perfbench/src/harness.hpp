#pragma once
// Measurement plumbing shared by the workloads: the fast-quantile timing
// estimator, the in-memory span tracer (Chrome trace-event export), the
// run result that becomes the benchmark's last stdout line, and small
// process helpers (peak RSS, one-shot CLI runs).
//
// Spans are recorded only from the benchmark's own code, around calls
// into the program's public functions; nothing under src/ is touched.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time consumed by every thread of this process since it was
/// created, s. With paravirtual steal accounting the kernel leaves out
/// time the hypervisor gave to other guests, which wall time includes.
[[nodiscard]] double process_cpu_s();

/// Linear-interpolated quantile (q in [0,1]) of `samples`; NaN when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// The timing estimator of every repeated unit (README, "Estimator"): the
/// fastest repetition. The host's memory system is shared with other
/// guests; their load slows this process's memory-bound work by up to
/// 1.9x in bursts of a fraction of a second and in phases of minutes, so
/// a median over one run follows the host, while the fastest repetition
/// follows the program.
[[nodiscard]] inline double fast_time(const std::vector<double>& samples) {
  return quantile(samples, 0.0);
}

/// Moves the calling thread over the CPUs it may run on, one after the
/// other, for the repetitions of a single-threaded unit. On this host the
/// slowdown is per vCPU (one vCPU can run a unit 1.7x slower than another
/// for tens of seconds, as other guests share its core), so a thread that
/// stays on one vCPU for a whole run reads that vCPU's state; visiting
/// every vCPU lets the fastest repetition find a calm one. `step()` moves
/// on once the thread has spent 0.25 s on its CPU (a few repetitions of
/// the 7-40 ms units, so most run with warm caches); the destructor
/// restores the thread's original CPU set. Threads started meanwhile
/// inherit the one-CPU set, so parallel work runs outside its scope.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Call before each repetition.
  void step();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  Clock::time_point since_;
  bool moved_ = false;
};

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Runs `argv` (no shell), returns its stdout and exit code. Waits for the
/// child; throws cwsp::Error when it cannot be started.
struct ProcessOutput {
  std::string out;
  int exit_code = -1;
};
[[nodiscard]] ProcessOutput run_process(const std::vector<std::string>& argv);

/// 64-bit mix of the run seed with a salt (input derivation).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t salt);

// ---------------------------------------------------------------- tracing

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t unit = 0;    // shared by every span of one unit of work
  std::uint32_t thread = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span recorder. Disabled tracers record nothing, so the same
/// workload code runs traced and untraced. Thread-safe; parents follow a
/// per-thread stack of open spans.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span; closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t unit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };
  [[nodiscard]] Scope span(const char* name, std::uint64_t unit = 0) {
    return Scope(*this, name, unit);
  }

  [[nodiscard]] std::vector<Span> spans() const;
  /// Summed duration of spans named `name`, seconds.
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Per-name self time (duration minus the part covered by children), s.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Chrome trace-event JSON ("X" complete events), opened by Perfetto.
  [[nodiscard]] std::string chrome_json() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint32_t> threads_;  // hashed id -> index
  std::uint64_t next_id_ = 1;
};

// ----------------------------------------------------------------- result

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> problems;
  /// name -> (value, unit), printed in name order.
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(problems.begin(), problems.end(), what) ==
                   problems.end()) {
      problems.push_back(what);
    }
  }
  [[nodiscard]] bool correct() const { return problems.empty(); }
  /// The benchmark's final stdout line.
  [[nodiscard]] std::string to_json() const;
};

/// What every workload receives from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// One-shot CLI used as the service payload oracle.
  std::string tool_path;
  /// Directory for generated inputs, sockets and traces.
  std::string out_dir;
};

}  // namespace perfbench

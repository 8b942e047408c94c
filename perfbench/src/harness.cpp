#include "harness.hpp"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <sstream>
#include <thread>

#include "common/error.hpp"

extern char** environ;

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

std::vector<int> allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_thread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

constexpr double kDwellS = 0.25;

}  // namespace

CpuRotation::CpuRotation() : cpus_(allowed_cpus()) {}

CpuRotation::~CpuRotation() {
  if (!moved_) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) CPU_SET(cpu, &allowed);
  (void)sched_setaffinity(0, sizeof(allowed), &allowed);
}

void CpuRotation::step() {
  if (cpus_.size() < 2) return;
  if (moved_ && seconds_since(since_) < kDwellS) return;
  // A failed move leaves the thread where it is; the unit still runs.
  if (pin_thread(cpus_[next_])) moved_ = true;
  next_ = (next_ + 1) % cpus_.size();
  since_ = Clock::now();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ProcessOutput run_process(const std::vector<std::string>& argv) {
  int fds[2];
  CWSP_REQUIRE_MSG(pipe(fds) == 0, "pipe() failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    CWSP_REQUIRE_MSG(false, "cannot start " << argv[0]);
  }
  ProcessOutput result;
  char buffer[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n > 0) {
      result.out.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + salt;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------- tracing

namespace {
// Open spans of the calling thread, innermost last (span ids).
thread_local std::vector<std::uint64_t> t_open;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t unit)
    : tracer_(tracer.enabled_ ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - tracer.origin_)
                         .count();
  const std::uint64_t thread_key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(tracer.mutex_);
  Span span;
  span.name = name;
  span.id = tracer.next_id_++;
  span.parent = t_open.empty() ? 0 : t_open.back();
  if (unit == 0 && span.parent != 0) {
    // Children inherit the unit of their parent.
    for (auto it = tracer.spans_.rbegin(); it != tracer.spans_.rend(); ++it) {
      if (it->id == span.parent) {
        unit = it->unit;
        break;
      }
    }
  }
  span.unit = unit;
  const auto [it, inserted] = tracer.threads_.emplace(
      thread_key, static_cast<std::uint32_t>(tracer.threads_.size() + 1));
  span.thread = it->second;
  span.start_us = now;
  index_ = tracer.spans_.size();
  tracer.spans_.push_back(std::move(span));
  t_open.push_back(tracer.spans_.back().id);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const double now = std::chrono::duration<double, std::micro>(
                         Clock::now() - tracer_->origin_)
                         .count();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_[index_].end_us = now;
  t_open.pop_back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans()) {
    if (s.name == name) total += s.end_us - s.start_us;
  }
  return total * 1e-6;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& s : spans()) n += s.name == name ? 1 : 0;
  return n;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, double> child_us;
  for (const Span& s : all) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    self[s.name] += (s.end_us - s.start_us - child_us[s.id]) * 1e-6;
  }
  return self;
}

std::string Tracer::chrome_json() const {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"" << s.name << "\",\"cat\":\""
       << s.name.substr(0, s.name.find('.')) << "\",\"ph\":\"X\",\"ts\":"
       << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
       << ",\"pid\":1,\"tid\":" << s.thread << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"unit\":" << s.unit << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

// ----------------------------------------------------------------- result

std::string RunResult::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
       << (std::isfinite(value.first) ? value.first : 0.0)
       << ", \"unit\": \"" << value.second << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench

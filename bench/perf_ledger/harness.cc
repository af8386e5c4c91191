#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <sched.h>

namespace ledger {

namespace {

/// The repository modules a span can be attributed to.
constexpr const char* kLayers[] = {"data",         "text",         "features",
                                   "ml",           "core.service", "core.engine",
                                   "core.trainer", "nn",           "linalg"};

/// Layer of a ledger span name `<layer>.<Call>`, or empty for spans the
/// ledger did not open (the repository's own `engine.predict`, ...).
std::string LayerOf(const char* name) {
  const std::string s = name;
  const size_t dot = s.rfind('.');
  if (dot == std::string::npos) return {};
  const std::string layer = s.substr(0, dot);
  for (const char* known : kLayers) {
    if (layer == known) return layer;
  }
  return {};
}

std::string FirstLineWith(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) return {};
      size_t begin = colon + 1;
      while (begin < line.size() && (line[begin] == ' ' || line[begin] == '\t')) {
        ++begin;
      }
      return line.substr(begin);
    }
  }
  return {};
}

bool Int8KernelIsAvx512() {
#if defined(__x86_64__) && defined(__GNUC__)
  // The rule the kernel layer dispatches its int8 microkernel by.
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
#else
  return false;
#endif
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  const std::string hwm = FirstLineWith("/proc/self/status", "VmHWM");
  return std::strtod(hwm.c_str(), nullptr) / 1024.0;
}

void Report::Check(bool ok, const std::string& what) {
  Op(ok);
  if (!ok) std::fprintf(stderr, "%s: check failed: %s\n", workload_.c_str(), what.c_str());
}

void Report::Line(const std::string& name, double value,
                  const std::string& unit) {
  lines_.push_back({name, value, unit});
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Check(std::isfinite(value), name + " is not a finite number");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Print() const {
  for (const auto* entries : {&lines_, &metrics_}) {
    for (const Entry& e : *entries) {
      std::printf("%s %s %.6g %s\n", workload_.c_str(), e.name.c_str(),
                  e.value, e.unit.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

LayerTimes SelfTimes(const std::vector<cuisine::util::TraceEvent>& events,
                     double begin_us, double end_us) {
  struct Span {
    std::string layer;
    double start;
    double end;
    double self;
  };
  std::map<uint32_t, std::vector<Span>> by_thread;
  for (const cuisine::util::TraceEvent& e : events) {
    if (e.name == nullptr || e.ts_us < begin_us || e.ts_us >= end_us) continue;
    std::string layer = LayerOf(e.name);
    if (layer.empty()) continue;
    by_thread[e.tid].push_back(
        {std::move(layer), e.ts_us, e.ts_us + e.dur_us, e.dur_us});
  }
  LayerTimes out;
  for (auto& [tid, spans] : by_thread) {
    // Parents sort before the children they enclose.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    std::vector<Span*> open;
    for (Span& span : spans) {
      while (!open.empty() && open.back()->end <= span.start) open.pop_back();
      if (open.empty()) {
        out.top_level_seconds += (span.end - span.start) * 1e-6;
      } else {
        open.back()->self -= span.end - span.start;
      }
      open.push_back(&span);
    }
    for (const Span& span : spans) {
      out.self_seconds[span.layer] += span.self * 1e-6;
    }
  }
  return out;
}

namespace {

/// The CPUs the process may run on, read before any thread is pinned.
const cpu_set_t& UsableCpus() {
  static const cpu_set_t usable = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  return usable;
}

}  // namespace

void PinToCpu(size_t index) {
  const cpu_set_t& usable = UsableCpus();
  const auto count = static_cast<size_t>(CPU_COUNT(&usable));
  size_t wanted = index % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &usable)) continue;
    if (wanted-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      // A refused pin leaves the thread free to run anywhere, which
      // only costs steadiness.
      sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

void PinAll() { sched_setaffinity(0, sizeof(cpu_set_t), &UsableCpus()); }

ClientThreads::ClientThreads(size_t count) {
  UsableCpus();
  try {
    for (size_t i = 0; i < count; ++i) {
      threads_.emplace_back([this, i] { Loop(i); });
    }
  } catch (...) {
    Stop();
    throw;
  }
}

ClientThreads::~ClientThreads() { Stop(); }

void ClientThreads::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ClientThreads::Run(size_t n, const std::function<void(size_t)>& body) {
  std::unique_lock<std::mutex> lock(mu_);
  body_ = &body;
  active_ = std::min(n, threads_.size());
  running_ = active_;
  error_ = nullptr;
  ++generation_;
  start_cv_.notify_all();
  done_cv_.wait(lock, [this] { return running_ == 0; });
  body_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

void ClientThreads::Loop(size_t index) {
  PinToCpu(index);
  uint64_t seen = 0;
  for (;;) {
    const std::function<void(size_t)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (index >= active_) continue;
      body = body_;
    }
    std::exception_ptr error;
    try {
      (*body)(index);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (error && !error_) error_ = error;
    if (--running_ == 0) done_cv_.notify_one();
  }
}

void PrintFingerprint(uint64_t seed) {
  const char* rev = std::getenv("LEDGER_GIT_REV");
  std::printf("host nproc %u\n", std::thread::hardware_concurrency());
  std::printf("host cpu %s\n", FirstLineWith("/proc/cpuinfo", "model name").c_str());
  std::printf("host int8_avx512 %d\n", Int8KernelIsAvx512() ? 1 : 0);
  std::printf("host compiler %s\n", __VERSION__);
  std::printf("host flags %s\n", LEDGER_BUILD_FLAGS);
  std::printf("host git %s\n", rev != nullptr && *rev != '\0' ? rev : "unknown");
  std::printf("host seed %llu\n", static_cast<unsigned long long>(seed));
}

}  // namespace ledger

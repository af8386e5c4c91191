#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/telemetry.h"

/// \file harness.h
/// \brief Measurement plumbing of the ledger: clocks, order statistics,
/// peak memory, span self-time, the host fingerprint and the result a run
/// prints.

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The time `seconds` from now.
inline Clock::time_point After(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Quantile `q` in [0, 1] of `values`, interpolating linearly between
/// order statistics. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// What one run of a workload reports.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Counts one operation of the workload (a request, a scoring call, a
  /// corpus pass, a training job).
  void Op(bool ok) { Ops(1, ok ? 0 : 1); }
  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Counts one correctness check; a failure is printed to stderr and
  /// counts as a failed operation.
  void Check(bool ok, const std::string& what);

  /// A workload-specific line of the human output.
  void Line(const std::string& name, double value, const std::string& unit);
  /// A metric of the final JSON object (end-to-end or per-layer,
  /// depending on the run) that is also printed as a line.
  void Metric(const std::string& name, double value, const std::string& unit);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }

  /// Prints every line, then the JSON object as the last line of stdout.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };

  std::string workload_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Entry> lines_;
  std::vector<Entry> metrics_;
};

/// Self time of each layer over the ledger's own spans (names
/// `<layer>.<Call>`) that start inside [begin_us, end_us): a span's
/// duration minus the part its nested spans on the same thread cover.
struct LayerTimes {
  std::map<std::string, double> self_seconds;
  /// Sum of the spans no other ledger span encloses.
  double top_level_seconds = 0.0;
};
LayerTimes SelfTimes(const std::vector<cuisine::util::TraceEvent>& events,
                     double begin_us, double end_us);

/// Prints the host fingerprint as `host <key> <value>` lines.
void PrintFingerprint(uint64_t seed);

/// Pins the calling thread to the `index`-th CPU the process may use
/// (modulo their count); `PinAll` lets it run on every one of them again.
/// Single-threaded phases rotate over the CPUs so that a run averages
/// their speeds, which differ on a shared host, instead of sampling the
/// one the scheduler happened to pick.
void PinToCpu(size_t index);
void PinAll();

/// \brief Pins the calling thread to one CPU for the guard's lifetime.
class CpuPin {
 public:
  explicit CpuPin(size_t index) { PinToCpu(index); }
  ~CpuPin() { PinAll(); }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;
};

/// \brief Client threads that persist across load phases, so each
/// thread's buffers (its own and the repository's thread-local scratch)
/// are allocated once per run rather than once per phase. Thread i is
/// pinned to CPU i.
class ClientThreads {
 public:
  explicit ClientThreads(size_t count);
  ~ClientThreads();
  ClientThreads(const ClientThreads&) = delete;
  ClientThreads& operator=(const ClientThreads&) = delete;

  /// Runs body(i) on threads 0..n-1 (n <= size()) and returns when every
  /// one has returned; rethrows the first exception a body threw.
  void Run(size_t n, const std::function<void(size_t)>& body);

 private:
  void Loop(size_t index);
  void Stop();

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(size_t)>* body_ = nullptr;  // guarded by mu_
  size_t active_ = 0;                                  // guarded by mu_
  size_t running_ = 0;                                 // guarded by mu_
  uint64_t generation_ = 0;                            // guarded by mu_
  std::exception_ptr error_;                           // guarded by mu_
  bool stop_ = false;                                  // guarded by mu_
  // Last, so the threads are joined before the state they use goes.
  std::vector<std::thread> threads_;
};

}  // namespace ledger

// perf_ledger: one workload of the performance ledger per process.
//
//   perf_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--smoke] [--workdir <dir>]
//
// Prints `<workload> <metric> <value> <unit>` lines and, as the last line
// of stdout, one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics, or with --trace 1 the per-layer ones.
// Exits 0 only when every output checked out.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "harness.h"
#include "sut.h"
#include "workloads.h"

namespace ledger {
namespace {

/// Spans kept per traced section; overflow is counted, not stored.
constexpr size_t kTraceCapacity = size_t{1} << 20;

void ReportErrorRatio(Report* report) {
  report->Line("error_ratio",
               static_cast<double>(report->failed()) /
                   static_cast<double>(std::max<uint64_t>(1, report->attempted())),
               "ratio");
}

/// End-to-end run: set up several times (setup_s is the median), then
/// one measured phase with tracing off.
int RunMeasured(const RunConfig& config) {
  const int setups = config.smoke ? 1 : 3;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_seconds;
  for (int i = 0; i < setups; ++i) {
    workload.reset();
    workload = MakeWorkload(config.workload);
    const Clock::time_point start = Clock::now();
    workload->SetUp(config);
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
  }
  Report report(config.workload);
  workload->Measure(config.seconds, &report);
  report.Metric("setup_s", Median(setup_seconds), "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  ReportErrorRatio(&report);
  report.Print();
  return report.correct() ? 0 : 1;
}

/// Traced run: the measured phase in four segments of a quarter of the
/// run time, untraced and traced in turn (the gap between their rates is
/// the tracing overhead); the spans of the last traced segment give the
/// layer self-times. Then the layer probes. Writes the spans as
/// chrome://tracing JSON.
int RunTraced(const RunConfig& config) {
  std::unique_ptr<Workload> workload = MakeWorkload(config.workload);
  workload->SetUp(config);
  Report report(config.workload);
  Report phases(config.workload);  // its end-to-end metrics are dropped
  const double segment = config.seconds / 4.0;

  double untraced_rate = 0.0, traced_rate = 0.0;
  PhaseResult traced;
  std::vector<cuisine::util::TraceEvent> events;
  uint64_t dropped = 0;
  for (int pair = 0; pair < 2; ++pair) {
    untraced_rate += workload->Measure(segment, &phases).work_per_s;
    sut::StartTracing(kTraceCapacity);
    traced = sut::MarkPhase([&] { return workload->Measure(segment, &phases); });
    events = sut::StopTracing(&dropped);
    traced_rate += traced.work_per_s;
  }

  sut::StartTracing(kTraceCapacity);
  RunLayerProbes(workload->Probe(), config, &report);
  uint64_t probe_dropped = 0;
  const std::vector<cuisine::util::TraceEvent> probe_events =
      sut::StopTracing(&probe_dropped);
  report.Ops(phases.attempted(), phases.failed());

  double phase_begin = 0.0, phase_end = 0.0;
  for (const cuisine::util::TraceEvent& e : events) {
    if (e.name != nullptr && std::string(e.name) == "ledger.MeasuredPhase") {
      phase_begin = e.ts_us;
      phase_end = e.ts_us + e.dur_us;
    }
  }
  report.Check(phase_end > phase_begin, "measured phase span recorded");
  const LayerTimes layers = SelfTimes(events, phase_begin, phase_end);
  report.Metric("trace.overhead_pct", (untraced_rate / traced_rate - 1.0) * 100.0, "%");
  report.Metric("trace.coverage", layers.top_level_seconds / traced.op_seconds, "ratio");
  for (const auto& [layer, seconds] : layers.self_seconds) {
    report.Line("self_s." + layer, seconds, "s");
  }
  report.Line("trace.dropped_events", static_cast<double>(dropped + probe_dropped), "count");

  // The probes follow the phase on the trace's timeline.
  for (cuisine::util::TraceEvent e : probe_events) {
    e.ts_us += phase_end;
    events.push_back(e);
  }
  const std::string path = config.workdir + "/trace-" + config.workload + ".json";
  const bool written = sut::WriteTrace(events, path);
  report.Check(written, "trace written to " + path);
  if (written) std::printf("trace %s\n", path.c_str());
  ReportErrorRatio(&report);
  report.Print();
  return report.correct() ? 0 : 1;
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "perf_ledger: %s\nusage: perf_ledger --workload "
               "<serve_raw|batch_predict|featurize_corpus|train_table4> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] [--workdir <dir>]\n",
               error);
  return 2;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  PinAll();  // records the usable CPUs before any thread is pinned
  RunConfig config;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--workdir" && has_value) {
      config.workdir = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (MakeWorkload(config.workload) == nullptr) return Usage("unknown workload");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  try {
    std::filesystem::create_directories(config.workdir);
    PrintFingerprint(config.seed);
    return trace ? RunTraced(config) : RunMeasured(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_ledger: %s\n", e.what());
    return 1;
  }
}

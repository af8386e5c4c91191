#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "sut.h"

/// \file workloads.h
/// \brief The ledger's four workloads, the serving loops they share with
/// the layer probes, and the probe suite of a traced run.

namespace ledger {

/// Settings of one run, from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Small inputs and phases for a quick end-to-end check.
  bool smoke = false;
  /// Where checkpoints and trace files go.
  std::string workdir = "build-ledger/work";
};

/// What a measured phase hands back besides its metrics.
struct PhaseResult {
  /// The workload's headline rate (its `throughput_per_s`).
  double work_per_s = 0.0;
  /// Wall time of the timed operations, which spans should cover.
  double op_seconds = 0.0;
};

/// One raw request: event texts and the test row they came from.
struct RawRequest {
  std::vector<std::string> events;
  size_t test_row = 0;
};

/// Inputs of the layer probes: the workload's own corpus and requests.
struct ProbeInputs {
  const std::vector<sut::Recipe>* recipes = nullptr;
  /// The split seed the workload's pipeline used.
  uint64_t split_seed = 0;
  /// Requests as the workload presents them to the request path.
  const std::vector<RawRequest>* requests = nullptr;
  double generate_seconds = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed and everything the measured phase
  /// needs: fitted models, pre-encoded inputs, reference outputs.
  virtual void SetUp(const RunConfig& config) = 0;
  /// Runs the measured phase for `seconds`, checking every output, and
  /// reports the end-to-end metrics except set-up time and memory.
  virtual PhaseResult Measure(double seconds, Report* report) = 0;
  virtual ProbeInputs Probe() const = 0;
};

/// The workload called `name`, or nullptr.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// Offered load of serve_raw's open loop, in requests per second: half
/// the closed-loop capacity measured once on the 4-core reference host
/// (README.md), frozen so that every run and commit offers the same load.
inline constexpr double kNominalRate = 2250.0;

/// Raw requests over the pipeline's test split. With `noise`, each event
/// carries seeded case, digit and punctuation noise at word boundaries,
/// which the cleaner strips, so the tokens are unchanged.
std::vector<RawRequest> MakeRequests(const std::vector<sut::Recipe>& recipes,
                                     const sut::Pipeline& pipeline,
                                     size_t count, bool noise, uint64_t seed);

/// \brief A serving ladder [primary, fallback] plus the offline reference
/// every response is checked against: the featurized rows must equal the
/// pipeline's test rows byte for byte, the primary must serve, and its
/// probabilities must equal a direct `PredictBatch` on the offline rows.
class ServeSession {
 public:
  /// Client threads a loop may run at once.
  static constexpr size_t kMaxClients = 4;

  struct Stats {
    /// Per request: from its due time (open loop) or its start (closed
    /// loop) to the response.
    std::vector<double> latency_ms;
    /// Per request: the service call alone.
    std::vector<double> call_ms;
    /// Open loop: how late the generator released each request.
    std::vector<double> gen_lag_ms;
    uint64_t sent = 0;
    /// Requests that failed, were not served by the primary, or whose
    /// output differs from the reference.
    uint64_t failed = 0;
    /// Requests the primary served.
    uint64_t primary = 0;
    /// Featurize + serve time summed over requests.
    double busy_seconds = 0.0;
    double wall_seconds = 0.0;

    /// Appends another loop's requests and time.
    void Add(const Stats& other);

    double ok_per_second() const {
      return wall_seconds > 0.0 ? static_cast<double>(sent - failed) / wall_seconds
                                : 0.0;
    }
  };

  ServeSession(const sut::Pipeline& pipeline, const sut::Model& primary,
               const sut::Model& fallback, std::vector<RawRequest> requests);

  /// Poisson arrivals at `rate`: a scheduler thread releases requests at
  /// their due times to three sender threads.
  Stats OpenLoop(double rate, double seconds, uint64_t seed);
  /// `clients` threads, from client thread `first` on, each sending its
  /// next request when the last one returns.
  Stats ClosedLoop(size_t clients, double seconds, size_t first = 0);

  /// Direct `PredictBatch` of the primary on one featurized request, in
  /// ms, over `count` requests.
  std::vector<double> DirectMs(size_t count);

 private:
  struct Tally;
  /// Featurizes, serves and checks one request on client thread
  /// `thread`; returns when it ended.
  Clock::time_point Handle(size_t thread, const RawRequest& request, Tally* tally);

  const sut::Pipeline& pipeline_;
  const sut::Model& primary_;
  std::unique_ptr<sut::InferenceService> service_;
  std::vector<RawRequest> requests_;
  /// Primary predictions on every offline test row.
  sut::Predictions reference_;
  /// One featurizer per client thread, kept across loops as a client
  /// keeps its own.
  std::vector<std::unique_ptr<sut::RequestFeaturizer>> featurizers_;
  // Last, so the threads stop before the state they use goes.
  ClientThreads threads_{kMaxClients};
};

/// Runs the per-layer probes on the workload's inputs and reports every
/// per-layer metric except the trace ones.
void RunLayerProbes(const ProbeInputs& inputs, const RunConfig& config,
                    Report* report);

}  // namespace ledger

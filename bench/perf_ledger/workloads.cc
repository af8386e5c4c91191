#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "util/rng.h"

namespace ledger {

namespace {

/// Worker threads of the multi-worker configurations: the host's cores.
constexpr size_t kWorkers = 4;

double Ms(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e3;
}

uint64_t SplitSeed(uint64_t seed) { return seed * 7919 + 17; }

bool SameBytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool SamePredictions(const sut::Predictions& a, const sut::Predictions& b) {
  if (a.labels != b.labels || a.probas.size() != b.probas.size()) return false;
  for (size_t i = 0; i < a.probas.size(); ++i) {
    if (!SameBytes(a.probas[i], b.probas[i])) return false;
  }
  return true;
}

bool SameSequence(const sut::EncodedSequence& a, const sut::EncodedSequence& b) {
  return a.length == b.length && a.ids == b.ids && a.mask == b.mask;
}

bool SameRow(const sut::CsrMatrix& a, size_t ra, const sut::CsrMatrix& b,
             size_t rb) {
  const size_t n = a.RowNnz(ra);
  return n == b.RowNnz(rb) &&
         (n == 0 || std::memcmp(a.RowBegin(ra), b.RowBegin(rb),
                                n * sizeof(cuisine::features::SparseEntry)) == 0);
}

bool SameCorpus(const cuisine::core::TokenizedCorpus& a,
                const cuisine::core::TokenizedCorpus& b) {
  if (a.token_ids != b.token_ids || a.offsets != b.offsets ||
      a.labels != b.labels || a.table.size() != b.table.size()) {
    return false;
  }
  for (size_t id = 0; id < a.table.size(); ++id) {
    const auto i = static_cast<int32_t>(id);
    if (a.table.View(i) != b.table.View(i)) return false;
  }
  return true;
}

double AccuracyPct(const std::vector<int32_t>& predicted,
                   const std::vector<int32_t>& truth) {
  size_t hits = 0;
  for (size_t i = 0; i < predicted.size(); ++i) hits += predicted[i] == truth[i];
  return predicted.empty() ? 0.0 : 100.0 * static_cast<double>(hits) /
                                       static_cast<double>(predicted.size());
}

/// The first `n` sequences of a split with their labels, for training a
/// fixed number of steps.
struct Subset {
  std::vector<sut::EncodedSequence> x;
  std::vector<int32_t> y;

  sut::ModelDataset View(const sut::Pipeline& p) const {
    return {.sequences = &x, .labels = &y, .vocab = p.vocab.get()};
  }
};

Subset Take(const std::vector<sut::EncodedSequence>& x,
            const std::vector<int32_t>& y, size_t n) {
  n = std::min(n, x.size());
  return {{x.begin(), x.begin() + static_cast<ptrdiff_t>(n)},
          {y.begin(), y.begin() + static_cast<ptrdiff_t>(n)}};
}

std::unique_ptr<sut::Model> FitLogReg(const sut::Pipeline& p) {
  return sut::FitModel(
      "logreg", {.tfidf = &p.tfidf_train, .labels = &p.train.labels()},
      kWorkers);
}

/// Length of one slice of a measured phase. Every end-to-end metric is
/// the median over slices, so a slow stretch of a shared host lands in a
/// few slices and moves the median little.
constexpr double kSliceSeconds = 1.5;

size_t SliceCount(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(seconds / kSliceSeconds)));
}

/// Per-slice results of a measured phase.
struct Slices {
  std::vector<double> rate;     // headline rate at 4 workers or clients
  std::vector<double> rate_1w;  // the same at 1
  std::vector<double> p50_ms;   // latency median of the slice's operations
  std::vector<double> tail_ms;  // latency tail percentile of the slice
  size_t samples = 0;

  void AddLatency(const std::vector<double>& ms, double tail) {
    p50_ms.push_back(Quantile(ms, 0.50));
    tail_ms.push_back(Quantile(ms, tail));
    samples += ms.size();
  }

  /// Reports the end-to-end metrics of the phase, medians over slices,
  /// and the latency tail as a line: the highest percentile with ten
  /// samples beyond it in a slice, p99 for requests and p90 for the
  /// batch workloads' calls, passes and jobs.
  void Report(int tail_percentile, ledger::Report* report) const {
    report->Metric("throughput_per_s", Median(rate), "1/s");
    report->Metric("throughput_1w_per_s", Median(rate_1w), "1/s");
    report->Metric("latency_p50_ms", Median(p50_ms), "ms");
    report->Line("latency_p" + std::to_string(tail_percentile) + "_ms",
                 Median(tail_ms), "ms");
    report->Line("latency_samples", static_cast<double>(samples), "count");
  }
};

std::string Noisy(const std::string& text, cuisine::util::Rng* rng) {
  // Non-letters only: the cleaner turns each into a word boundary, so
  // placed between words they change no token. The leading quantity
  // makes nearly every noisy event string unique.
  static constexpr const char* kNoise[] = {"1/2", "(", ")", ",", "-",
                                           "!!", "#", ";", "*", "..."};
  const auto noise = [&] {
    return kNoise[rng->NextBelow(std::size(kNoise))];
  };
  std::string out = std::to_string(1 + rng->NextBelow(9999)) + noise() + " ";
  for (char c : text) {
    if (c == ' ') {
      out += rng->NextBool(0.5) ? std::string(" ") + noise() + " " : " ";
      continue;
    }
    if (c >= 'a' && c <= 'z' && rng->NextBool(0.3)) c = static_cast<char>(c - 'a' + 'A');
    out += c;
  }
  if (rng->NextBool(0.3)) out += noise();
  return out;
}

}  // namespace

std::vector<RawRequest> MakeRequests(const std::vector<sut::Recipe>& recipes,
                                     const sut::Pipeline& pipeline,
                                     size_t count, bool noise, uint64_t seed) {
  cuisine::util::Rng rng(seed ^ 0x7265717565737473ULL);
  std::vector<RawRequest> requests(count);
  for (RawRequest& request : requests) {
    request.test_row = rng.NextBelow(pipeline.test.size());
    const sut::Recipe& recipe = recipes[pipeline.test.corpus_index(request.test_row)];
    for (const auto& event : recipe.events) {
      request.events.push_back(noise ? Noisy(event.text, &rng) : event.text);
    }
  }
  return requests;
}

// ---------------------------------------------------------------------------
// Serving loops
// ---------------------------------------------------------------------------

/// One client thread's request buffers and results.
struct ServeSession::Tally {
  sut::RequestRows rows;
  Stats stats;
};

ServeSession::ServeSession(const sut::Pipeline& pipeline,
                           const sut::Model& primary, const sut::Model& fallback,
                           std::vector<RawRequest> requests)
    : pipeline_(pipeline),
      primary_(primary),
      service_(sut::MakeService(primary, fallback)),
      requests_(std::move(requests)),
      reference_(sut::Predict(primary, {.tfidf = &pipeline.tfidf_test,
                                        .sequences = &pipeline.cls_test},
                              kWorkers)) {
  for (size_t i = 0; i < kMaxClients; ++i) {
    featurizers_.push_back(std::make_unique<sut::RequestFeaturizer>(pipeline));
  }
}

void ServeSession::Stats::Add(const Stats& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
  call_ms.insert(call_ms.end(), other.call_ms.begin(), other.call_ms.end());
  gen_lag_ms.insert(gen_lag_ms.end(), other.gen_lag_ms.begin(), other.gen_lag_ms.end());
  sent += other.sent;
  failed += other.failed;
  primary += other.primary;
  busy_seconds += other.busy_seconds;
  wall_seconds += other.wall_seconds;
}

Clock::time_point ServeSession::Handle(size_t thread, const RawRequest& request,
                                       Tally* tally) {
  Stats& stats = tally->stats;
  const Clock::time_point start = Clock::now();
  bool ok = false;
  Clock::time_point end = start;
  try {
    featurizers_[thread]->Featurize(request.events, &tally->rows);
    const Clock::time_point call = Clock::now();
    const sut::InferenceResponse response =
        sut::Serve(service_.get(), tally->rows.View());
    end = Clock::now();
    stats.call_ms.push_back(Ms(call, end));
    const bool primary = response.status.ok() && response.tier_index == 0;
    stats.primary += primary;
    const size_t row = request.test_row;
    ok = primary && SameSequence(tally->rows.sequences[0], pipeline_.cls_test[row]) &&
         SameRow(tally->rows.tfidf, 0, pipeline_.tfidf_test, row) &&
         response.predictions.labels.size() == 1 &&
         response.predictions.labels[0] == reference_.labels[row] &&
         SameBytes(response.predictions.probas[0], reference_.probas[row]);
  } catch (const std::exception&) {
    end = Clock::now();
  }
  stats.busy_seconds += SecondsBetween(start, end);
  ++stats.sent;
  stats.failed += ok ? 0 : 1;
  return end;
}

ServeSession::Stats ServeSession::OpenLoop(double rate, double seconds,
                                           uint64_t seed) {
  cuisine::util::Rng rng(seed ^ 0x6f70656e6c6f6f70ULL);
  std::vector<Clock::duration> due;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    due.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t)));
  }
  constexpr size_t kSenders = 3;
  static_assert(kSenders < kMaxClients);
  std::vector<Tally> tallies(kSenders);
  std::vector<double> lag_ms(due.size());
  std::mutex mu;
  std::condition_variable ready_cv;
  std::deque<size_t> ready;  // guarded by mu
  bool closed = false;       // guarded by mu
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  // Threads 0..2 send; thread 3 releases each request at its due time
  // and closes the queue after the last, so every sender drains and
  // returns.
  threads_.Run(kSenders + 1, [&](size_t t) {
    if (t == kSenders) {
      for (size_t i = 0; i < due.size(); ++i) {
        std::this_thread::sleep_until(start + due[i]);
        lag_ms[i] = Ms(start + due[i], Clock::now());
        {
          std::lock_guard<std::mutex> lock(mu);
          ready.push_back(i);
        }
        ready_cv.notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
      }
      ready_cv.notify_all();
      return;
    }
    for (;;) {
      size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        ready_cv.wait(lock, [&] { return !ready.empty() || closed; });
        if (ready.empty()) return;
        i = ready.front();
        ready.pop_front();
      }
      const Clock::time_point end = Handle(t, requests_[i % requests_.size()], &tallies[t]);
      tallies[t].stats.latency_ms.push_back(Ms(start + due[i], end));
    }
  });
  Stats stats;
  for (const Tally& tally : tallies) stats.Add(tally.stats);
  stats.gen_lag_ms = std::move(lag_ms);
  stats.wall_seconds = SecondsBetween(start, Clock::now());
  return stats;
}

ServeSession::Stats ServeSession::ClosedLoop(size_t clients, double seconds,
                                             size_t first) {
  first = std::min(first, kMaxClients - 1);
  clients = std::min(clients, kMaxClients - first);
  std::vector<Tally> tallies(clients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = After(seconds);
  threads_.Run(first + clients, [&](size_t t) {
    if (t < first) return;
    const size_t c = t - first;
    for (size_t i = c; Clock::now() < stop; i += clients) {
      const Clock::time_point begin = Clock::now();
      const Clock::time_point end = Handle(t, requests_[i % requests_.size()], &tallies[c]);
      tallies[c].stats.latency_ms.push_back(Ms(begin, end));
    }
  });
  Stats stats;
  for (const Tally& tally : tallies) stats.Add(tally.stats);
  stats.wall_seconds = SecondsBetween(start, Clock::now());
  return stats;
}

std::vector<double> ServeSession::DirectMs(size_t count) {
  sut::RequestRows rows;
  std::vector<double> ms;
  for (size_t i = 0; i < count; ++i) {
    featurizers_[0]->Featurize(requests_[i % requests_.size()].events, &rows);
    const Clock::time_point start = Clock::now();
    sut::Predict(primary_, rows.View(), 1);
    ms.push_back(Ms(start, Clock::now()));
  }
  return ms;
}

namespace {

/// What every workload holds: its seeded corpus through the §IV pipeline
/// and the requests made from it, which the layer probes reuse.
class CorpusWorkload : public Workload {
 public:
  ProbeInputs Probe() const override {
    return {&recipes_, SplitSeed(seed_), &requests_, generate_seconds_};
  }

 protected:
  void BuildCorpus(const RunConfig& config, double scale, bool wide,
                   size_t requests, bool noise) {
    seed_ = config.seed;
    const Clock::time_point start = Clock::now();
    recipes_ = sut::GenerateCorpus(seed_, scale, wide);
    generate_seconds_ = SecondsBetween(start, Clock::now());
    pipeline_ = sut::RunPipeline(recipes_, SplitSeed(seed_), kWorkers);
    requests_ = MakeRequests(recipes_, *pipeline_, requests, noise, seed_);
  }

  uint64_t seed_ = 0;
  double generate_seconds_ = 0.0;
  std::vector<sut::Recipe> recipes_;
  std::unique_ptr<sut::Pipeline> pipeline_;
  std::vector<RawRequest> requests_;
};

// ---------------------------------------------------------------------------
// serve_raw: single raw recipes through a [roberta fp32, logreg] ladder.
// ---------------------------------------------------------------------------

class ServeRaw final : public CorpusWorkload {
 public:
  void SetUp(const RunConfig& config) override {
    const bool smoke = config.smoke;
    BuildCorpus(config, smoke ? 0.01 : 0.05, /*wide=*/false, smoke ? 256 : 4096,
                /*noise=*/true);
    logreg_ = FitLogReg(*pipeline_);
    const auto& labels = pipeline_->train.labels();
    const Subset finetune = Take(pipeline_->cls_train, labels, (smoke ? 4 : 48) * sut::kBatchSize);
    const Subset mlm = Take(pipeline_->cls_train, labels, (smoke ? 4 : 24) * sut::kBatchSize);
    const sut::ModelDataset pretrain = mlm.View(*pipeline_);
    roberta_ = sut::FitModel("roberta", finetune.View(*pipeline_), kWorkers, &pretrain);
    session_ = std::make_unique<ServeSession>(*pipeline_, *roberta_, *logreg_, requests_);
  }

  PhaseResult Measure(double seconds, Report* report) override {
    // Each slice: the open loop at the nominal rate for 40% of it, then
    // the closed loop with 4 clients and with 1 client for 30% each.
    const size_t n = SliceCount(seconds);
    const double t = seconds / static_cast<double>(n);
    Slices slices;
    std::vector<double> lag_ms;
    double busy_seconds = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const ServeSession::Stats open =
          session_->OpenLoop(kNominalRate, 0.4 * t, seed_ * 1000 + i);
      const ServeSession::Stats closed = session_->ClosedLoop(4, 0.3 * t);
      const ServeSession::Stats single = [&] {
        // The single client takes a turn on every client thread's CPU.
        ServeSession::Stats turns;
        for (size_t c = 0; c < ServeSession::kMaxClients; ++c) {
          turns.Add(session_->ClosedLoop(1, 0.3 * t / ServeSession::kMaxClients, c));
        }
        return turns;
      }();
      for (const ServeSession::Stats* s : {&open, &closed, &single}) {
        report->Ops(s->sent, s->failed);
        busy_seconds += s->busy_seconds;
      }
      slices.rate.push_back(closed.ok_per_second());
      slices.rate_1w.push_back(single.ok_per_second());
      slices.AddLatency(open.latency_ms, 0.99);
      lag_ms.push_back(Quantile(open.gen_lag_ms, 0.99));
    }
    slices.Report(99, report);
    report->Line("offered_rps", kNominalRate, "1/s");
    report->Line("gen_lag_p99_ms", Median(lag_ms), "ms");
    report->Line("throughput_rps", Median(slices.rate), "1/s");
    return {Median(slices.rate), busy_seconds};
  }

 private:
  std::unique_ptr<sut::Model> logreg_;
  std::unique_ptr<sut::Model> roberta_;
  std::unique_ptr<ServeSession> session_;
};

// ---------------------------------------------------------------------------
// batch_predict: offline scoring with lstm, gru and transformer, fp32 and
// int8, at 1 and 4 workers.
// ---------------------------------------------------------------------------

class BatchPredict final : public CorpusWorkload {
 public:
  /// Sequences per scoring call.
  static constexpr size_t kChunk = 64;

  void SetUp(const RunConfig& config) override {
    const bool smoke = config.smoke;
    BuildCorpus(config, smoke ? 0.01 : 0.05, /*wide=*/true, 2048, /*noise=*/false);
    const auto& labels = pipeline_->train.labels();
    const size_t train = (smoke ? 8 : 96) * sut::kBatchSize;
    for (const char* key : {"lstm", "gru", "transformer"}) {
      const bool cls = std::string(key) == "transformer";
      const auto& x_train = cls ? pipeline_->cls_train : pipeline_->plain_train;
      const auto& x_test = cls ? pipeline_->cls_test : pipeline_->plain_test;
      Arch arch;
      arch.name = key;
      arch.model = sut::FitModel(key, Take(x_train, labels, train).View(*pipeline_), kWorkers);
      sut::AttachInt8(arch.model.get(), Take(x_train, labels, 256).x);
      for (size_t begin = 0; begin < x_test.size(); begin += kChunk) {
        const size_t end = std::min(x_test.size(), begin + kChunk);
        arch.chunks.emplace_back(x_test.begin() + static_cast<ptrdiff_t>(begin),
                                 x_test.begin() + static_cast<ptrdiff_t>(end));
        const auto& chunk = arch.chunks.back();
        arch.fp32_reference.push_back(
            sut::Predict(*arch.model, {.sequences = &chunk}, kWorkers));
        arch.int8_reference.push_back(sut::PredictInt8(*arch.model, chunk, kWorkers));
      }
      archs_.push_back(std::move(arch));
    }
  }

  PhaseResult Measure(double seconds, Report* report) override {
    struct Config {
      size_t arch;
      bool int8;
      size_t workers;
      double seconds = 0.0;
      size_t sequences = 0;
    };
    std::vector<Config> configs;
    for (size_t a = 0; a < archs_.size(); ++a) {
      for (const bool int8 : {false, true}) {
        for (const size_t workers : {size_t{1}, kWorkers}) {
          configs.push_back({a, int8, workers});
        }
      }
    }
    const auto rate = [&](bool int8, size_t workers) {
      double s = 0.0, n = 0.0;
      for (const Config& c : configs) {
        if (c.int8 == int8 && c.workers == workers) {
          s += c.seconds;
          n += static_cast<double>(c.sequences);
        }
      }
      return n / s;
    };
    // Whole rounds over the configurations fill each slice, so drift in
    // the host's speed falls on all of them alike.
    Slices slices;
    std::vector<double> int8_rate;
    double op_seconds = 0.0;
    size_t round = 0, serial_calls = 0;
    for (size_t i = 0, n = SliceCount(seconds); i < n; ++i) {
      for (Config& c : configs) c.seconds = 0.0, c.sequences = 0;
      std::vector<double> latency_ms;
      const Clock::time_point stop = After(seconds / static_cast<double>(n));
      do {
        for (Config& c : configs) {
          const Arch& arch = archs_[c.arch];
          const size_t k = round % arch.chunks.size();
          const auto& chunk = arch.chunks[k];
          std::optional<CpuPin> pin;
          if (c.workers == 1) pin.emplace(serial_calls++);
          const Clock::time_point start = Clock::now();
          const sut::Predictions got =
              c.int8 ? sut::PredictInt8(*arch.model, chunk, c.workers)
                     : sut::Predict(*arch.model, {.sequences = &chunk}, c.workers);
          const double call = SecondsBetween(start, Clock::now());
          pin.reset();
          c.seconds += call;
          c.sequences += chunk.size();
          op_seconds += call;
          if (!c.int8 && c.workers == kWorkers) latency_ms.push_back(call * 1e3);
          report->Op(SamePredictions(
              got, c.int8 ? arch.int8_reference[k] : arch.fp32_reference[k]));
        }
        ++round;
      } while (Clock::now() < stop);
      slices.rate.push_back(rate(false, kWorkers));
      slices.rate_1w.push_back(rate(false, 1));
      int8_rate.push_back(rate(true, kWorkers));
      slices.AddLatency(latency_ms, 0.90);
    }
    slices.Report(90, report);
    report->Line("predict_fp32_seq_per_s", Median(slices.rate), "1/s");
    report->Line("predict_int8_seq_per_s", Median(int8_rate), "1/s");
    report->Line("predict_fp32_seq_per_s_1w", Median(slices.rate_1w), "1/s");

    const auto& truth = pipeline_->test.labels();
    double fp32_sum = 0.0, int8_sum = 0.0;
    for (const Arch& arch : archs_) {
      std::vector<int32_t> fp32, int8;
      for (size_t k = 0; k < arch.chunks.size(); ++k) {
        const auto& f = arch.fp32_reference[k].labels;
        const auto& q = arch.int8_reference[k].labels;
        fp32.insert(fp32.end(), f.begin(), f.end());
        int8.insert(int8.end(), q.begin(), q.end());
      }
      const double fp32_pct = AccuracyPct(fp32, truth);
      const double int8_pct = AccuracyPct(int8, truth);
      fp32_sum += fp32_pct;
      int8_sum += int8_pct;
      report->Line("accuracy_fp32_pct." + arch.name, fp32_pct, "%");
      report->Line("accuracy_int8_pct." + arch.name, int8_pct, "%");
    }
    const double fp32_pct = fp32_sum / static_cast<double>(archs_.size());
    const double int8_pct = int8_sum / static_cast<double>(archs_.size());
    report->Line("accuracy_fp32_pct", fp32_pct, "%");
    report->Line("accuracy_int8_pct", int8_pct, "%");
    // The Table IV parity bar, over the three models as the accuracy
    // metrics average them.
    report->Check(std::fabs(fp32_pct - int8_pct) <= 0.5,
                  "int8 accuracy within 0.5 points of fp32");
    return {Median(slices.rate), op_seconds};
  }

 private:
  struct Arch {
    std::string name;
    std::unique_ptr<sut::Model> model;
    std::vector<std::vector<sut::EncodedSequence>> chunks;
    std::vector<sut::Predictions> fp32_reference;
    std::vector<sut::Predictions> int8_reference;
  };
  std::vector<Arch> archs_;
};

// ---------------------------------------------------------------------------
// featurize_corpus: the §IV statistical path over a whole corpus, then
// logreg on the test rows.
// ---------------------------------------------------------------------------

class FeaturizeCorpus final : public CorpusWorkload {
 public:
  void SetUp(const RunConfig& config) override {
    BuildCorpus(config, config.smoke ? 0.02 : 0.21, /*wide=*/false, 2048, /*noise=*/false);
    logreg_ = FitLogReg(*pipeline_);
    serial_corpus_ = sut::Tokenize(recipes_, 1);
    reference_ = sut::Predict(*logreg_, {.tfidf = &pipeline_->tfidf_test}, kWorkers);
  }

  PhaseResult Measure(double seconds, Report* report) override {
    const double recipes = static_cast<double>(recipes_.size());
    Slices slices;
    double op_seconds = 0.0;
    size_t serial_passes = 0;
    for (size_t i = 0, n = SliceCount(seconds); i < n; ++i) {
      std::vector<double> latency_ms;
      double seconds_1w = 0.0, seconds_4w = 0.0, passes_1w = 0.0;
      const Clock::time_point stop = After(seconds / static_cast<double>(n));
      // Two 4-worker passes, then a 1-worker pass, until the slice ends.
      do {
        for (const size_t workers : {kWorkers, kWorkers, size_t{1}}) {
          std::optional<CpuPin> pin;
          if (workers == 1) pin.emplace(serial_passes++);
          const Clock::time_point start = Clock::now();
          const auto pipeline = sut::RunPipeline(recipes_, SplitSeed(seed_), workers);
          const sut::Predictions predicted =
              sut::Predict(*logreg_, {.tfidf = &pipeline->tfidf_test}, workers);
          const double elapsed = SecondsBetween(start, Clock::now());
          pin.reset();
          op_seconds += elapsed;
          if (workers == kWorkers) {
            seconds_4w += elapsed;
            latency_ms.push_back(elapsed * 1e3);
          } else {
            seconds_1w += elapsed;
            passes_1w += 1.0;
          }
          report->Op(SameCorpus(pipeline->corpus, serial_corpus_) &&
                     SamePredictions(predicted, reference_));
        }
      } while (Clock::now() < stop);
      slices.rate.push_back(recipes * static_cast<double>(latency_ms.size()) / seconds_4w);
      slices.rate_1w.push_back(recipes * passes_1w / seconds_1w);
      slices.AddLatency(latency_ms, 0.90);
    }
    slices.Report(90, report);
    report->Line("featurize_recipes_per_s", Median(slices.rate), "1/s");
    report->Line("recipes", recipes, "count");
    return {Median(slices.rate), op_seconds};
  }

 private:
  std::unique_ptr<sut::Model> logreg_;
  cuisine::core::TokenizedCorpus serial_corpus_;
  sut::Predictions reference_;
};

// ---------------------------------------------------------------------------
// train_table4: fixed-step training jobs at the Table IV dims.
// ---------------------------------------------------------------------------

class TrainTable4 final : public CorpusWorkload {
 public:
  void SetUp(const RunConfig& config) override {
    workdir_ = config.workdir;
    const bool smoke = config.smoke;
    BuildCorpus(config, smoke ? 0.01 : 0.05, /*wide=*/false, 2048, /*noise=*/false);
    const auto& labels = pipeline_->train.labels();
    const size_t steps = smoke ? 2 : 4;
    lstm_set_ = Take(pipeline_->plain_train, labels, steps * sut::kBatchSize);
    transformer_set_ = Take(pipeline_->cls_train, labels, steps * sut::kBatchSize);
    one_step_set_ = Take(pipeline_->cls_train, labels, sut::kBatchSize);
    // One job of each kind warms the workers' per-thread arenas and
    // scratch, so the measured jobs do not pay for it.
    for (int kind = 0; kind < kKinds; ++kind) Run(kind, kWorkers);
  }

  PhaseResult Measure(double seconds, Report* report) override {
    std::map<std::pair<int, size_t>, Job> last;  // (kind, workers) -> job
    std::map<int, Losses> first_losses;
    Slices slices;
    double op_seconds = 0.0;
    size_t serial_jobs = 0;
    for (size_t i = 0, n = SliceCount(seconds); i < n; ++i) {
      double seqs_4w = 0.0, seconds_4w = 0.0, seqs_1w = 0.0, seconds_1w = 0.0;
      std::vector<double> latency_ms;
      const Clock::time_point stop = After(seconds / static_cast<double>(n));
      // Every kind at 4 workers each round, and at 1 worker every other
      // round: the 4-worker jobs carry the latency percentiles.
      for (size_t round = 0; round == 0 || Clock::now() < stop; ++round) {
        for (int kind = 0; kind < kKinds; ++kind) {
          for (const size_t workers : {kWorkers, size_t{1}}) {
            if (workers == 1 && round % 2 == 1) continue;
            std::optional<CpuPin> pin;
            if (workers == 1) pin.emplace(serial_jobs++);
            Job job = Run(kind, workers);
            pin.reset();
            op_seconds += job.seconds;
            if (workers == kWorkers) {
              seqs_4w += job.sequences;
              seconds_4w += job.seconds;
              latency_ms.push_back(job.seconds * 1e3);
            } else {
              seqs_1w += job.sequences;
              seconds_1w += job.seconds;
            }
            const auto [it, inserted] = first_losses.emplace(kind, job.losses);
            report->Op(inserted || it->second == job.losses);
            last[{kind, workers}] = std::move(job);
          }
        }
      }
      slices.rate.push_back(seqs_4w / seconds_4w);
      slices.rate_1w.push_back(seqs_1w / seconds_1w);
      slices.AddLatency(latency_ms, 0.90);
    }
    // The 2-worker run exists only for the bit-identity check: losses
    // and parameter bytes must match at 1, 2 and 4 workers.
    for (int kind = 0; kind < kKinds; ++kind) {
      const Job two = Run(kind, 2);
      op_seconds += two.seconds;
      const std::string bytes2 = Bytes(*two.model, "2w");
      report->Check(two.losses == first_losses[kind] &&
                        bytes2 == Bytes(*last[{kind, 1}].model, "1w") &&
                        bytes2 == Bytes(*last[{kind, kWorkers}].model, "4w"),
                    std::string(kKindNames[kind]) +
                        " losses and parameters identical at 1, 2 and 4 workers");
    }
    slices.Report(90, report);
    report->Line("train_seq_per_s", Median(slices.rate), "1/s");
    report->Line("train_seq_per_s_1w", Median(slices.rate_1w), "1/s");
    return {Median(slices.rate), op_seconds};
  }

 private:
  static constexpr int kKinds = 3;
  static constexpr const char* kKindNames[kKinds] = {"lstm", "roberta_ft",
                                                      "roberta_mlm"};

  /// Fine-tune and MLM losses of one job.
  using Losses = std::pair<std::vector<double>, std::vector<double>>;

  struct Job {
    std::unique_ptr<sut::Model> model;
    Losses losses;
    double sequences = 0.0;
    double seconds = 0.0;
  };

  /// One job of `kind`: lstm fine-tune, roberta fine-tune (the registry's
  /// fine-tune-only transformer), or roberta MLM steps plus one fine-tune
  /// step (the MLM set is the fine-tune set without its labels).
  Job Run(int kind, size_t workers) const {
    Job job;
    const Clock::time_point start = Clock::now();
    if (kind == 0) {
      job.model = sut::FitModel("lstm", lstm_set_.View(*pipeline_), workers);
      job.sequences = static_cast<double>(lstm_set_.x.size());
    } else if (kind == 1) {
      job.model = sut::FitModel("transformer", transformer_set_.View(*pipeline_), workers);
      job.sequences = static_cast<double>(transformer_set_.x.size());
    } else {
      const sut::ModelDataset pretrain = transformer_set_.View(*pipeline_);
      job.model = sut::FitModel("roberta", one_step_set_.View(*pipeline_), workers, &pretrain);
      job.sequences = static_cast<double>(transformer_set_.x.size() + one_step_set_.x.size());
    }
    job.seconds = SecondsBetween(start, Clock::now());
    job.losses.first = job.model->history()->train_loss;
    if (const auto* mlm = job.model->pretrain_loss()) job.losses.second = *mlm;
    return job;
  }

  std::string Bytes(const sut::Model& model, const std::string& tag) const {
    return sut::ParameterBytes(model, workdir_ + "/params-" + tag + ".ckpt");
  }

  std::string workdir_;
  Subset lstm_set_, transformer_set_, one_step_set_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "serve_raw") return std::make_unique<ServeRaw>();
  if (name == "batch_predict") return std::make_unique<BatchPredict>();
  if (name == "featurize_corpus") return std::make_unique<FeaturizeCorpus>();
  if (name == "train_table4") return std::make_unique<TrainTable4>();
  return nullptr;
}

}  // namespace ledger

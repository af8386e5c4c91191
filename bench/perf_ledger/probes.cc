// The per-layer probes of a traced run. Each probe drives one layer
// through its public calls on the workload's own corpus and requests, so
// the same metrics exist on every workload and differ only through the
// inputs (recipe shapes, event noise, corpus size).

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "util/rng.h"
#include "workloads.h"

namespace ledger {

namespace {

constexpr size_t kWorkers = 4;

/// Median seconds per call of `fn` over calls made for at least
/// `window` seconds (and at least three), after one warm-up call.
double SecondsPerCall(const std::function<void()>& fn, double window) {
  fn();
  std::vector<double> samples;
  const Clock::time_point stop = After(window);
  while (samples.size() < 3 || Clock::now() < stop) {
    const Clock::time_point start = Clock::now();
    fn();
    samples.push_back(SecondsBetween(start, Clock::now()));
  }
  return Median(samples);
}

std::vector<sut::EncodedSequence> Head(const std::vector<sut::EncodedSequence>& x,
                                       size_t n) {
  return {x.begin(), x.begin() + static_cast<ptrdiff_t>(std::min(n, x.size()))};
}

double PadRatio(const sut::Pipeline& p) {
  double pad = 0.0, frame = 0.0;
  for (const auto* frames : {&p.plain_train, &p.plain_test, &p.cls_train, &p.cls_test}) {
    for (const sut::EncodedSequence& s : *frames) {
      pad += static_cast<double>(s.ids.size() - static_cast<size_t>(s.length));
      frame += static_cast<double>(s.ids.size());
    }
  }
  return pad / frame;
}

/// Probe settings: full size or smoke.
struct Sizes {
  double window;       // seconds per timed measurement
  size_t requests;     // requests through the request path
  size_t held_out;     // sequences per engine call
  size_t replay;       // sequences per layer replay pass
  size_t train_steps;  // optimizer steps of every probe fit
  double serve_seconds;
};

Sizes SizesFor(bool smoke) {
  if (smoke) return {0.01, 64, 32, 16, 2, 0.2};
  return {0.25, 1024, 256, 128, 16, 1.0};
}

struct ProbeModels {
  std::unique_ptr<sut::Model> logreg;
  std::unique_ptr<sut::Model> lstm, gru, transformer;
};

void ProbeText(const ProbeInputs& in, const Sizes& sizes, const sut::Pipeline& p,
               const std::vector<sut::StageSeconds>& stages, Report* report) {
  const auto& recipes = *in.recipes;
  const double tokenize_4w =
      SecondsPerCall([&] { sut::Tokenize(recipes, kWorkers); }, sizes.window);
  const double tokenize_1w =
      SecondsPerCall([&] { sut::Tokenize(recipes, 1); }, sizes.window);
  const auto stage_ms = [&](double sut::StageSeconds::*field) {
    std::vector<double> v;
    for (const sut::StageSeconds& s : stages) v.push_back(s.*field * 1e3);
    return Median(v);
  };

  const auto& requests = *in.requests;
  const size_t n = std::min(sizes.requests, requests.size());
  sut::RequestFeaturizer featurizer(p);
  sut::RequestRows rows;
  for (size_t i = 0; i < std::min<size_t>(16, n); ++i) {
    featurizer.Featurize(requests[i].events, &rows);  // warm the buffers
  }
  sut::RequestSeconds request_seconds;
  for (size_t i = 0; i < n; ++i) {
    featurizer.Featurize(requests[i].events, &rows, &request_seconds);
  }
  sut::EventMemo memo;
  for (const RawRequest& request : requests) memo.Process(request.events);
  const double per_request_us = 1e6 / static_cast<double>(n);

  report->Metric("text.preprocess_us_per_recipe", request_seconds.text * per_request_us, "us");
  report->Metric("text.tokenize_s_1w", tokenize_1w, "s");
  report->Metric("text.tokenize_s_4w", tokenize_4w, "s");
  report->Metric("text.memo_hit_ratio",
                 1.0 - static_cast<double>(memo.misses()) /
                           static_cast<double>(memo.events()),
                 "ratio");
  report->Metric("text.tokens_per_recipe",
                 static_cast<double>(p.corpus.num_tokens()) /
                     static_cast<double>(recipes.size()),
                 "count");
  report->Metric("features.vocab_build_ms", stage_ms(&sut::StageSeconds::vocab), "ms");
  report->Metric("features.tfidf_fit_ms", stage_ms(&sut::StageSeconds::tfidf_fit), "ms");
  report->Metric("features.tfidf_transform_ms",
                 stage_ms(&sut::StageSeconds::tfidf_transform), "ms");
  report->Metric("features.encode_ms", stage_ms(&sut::StageSeconds::encode), "ms");
  report->Metric("features.encode_us_per_request", request_seconds.encode * per_request_us, "us");
  report->Metric("features.tfidf_us_per_request", request_seconds.tfidf * per_request_us, "us");
  report->Metric("features.pad_ratio", PadRatio(p), "ratio");
}

void ProbeEngine(const Sizes& sizes, const sut::Pipeline& p, const ProbeModels& m,
                 Report* report) {
  const sut::Predictions logreg_reference =
      sut::Predict(*m.logreg, {.tfidf = &p.tfidf_test}, 1);
  const double logreg_call = SecondsPerCall(
      [&] {
        report->Op(sut::Predict(*m.logreg, {.tfidf = &p.tfidf_test}, kWorkers).labels ==
                   logreg_reference.labels);
      },
      sizes.window);
  report->Metric("ml.logreg.predict_rows_per_s",
                 static_cast<double>(p.tfidf_test.rows()) / logreg_call, "1/s");

  const std::pair<const char*, const sut::Model*> archs[] = {
      {"lstm", m.lstm.get()}, {"gru", m.gru.get()}, {"transformer", m.transformer.get()}};
  for (const auto& [name, model] : archs) {
    const bool cls = std::string(name) == "transformer";
    const auto held = Head(cls ? p.cls_test : p.plain_test, sizes.held_out);
    const double n = static_cast<double>(held.size());
    const std::string prefix = std::string("engine.") + name;
    for (const bool int8 : {false, true}) {
      double rate[2] = {0.0, 0.0};
      for (const size_t w : {size_t{1}, kWorkers}) {
        const double call = SecondsPerCall(
            [&] {
              if (int8) {
                sut::PredictInt8(*model, held, w);
              } else {
                sut::Predict(*model, {.sequences = &held}, w);
              }
            },
            sizes.window);
        rate[w == 1 ? 0 : 1] = n / call;
      }
      const std::string precision = int8 ? ".int8" : ".fp32";
      report->Metric(prefix + precision + ".seq_per_s_1w", rate[0], "1/s");
      report->Metric(prefix + precision + ".seq_per_s_4w", rate[1], "1/s");
      report->Metric(prefix + precision + ".scaling_4w", rate[1] / rate[0], "ratio");
    }
    // Counters credit every fp32 GEMM call at its entry point.
    const uint64_t flops = sut::GemmFlops();
    const uint64_t calls = sut::GemmCalls();
    sut::Predict(*model, {.sequences = &held}, 1);
    report->Metric("linalg." + std::string(name) + ".gemm_flops_per_seq",
                   static_cast<double>(sut::GemmFlops() - flops) / n, "FLOP");
    report->Metric("linalg." + std::string(name) + ".gemm_calls_per_seq",
                   static_cast<double>(sut::GemmCalls() - calls) / n, "count");
  }
}

void ProbeService(const ProbeInputs& in, const Sizes& sizes, const RunConfig& config,
                  const sut::Pipeline& p, const ProbeModels& m, Report* report) {
  ServeSession session(p, *m.transformer, *m.logreg, *in.requests);
  const ServeSession::Stats warm = session.ClosedLoop(1, 0.1 * sizes.serve_seconds);
  report->Ops(warm.sent, warm.failed);
  const ServeSession::Stats open =
      session.OpenLoop(kNominalRate, sizes.serve_seconds, config.seed);
  report->Ops(open.sent, open.failed);
  report->Metric("service.call_ms_p50", Quantile(open.call_ms, 0.50), "ms");
  report->Metric("service.call_ms_p99", Quantile(open.call_ms, 0.99), "ms");
  report->Metric("service.direct_ms_p50",
                 Median(session.DirectMs(std::min<size_t>(open.sent, sizes.requests))), "ms");
  report->Metric("service.primary_ratio",
                 static_cast<double>(open.primary) / static_cast<double>(open.sent),
                 "ratio");
  report->Metric("service.gen_lag_ms_p99", Quantile(open.gen_lag_ms, 0.99), "ms");
}

/// Per-sequence microseconds of each layer group, the median over passes.
struct PerSequence {
  std::vector<sut::TransformerParts> transformer;
  std::vector<sut::RecurrentParts> lstm, gru;
  std::vector<double> transformer_forward, lstm_forward, gru_forward;
};

void ProbeNn(const Sizes& sizes, const sut::Pipeline& p, Report* report,
             sut::TrainSeconds* lstm_train, sut::TrainSeconds* transformer_train) {
  const sut::Nets nets = sut::BuildNets(p.vocab->size());
  const auto cls = Head(p.cls_test, sizes.replay);
  const auto plain = Head(p.plain_test, sizes.replay);
  const double us = 1e6 / static_cast<double>(cls.size());
  PerSequence runs;
  for (int pass = 0; pass < 5; ++pass) {
    sut::TransformerParts t;
    sut::RecurrentParts l, g;
    double tf = 0.0, lf = 0.0, gf = 0.0;
    for (size_t i = 0; i < cls.size(); ++i) {
      sut::ReplayTransformer(*nets.transformer, cls[i], &t);
      tf += sut::ForwardSeconds(*nets.transformer, cls[i]);
      sut::ReplayLstm(*nets.lstm, plain[i], &l);
      lf += sut::ForwardSeconds(*nets.lstm, plain[i]);
      sut::ReplayGru(*nets.gru, plain[i], &g);
      gf += sut::ForwardSeconds(*nets.gru, plain[i]);
    }
    runs.transformer.push_back(t);
    runs.lstm.push_back(l);
    runs.gru.push_back(g);
    runs.transformer_forward.push_back(tf);
    runs.lstm_forward.push_back(lf);
    runs.gru_forward.push_back(gf);
  }
  const auto med = [&](const auto& passes, auto field) {
    std::vector<double> v;
    for (const auto& part : passes) v.push_back(field(part) * us);
    return Median(v);
  };
  using T = sut::TransformerParts;
  const double t_embedding = med(runs.transformer, [](const T& t) { return t.embedding; });
  const double t_proj = med(runs.transformer, [](const T& t) { return t.attn_proj; });
  const double t_attn = med(runs.transformer, [](const T& t) { return t.attn; });
  const double t_ffn = med(runs.transformer, [](const T& t) { return t.ffn; });
  const double t_norm = med(runs.transformer, [](const T& t) { return t.layernorm; });
  const double t_head = med(runs.transformer, [](const T& t) { return t.pooler_head; });
  const double t_forward = Median(runs.transformer_forward) * us;
  report->Metric("nn.transformer.embedding_us", t_embedding, "us");
  report->Metric("nn.transformer.attn_proj_us", t_proj, "us");
  report->Metric("nn.transformer.attn_scores_us", t_attn - t_proj, "us");
  report->Metric("nn.transformer.ffn_us", t_ffn, "us");
  report->Metric("nn.transformer.layernorm_us", t_norm, "us");
  report->Metric("nn.transformer.pooler_head_us", t_head, "us");
  report->Metric("nn.transformer.forward_us", t_forward, "us");
  report->Metric("nn.transformer.coverage",
                 (t_embedding + t_attn + t_ffn + t_norm + t_head) / t_forward, "ratio");
  using R = sut::RecurrentParts;
  for (const auto& [name, parts, forward] :
       {std::tuple{"lstm", &runs.lstm, &runs.lstm_forward},
        std::tuple{"gru", &runs.gru, &runs.gru_forward}}) {
    const double embedding = med(*parts, [](const R& r) { return r.embedding; });
    const double gate = med(*parts, [](const R& r) { return r.gate_step; });
    const double head = med(*parts, [](const R& r) { return r.head; });
    const double whole = Median(*forward) * us;
    const std::string prefix = std::string("nn.") + name;
    report->Metric(prefix + ".embedding_us", embedding, "us");
    report->Metric(prefix + ".gate_step_us", gate, "us");
    report->Metric(prefix + ".head_us", head, "us");
    report->Metric(prefix + ".forward_us", whole, "us");
    report->Metric(prefix + ".coverage", (embedding + gate + head) / whole, "ratio");
  }

  // Training: forward + loss, backward, and the AdamW step.
  const auto cls_train = Head(p.cls_train, sizes.replay / 2);
  const auto plain_train = Head(p.plain_train, sizes.replay / 2);
  const auto& labels = p.train.labels();
  std::vector<double> tf_fwd, tf_bwd, l_fwd, l_bwd;
  for (int pass = 0; pass < 3; ++pass) {
    sut::TrainSeconds t, l;
    for (size_t i = 0; i < cls_train.size(); ++i) {
      const sut::TrainSeconds a = sut::TrainExample(*nets.transformer, cls_train[i], labels[i]);
      const sut::TrainSeconds b = sut::TrainExample(*nets.lstm, plain_train[i], labels[i]);
      t.forward += a.forward;
      t.backward += a.backward;
      l.forward += b.forward;
      l.backward += b.backward;
    }
    const double n = static_cast<double>(cls_train.size());
    tf_fwd.push_back(t.forward / n);
    tf_bwd.push_back(t.backward / n);
    l_fwd.push_back(l.forward / n);
    l_bwd.push_back(l.backward / n);
  }
  *transformer_train = {Median(tf_fwd), Median(tf_bwd)};
  *lstm_train = {Median(l_fwd), Median(l_bwd)};
  report->Metric("nn.transformer.train_fwd_us", transformer_train->forward * 1e6, "us");
  report->Metric("nn.transformer.train_bwd_us", transformer_train->backward * 1e6, "us");
  report->Metric("nn.lstm.train_fwd_us", lstm_train->forward * 1e6, "us");
  report->Metric("nn.lstm.train_bwd_us", lstm_train->backward * 1e6, "us");
  for (const auto& [name, module] :
       {std::pair<const char*, const cuisine::nn::Module*>{"transformer", nets.transformer.get()},
        std::pair<const char*, const cuisine::nn::Module*>{"lstm", nets.lstm.get()}}) {
    const auto adam = sut::MakeAdamW(*module);
    std::vector<double> steps;
    for (int i = 0; i < 21; ++i) steps.push_back(sut::StepAdamW(adam.get()));
    report->Metric(std::string("nn.") + name + ".adamw_step_us", Median(steps) * 1e6, "us");
  }
}

void ProbeTrainer(const Sizes& sizes, const sut::Pipeline& p,
                  const sut::TrainSeconds& lstm_train,
                  const sut::TrainSeconds& transformer_train, Report* report) {
  const auto& labels = p.train.labels();
  const size_t n = sizes.train_steps * sut::kBatchSize;
  const std::vector<int32_t> y(labels.begin(), labels.begin() + static_cast<ptrdiff_t>(n));
  const auto plain = Head(p.plain_train, n);
  const auto cls = Head(p.cls_train, n);
  const auto one_step = Head(p.cls_train, sut::kBatchSize);
  const std::vector<int32_t> one_step_y(labels.begin(), labels.begin() + sut::kBatchSize);
  const sut::ModelDataset lstm_set{.sequences = &plain, .labels = &y, .vocab = p.vocab.get()};
  const sut::ModelDataset ft_set{.sequences = &cls, .labels = &y, .vocab = p.vocab.get()};
  const sut::ModelDataset mlm_ft_set{.sequences = &one_step, .labels = &one_step_y,
                                     .vocab = p.vocab.get()};
  const sut::ModelDataset mlm_set{.sequences = &cls, .vocab = p.vocab.get()};
  const double steps = static_cast<double>(sizes.train_steps);

  std::map<std::string, double> step_ms[2];  // [1w, 4w]
  for (const size_t w : {size_t{1}, kWorkers}) {
    auto& out = step_ms[w == 1 ? 0 : 1];
    const auto job_seconds = [&](const std::function<void()>& fit) {
      std::vector<double> v;
      for (int i = 0; i < 3; ++i) {
        const Clock::time_point start = Clock::now();
        fit();
        v.push_back(SecondsBetween(start, Clock::now()));
      }
      return Median(v);
    };
    out["lstm"] = job_seconds([&] { sut::FitModel("lstm", lstm_set, w); }) / steps * 1e3;
    out["roberta_ft"] =
        job_seconds([&] { sut::FitModel("transformer", ft_set, w); }) / steps * 1e3;
    const double mlm_job =
        job_seconds([&] { sut::FitModel("roberta", mlm_ft_set, w, &mlm_set); }) * 1e3;
    out["roberta_mlm"] = (mlm_job - out["roberta_ft"]) / steps;
  }
  for (const char* name : {"lstm", "roberta_ft", "roberta_mlm"}) {
    const std::string prefix = std::string("trainer.") + name;
    report->Metric(prefix + ".step_ms_1w", step_ms[0][name], "ms");
    report->Metric(prefix + ".step_ms_4w", step_ms[1][name], "ms");
    report->Metric(prefix + ".scaling_4w", step_ms[0][name] / step_ms[1][name], "ratio");
  }
  // The part of a 4-worker step that is not per-example compute:
  // gradient copies, parameter re-copy and the optimizer.
  const auto sync_share = [&](const sut::TrainSeconds& per_example, const char* name) {
    const double compute_ms = sut::kBatchSize *
                              (per_example.forward + per_example.backward) * 1e3 /
                              static_cast<double>(kWorkers);
    return 1.0 - compute_ms / step_ms[1][name];
  };
  report->Metric("trainer.lstm.sync_share_4w", sync_share(lstm_train, "lstm"), "ratio");
  report->Metric("trainer.roberta_ft.sync_share_4w",
                 sync_share(transformer_train, "roberta_ft"), "ratio");
}

void ProbeLinalg(const Sizes& sizes, const sut::Pipeline& p, Report* report) {
  cuisine::util::Rng rng(7);
  const auto random = [&](size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = rng.NextFloat() * 2.0f - 1.0f;
    return v;
  };
  {
    constexpr size_t kPeak = 512;
    const auto a = random(kPeak * kPeak);
    const auto b = random(kPeak * kPeak);
    std::vector<float> c(kPeak * kPeak);
    const double call = SecondsPerCall(
        [&] { sut::Gemm(kPeak, kPeak, kPeak, a.data(), b.data(), c.data()); }, sizes.window);
    report->Metric("linalg.peak_gflops_1core", 2.0 * kPeak * kPeak * kPeak / call * 1e-9,
                   "GFLOP/s");
  }
  double length = 0.0;
  for (const sut::EncodedSequence& s : p.cls_test) length += s.length;
  const auto rows = static_cast<size_t>(
      std::max(1.0, std::round(length / static_cast<double>(p.cls_test.size()))));
  struct Shape {
    const char* name;
    size_t m, k, n;
  };
  const Shape shapes[] = {
      {"attn_proj", rows, 64, 64}, {"ffn_in", rows, 64, 128}, {"lstm_gate", 1, 64, 256}};
  for (const Shape& s : shapes) {
    const auto a = random(s.m * s.k);
    const auto b = random(s.k * s.n);
    std::vector<float> c(s.m * s.n);
    const sut::Int8Problem q = sut::PrepareInt8(s.m, s.k, s.n, a.data(), b.data());
    // Small products take well under a microsecond: time them in batches.
    constexpr int kBatch = 256;
    const double fp32 = SecondsPerCall(
        [&] {
          for (int i = 0; i < kBatch; ++i) sut::Gemm(s.m, s.k, s.n, a.data(), b.data(), c.data());
        },
        sizes.window) / kBatch;
    const double int8 = SecondsPerCall(
        [&] {
          for (int i = 0; i < kBatch; ++i) sut::GemmInt8(q, c.data());
        },
        sizes.window) / kBatch;
    const double ops = 2.0 * static_cast<double>(s.m * s.k * s.n) * 1e-9;
    report->Metric(std::string("linalg.gemm_fp32_gflops.") + s.name, ops / fp32, "GFLOP/s");
    report->Metric(std::string("linalg.gemm_int8_gops.") + s.name, ops / int8, "GOP/s");
  }
}

}  // namespace

void RunLayerProbes(const ProbeInputs& in, const RunConfig& config, Report* report) {
  const Sizes sizes = SizesFor(config.smoke);
  report->Metric("data.generate_s", in.generate_seconds, "s");

  std::vector<sut::StageSeconds> stages(3);
  std::unique_ptr<sut::Pipeline> p;
  for (sut::StageSeconds& s : stages) {
    p = sut::RunPipeline(*in.recipes, in.split_seed, kWorkers, &s);
  }
  ProbeText(in, sizes, *p, stages, report);

  ProbeModels models;
  models.logreg = sut::FitModel(
      "logreg", {.tfidf = &p->tfidf_train, .labels = &p->train.labels()}, kWorkers);
  const auto& labels = p->train.labels();
  const size_t n = sizes.train_steps * sut::kBatchSize;
  const std::vector<int32_t> y(labels.begin(), labels.begin() + static_cast<ptrdiff_t>(n));
  const auto plain = Head(p->plain_train, n);
  const auto cls = Head(p->cls_train, n);
  const sut::ModelDataset plain_set{.sequences = &plain, .labels = &y, .vocab = p->vocab.get()};
  const sut::ModelDataset cls_set{.sequences = &cls, .labels = &y, .vocab = p->vocab.get()};
  models.lstm = sut::FitModel("lstm", plain_set, kWorkers);
  models.gru = sut::FitModel("gru", plain_set, kWorkers);
  models.transformer = sut::FitModel("transformer", cls_set, kWorkers);
  sut::AttachInt8(models.lstm.get(), plain);
  sut::AttachInt8(models.gru.get(), plain);
  sut::AttachInt8(models.transformer.get(), cls);

  ProbeEngine(sizes, *p, models, report);
  ProbeService(in, sizes, config, *p, models, report);
  sut::TrainSeconds lstm_train, transformer_train;
  ProbeNn(sizes, *p, report, &lstm_train, &transformer_train);
  ProbeTrainer(sizes, *p, lstm_train, transformer_train, report);
  ProbeLinalg(sizes, *p, report);
}

}  // namespace ledger

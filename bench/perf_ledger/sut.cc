#include "sut.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>

#include "core/instrumentation.h"
#include "core/trainer.h"
#include "data/generator.h"
#include "data/splitter.h"
#include "linalg/kernels.h"

namespace ledger::sut {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point* mark) {
  const Clock::time_point now = Clock::now();
  const double seconds = std::chrono::duration<double>(now - *mark).count();
  *mark = now;
  return seconds;
}

void ThrowIfError(const cuisine::util::Status& status, const std::string& what) {
  if (!status.ok()) throw std::runtime_error(what + ": " + status.ToString());
}

cuisine::features::SequenceEncoder PlainEncoder(
    const cuisine::text::Vocabulary* vocab) {
  return cuisine::features::SequenceEncoder(
      vocab, {.max_length = kPlainFrame, .add_cls_sep = false});
}

cuisine::features::SequenceEncoder ClsEncoder(
    const cuisine::text::Vocabulary* vocab) {
  return cuisine::features::SequenceEncoder(
      vocab, {.max_length = kClsFrame, .add_cls_sep = true});
}

/// The Table IV model settings: d_model 64, 2 layers, 4 heads, d_ff 128,
/// LSTM/GRU 2x64, every recipe one epoch of 16-sequence steps.
cuisine::core::ModelContext TableIvContext() {
  cuisine::core::ModelContext context;
  context.num_classes = kNumClasses;
  auto& seq = context.sequential;
  seq.max_sequence_length = kTransformerTokens;
  seq.lstm_sequence_length = kPlainFrame;
  seq.transformer.d_model = 64;
  seq.transformer.num_heads = 4;
  seq.transformer.num_layers = 2;
  seq.transformer.d_ff = 128;
  seq.lstm.embedding_dim = 64;
  seq.lstm.hidden_size = 64;
  seq.lstm.num_layers = 2;
  seq.gru.embedding_dim = 64;
  seq.gru.hidden_size = 64;
  seq.gru.num_layers = 2;
  for (auto* recipe : {&seq.lstm_train, &seq.bert_finetune, &seq.roberta_finetune}) {
    recipe->epochs = 1;
    recipe->batch_size = kBatchSize;
  }
  seq.roberta_pretrain.epochs = 1;
  seq.roberta_pretrain.batch_size = kBatchSize;
  return context;
}

}  // namespace

std::vector<Recipe> GenerateCorpus(uint64_t seed, double scale, bool wide) {
  CUISINE_TRACE_SPAN("data.Generate");
  cuisine::data::GeneratorOptions options;
  options.seed = seed;
  options.scale = scale;
  if (wide) {
    options.min_ingredients = 0;
    options.max_ingredients = 20;
    options.min_processes = 1;
    options.max_processes = 28;
    options.min_utensils = 0;
    options.max_utensils = 6;
  }
  return cuisine::data::RecipeDbGenerator(options).Generate();
}

cuisine::core::TokenizedCorpus Tokenize(const std::vector<Recipe>& recipes,
                                        size_t workers) {
  CUISINE_TRACE_SPAN("text.TokenizeCorpus");
  const cuisine::text::Tokenizer tokenizer;
  return cuisine::core::TokenizeCorpus(recipes, tokenizer,
                                       {.num_workers = workers});
}

std::unique_ptr<Pipeline> RunPipeline(const std::vector<Recipe>& recipes,
                                      uint64_t split_seed, size_t workers,
                                      StageSeconds* seconds) {
  StageSeconds local;
  StageSeconds& s = seconds != nullptr ? *seconds : local;
  auto p = std::make_unique<Pipeline>();
  Clock::time_point mark = Clock::now();
  p->corpus = Tokenize(recipes, workers);
  s.tokenize = Since(&mark);

  auto split = cuisine::data::StratifiedSplit(recipes, {}, split_seed);
  ThrowIfError(split.status(), "split");
  p->train = cuisine::core::GatherCorpus(p->corpus, split->train);
  p->test = cuisine::core::GatherCorpus(p->corpus, split->test);
  mark = Clock::now();
  {
    CUISINE_TRACE_SPAN("features.BuildSequenceVocabulary");
    const cuisine::core::SequentialModelOptions defaults;
    p->vocab = std::make_unique<cuisine::text::Vocabulary>(
        cuisine::core::BuildSequenceVocabulary(
            p->train, defaults.vocab_min_frequency, defaults.vocab_max_size));
  }
  s.vocab = Since(&mark);
  {
    CUISINE_TRACE_SPAN("features.TfidfFit");
    p->tfidf = std::make_unique<cuisine::features::TfidfVectorizer>();
    ThrowIfError(p->tfidf->Fit(p->train), "tfidf fit");
  }
  s.tfidf_fit = Since(&mark);
  {
    CUISINE_TRACE_SPAN("features.TfidfTransformAll");
    p->tfidf_train = p->tfidf->TransformAll(p->train);
    p->tfidf_test = p->tfidf->TransformAll(p->test);
  }
  s.tfidf_transform = Since(&mark);
  {
    CUISINE_TRACE_SPAN("features.EncodeAll");
    const auto plain = PlainEncoder(p->vocab.get());
    const auto cls = ClsEncoder(p->vocab.get());
    p->plain_train = plain.EncodeAll(p->train);
    p->plain_test = plain.EncodeAll(p->test);
    p->cls_train = cls.EncodeAll(p->train);
    p->cls_test = cls.EncodeAll(p->test);
  }
  s.encode = Since(&mark);
  return p;
}

RequestFeaturizer::RequestFeaturizer(const Pipeline& pipeline)
    : pipeline_(pipeline),
      encoder_(ClsEncoder(pipeline.vocab.get())),
      remap_(encoder_.BuildRemap(pipeline.corpus.table)),
      preprocessor_(cuisine::text::TokenizerOptions{}, kMemoCapacity) {}

void RequestFeaturizer::Featurize(const std::vector<std::string>& events,
                                  RequestRows* out, RequestSeconds* seconds) {
  Clock::time_point mark = Clock::now();
  {
    CUISINE_TRACE_SPAN("text.ProcessEvent");
    local_ids_.clear();
    for (const std::string& event : events) {
      preprocessor_.ProcessEvent(event, &table_, &local_ids_);
    }
  }
  {
    // Tokens absent from the fitted table come back as -1, which the
    // encoder maps to [UNK] and the vectorizer drops.
    CUISINE_TRACE_SPAN("text.Find");
    fitted_ids_.clear();
    for (const int32_t id : local_ids_) {
      fitted_ids_.push_back(pipeline_.corpus.table.Find(table_.View(id)));
    }
  }
  const double text = Since(&mark);
  {
    CUISINE_TRACE_SPAN("features.EncodeIds");
    out->sequences.assign(1, encoder_.EncodeIds(fitted_ids_, remap_));
  }
  const double encode = Since(&mark);
  {
    CUISINE_TRACE_SPAN("features.TfidfTransform");
    out->tfidf = CsrMatrix(pipeline_.tfidf->num_features());
    out->tfidf.AppendRow(pipeline_.tfidf->Transform(fitted_ids_));
  }
  if (seconds != nullptr) {
    seconds->text += text;
    seconds->encode += encode;
    seconds->tfidf += Since(&mark);
  }
}

void EventMemo::Process(const std::vector<std::string>& events) {
  CUISINE_TRACE_SPAN("text.ProcessEvent");
  for (const std::string& event : events) {
    preprocessor_.ProcessEvent(event, &table_, &ids_);
  }
  events_ += events.size();
  ids_.clear();
}

std::unique_ptr<Model> FitModel(const std::string& key,
                                const ModelDataset& train, size_t workers,
                                const ModelDataset* pretrain) {
  auto created =
      cuisine::core::ModelRegistry::Instance().Create(key, TableIvContext());
  ThrowIfError(created.status(), "create " + key);
  std::unique_ptr<Model> model = std::move(created).MoveValueUnsafe();
  cuisine::core::FitOptions options;
  options.num_classes = kNumClasses;
  options.num_workers = workers;
  options.pretrain = pretrain;
  if (model->input() == cuisine::core::ModelInput::kTfidf) {
    CUISINE_TRACE_SPAN("ml.Fit");
    ThrowIfError(model->Fit(train, options), "fit " + key);
  } else {
    CUISINE_TRACE_SPAN("core.trainer.Fit");
    ThrowIfError(model->Fit(train, options), "fit " + key);
  }
  return model;
}

std::string ParameterBytes(const Model& model, const std::string& path) {
  ThrowIfError(model.Save(path), "save " + model.name());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

Predictions Predict(const Model& model, const ModelDataset& inputs,
                    size_t workers) {
  if (model.input() == cuisine::core::ModelInput::kTfidf) {
    CUISINE_TRACE_SPAN("ml.PredictBatch");
    return model.PredictBatch(inputs, workers);
  }
  CUISINE_TRACE_SPAN("core.engine.PredictBatch");
  return model.PredictBatch(inputs, workers);
}

void AttachInt8(Model* model, const std::vector<EncodedSequence>& calibration) {
  CUISINE_TRACE_SPAN("core.engine.AttachQuantized");
  const ModelDataset data{.sequences = &calibration};
  ThrowIfError(model->AttachQuantized(data), "quantize " + model->name());
}

Predictions PredictInt8(const Model& model,
                        const std::vector<EncodedSequence>& inputs,
                        size_t workers) {
  CUISINE_TRACE_SPAN("core.engine.PredictQuantized");
  if (model.Quantized() == nullptr) {
    throw std::runtime_error(model.name() + " has no int8 path attached");
  }
  return cuisine::core::PredictQuantized(*model.Quantized(), inputs,
                                         {.num_workers = workers});
}

std::unique_ptr<InferenceService> MakeService(const Model& primary,
                                              const Model& fallback) {
  cuisine::core::ServiceOptions options;
  options.max_concurrent = 2;
  options.queue_capacity = 8;
  options.num_workers = 1;
  return std::make_unique<InferenceService>(
      std::vector<cuisine::core::ServiceTier>{{primary.name(), &primary},
                                              {fallback.name(), &fallback}},
      options);
}

InferenceResponse Serve(InferenceService* service, const ModelDataset& request) {
  CUISINE_TRACE_SPAN("core.service.Predict");
  return service->Predict(request);
}

Nets BuildNets(size_t vocab_size) {
  const cuisine::core::ModelContext context = TableIvContext();
  cuisine::nn::TransformerConfig transformer = context.sequential.transformer;
  transformer.vocab_size = static_cast<int64_t>(vocab_size);
  transformer.max_length = kClsFrame;
  cuisine::nn::LstmConfig lstm = context.sequential.lstm;
  lstm.vocab_size = static_cast<int64_t>(vocab_size);
  cuisine::nn::GruConfig gru = context.sequential.gru;
  gru.vocab_size = static_cast<int64_t>(vocab_size);
  Nets nets;
  nets.transformer = std::make_unique<cuisine::nn::TransformerClassifier>(
      transformer, kNumClasses);
  nets.lstm = std::make_unique<cuisine::nn::LstmClassifier>(lstm, kNumClasses);
  nets.gru = std::make_unique<cuisine::nn::GruClassifier>(gru, kNumClasses);
  return nets;
}

void ReplayTransformer(const cuisine::nn::TransformerClassifier& net,
                       const EncodedSequence& seq, TransformerParts* parts) {
  using namespace cuisine::nn;
  CUISINE_TRACE_SPAN("nn.ReplayTransformer");
  const auto length = static_cast<size_t>(seq.length);
  static thread_local std::vector<int32_t> positions;
  if (positions.size() < length) {
    positions.resize(length);
    std::iota(positions.begin(), positions.end(), 0);
  }
  ArenaScope scope(ThreadLocalArena());
  cuisine::util::Rng rng(0);
  const TransformerEncoder& encoder = net.encoder();
  Clock::time_point mark = Clock::now();
  Tensor x = Add(encoder.token_embedding().Forward(
                     std::span<const int32_t>(seq.ids.data(), length)),
                 encoder.position_embedding().Forward(
                     std::span<const int32_t>(positions.data(), length)));
  parts->embedding += Since(&mark);
  x = encoder.embed_norm().Forward(x);
  parts->layernorm += Since(&mark);
  const Tensor mask_bias = Tensor::Zeros(1, static_cast<int64_t>(length));
  for (const auto& layer : encoder.layers()) {
    const MultiHeadSelfAttention& attention = layer->attention();
    mark = Clock::now();
    attention.query().Forward(x);
    attention.key().Forward(x);
    attention.value().Forward(x);
    attention.output().Forward(x);
    parts->attn_proj += Since(&mark);
    const Tensor attended = attention.Forward(x, mask_bias, false, &rng);
    parts->attn += Since(&mark);
    const Tensor h = layer->norm1().Forward(Add(x, attended));
    parts->layernorm += Since(&mark);
    const Tensor ff = layer->feed_forward().Forward(h);
    parts->ffn += Since(&mark);
    x = layer->norm2().Forward(Add(h, ff));
    parts->layernorm += Since(&mark);
  }
  const Tensor pooled = net.pooler().ForwardActivate(
      SliceRows(x, 0, 1), cuisine::linalg::Activation::kTanh);
  net.head().Forward(pooled);
  parts->pooler_head += Since(&mark);
}

namespace {

/// Shared replay of the recurrent classifiers: embedding, the stacked
/// cell steps over time, and the head on the top layer's final state.
template <typename Net, typename State, typename HiddenOf>
void ReplayRecurrent(const Net& net, const EncodedSequence& seq,
                     RecurrentParts* parts, HiddenOf hidden_of) {
  using namespace cuisine::nn;
  ArenaScope scope(ThreadLocalArena());
  const auto length = static_cast<size_t>(seq.length);
  Clock::time_point mark = Clock::now();
  const Tensor embedded = net.embedding().Forward(
      std::span<const int32_t>(seq.ids.data(), length));
  parts->embedding += Since(&mark);
  std::vector<State> states;
  states.reserve(net.cells().size());
  for (const auto& cell : net.cells()) states.push_back(cell->InitialState());
  for (size_t t = 0; t < length; ++t) {
    Tensor input = SliceRows(embedded, static_cast<int64_t>(t), 1);
    for (size_t l = 0; l < net.cells().size(); ++l) {
      states[l] = net.cells()[l]->Step(input, states[l]);
      input = hidden_of(states[l]);
    }
  }
  parts->gate_step += Since(&mark);
  net.head().Forward(hidden_of(states.back()));
  parts->head += Since(&mark);
}

template <typename Net>
double TimedForward(const Net& net, const EncodedSequence& seq) {
  cuisine::nn::ArenaScope scope(cuisine::nn::ThreadLocalArena());
  cuisine::util::Rng rng(0);
  Clock::time_point mark = Clock::now();
  net.ForwardLogits(seq, /*training=*/false, &rng);
  return Since(&mark);
}

template <typename Net>
TrainSeconds TimedTrainExample(const Net& net, const EncodedSequence& seq,
                               int32_t label) {
  for (cuisine::nn::Tensor& p : net.Parameters()) p.ZeroGrad();
  cuisine::nn::ArenaScope scope(cuisine::nn::ThreadLocalArena());
  cuisine::util::Rng rng(label);
  TrainSeconds seconds;
  Clock::time_point mark = Clock::now();
  cuisine::nn::Tensor loss = cuisine::nn::CrossEntropy(
      net.ForwardLogits(seq, /*training=*/true, &rng), {label});
  seconds.forward = Since(&mark);
  loss.Backward();
  seconds.backward = Since(&mark);
  return seconds;
}

}  // namespace

void ReplayLstm(const cuisine::nn::LstmClassifier& net,
                const EncodedSequence& seq, RecurrentParts* parts) {
  CUISINE_TRACE_SPAN("nn.ReplayLstm");
  ReplayRecurrent<cuisine::nn::LstmClassifier, cuisine::nn::LstmCell::State>(
      net, seq, parts,
      [](const cuisine::nn::LstmCell::State& s) { return s.h; });
}

void ReplayGru(const cuisine::nn::GruClassifier& net,
               const EncodedSequence& seq, RecurrentParts* parts) {
  CUISINE_TRACE_SPAN("nn.ReplayGru");
  ReplayRecurrent<cuisine::nn::GruClassifier, cuisine::nn::Tensor>(
      net, seq, parts, [](const cuisine::nn::Tensor& h) { return h; });
}

double ForwardSeconds(const cuisine::nn::TransformerClassifier& net,
                      const EncodedSequence& seq) {
  CUISINE_TRACE_SPAN("nn.ForwardLogits");
  return TimedForward(net, seq);
}

double ForwardSeconds(const cuisine::nn::LstmClassifier& net,
                      const EncodedSequence& seq) {
  CUISINE_TRACE_SPAN("nn.ForwardLogits");
  return TimedForward(net, seq);
}

double ForwardSeconds(const cuisine::nn::GruClassifier& net,
                      const EncodedSequence& seq) {
  CUISINE_TRACE_SPAN("nn.ForwardLogits");
  return TimedForward(net, seq);
}

TrainSeconds TrainExample(const cuisine::nn::TransformerClassifier& net,
                          const EncodedSequence& seq, int32_t label) {
  CUISINE_TRACE_SPAN("nn.TrainExample");
  return TimedTrainExample(net, seq, label);
}

TrainSeconds TrainExample(const cuisine::nn::LstmClassifier& net,
                          const EncodedSequence& seq, int32_t label) {
  CUISINE_TRACE_SPAN("nn.TrainExample");
  return TimedTrainExample(net, seq, label);
}

std::unique_ptr<cuisine::nn::Adam> MakeAdamW(const cuisine::nn::Module& net) {
  const cuisine::core::NeuralTrainOptions recipe =
      TableIvContext().sequential.roberta_finetune;
  return std::make_unique<cuisine::nn::Adam>(
      net.Parameters(), recipe.learning_rate, 0.9, 0.999, 1e-8,
      recipe.weight_decay);
}

double StepAdamW(cuisine::nn::Adam* adam) {
  CUISINE_TRACE_SPAN("nn.AdamStep");
  Clock::time_point mark = Clock::now();
  adam->Step();
  return Since(&mark);
}

void Gemm(size_t m, size_t k, size_t n, const float* a, const float* b,
          float* c) {
  cuisine::linalg::GemmKernel(m, k, n, a, b, c, /*accumulate=*/false);
}

Int8Problem PrepareInt8(size_t m, size_t k, size_t n, const float* a,
                        const float* b) {
  Int8Problem problem;
  problem.m = m;
  problem.k = k;
  problem.n = n;
  problem.a_scale = std::max(cuisine::linalg::AbsMax(a, m * k), 1e-6f) / 127.0f;
  problem.a.resize(m * k);
  cuisine::linalg::QuantizeInt8(a, m * k, problem.a_scale, problem.a.data());
  // Per-output-channel weight scales, as the int8 inference path uses.
  problem.col_scales.assign(n, 0.0f);
  for (size_t j = 0; j < n; ++j) {
    float absmax = 1e-6f;
    for (size_t p = 0; p < k; ++p) absmax = std::max(absmax, std::fabs(b[p * n + j]));
    problem.col_scales[j] = absmax / 127.0f;
  }
  std::vector<int8_t> b_int8(k * n);
  for (size_t p = 0; p < k; ++p) {
    for (size_t j = 0; j < n; ++j) {
      const float q = std::round(b[p * n + j] / problem.col_scales[j]);
      b_int8[p * n + j] = static_cast<int8_t>(std::clamp(q, -127.0f, 127.0f));
    }
  }
  problem.b_packed.resize(cuisine::linalg::Int8PackedSize(k, n));
  cuisine::linalg::Int8PackB(k, n, b_int8.data(), problem.b_packed.data());
  return problem;
}

void GemmInt8(const Int8Problem& problem, float* c) {
  cuisine::linalg::Int8GemmPrepacked(
      problem.m, problem.k, problem.n, problem.a.data(),
      problem.b_packed.data(), problem.a_scale, problem.col_scales.data(),
      /*bias=*/nullptr, /*accumulate=*/false, c);
}

uint64_t GemmFlops() {
  static cuisine::util::Counter* const counter =
      cuisine::util::MetricsRegistry::Instance().GetCounter("gemm.flops");
  return counter->value();
}

uint64_t GemmCalls() {
  static cuisine::util::Counter* const counter =
      cuisine::util::MetricsRegistry::Instance().GetCounter("gemm.calls");
  return counter->value();
}

void StartTracing(size_t capacity) {
  cuisine::util::SetTelemetryEnabled(true);
  cuisine::util::ResetTraceEvents(capacity);
  cuisine::util::SetTraceEventsEnabled(true);
}

std::vector<cuisine::util::TraceEvent> StopTracing(uint64_t* dropped) {
  cuisine::util::SetTraceEventsEnabled(false);
  cuisine::util::SetTelemetryEnabled(false);
  *dropped = cuisine::util::TraceEventsDropped();
  return cuisine::util::CollectTraceEvents();
}

bool WriteTrace(const std::vector<cuisine::util::TraceEvent>& events,
                const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << cuisine::core::TraceEventsJson(events);
  return static_cast<bool>(out.flush());
}

}  // namespace ledger::sut

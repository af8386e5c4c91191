#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/pipeline.h"
#include "core/service.h"
#include "data/recipe.h"
#include "features/sequence_encoder.h"
#include "features/sparse.h"
#include "features/vectorizer.h"
#include "nn/gru.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "text/preprocessor.h"
#include "text/token_table.h"
#include "text/vocabulary.h"
#include "util/telemetry.h"

/// \file sut.h
/// \brief The ledger's only doorway into the system under test.
///
/// Every call the benchmark makes into the repository goes through this
/// adapter, and the adapter uses only entry points the ROADMAP keeps.
/// Each wrapper above the kernel layer opens a trace span named
/// `<layer>.<Call>`, so a traced run attributes time to the repository's
/// modules without any span inside `src/`; the GEMM calls are too short
/// to span. The ROADMAP items that will touch each group of calls:
///
///  * `GenerateCorpus`: none planned (data generator).
///  * `Tokenize`, `RunPipeline`, `RequestFeaturizer`, `EventMemo`:
///    "Delete the string-era paths" removes the string overloads beside
///    these id-path calls; "Raw-recipe requests" replaces the request path
///    with a frozen `core::Featurizer`.
///  * `FitModel`, `ParameterBytes`: "Data-parallel training" rewrites the
///    replica reduce under `Model::Fit`.
///  * `Predict`, `AttachInt8`, `PredictInt8`: "One inference forward per
///    architecture" replaces the autograd eval forward and folds the int8
///    path into a precision option.
///  * `MakeService`, `Serve`: "Raw-recipe requests" changes the request
///    payload; "Delete the string-era paths" drops the adaptive worker
///    cap the ledger leaves off.
///  * `Replay*`, `ForwardSeconds`, `TrainExample`, `StepAdamW`: the
///    performance-ledger item adds `nn.<arch>.<layer>` spans inside these
///    calls, and "One inference forward" takes predict off them.
///  * `Gemm`, `GemmInt8`, the counters and the tracing calls: none planned.

namespace ledger::sut {

using cuisine::core::InferenceResponse;
using cuisine::core::InferenceService;
using cuisine::core::Model;
using cuisine::core::ModelDataset;
using cuisine::core::Predictions;
using cuisine::data::Recipe;
using cuisine::features::CsrMatrix;
using cuisine::features::EncodedSequence;

/// Classes of the Table IV task.
inline constexpr int32_t kNumClasses = 26;
/// Tokens fed to the transformer, and its frame with [CLS]/[SEP].
inline constexpr int32_t kTransformerTokens = 48;
inline constexpr int32_t kClsFrame = kTransformerTokens + 2;
/// The LSTM/GRU frame.
inline constexpr int32_t kPlainFrame = 32;
/// Sequences per optimizer step in every training recipe.
inline constexpr int32_t kBatchSize = 16;

// ---- data ----

/// Deterministic generator corpus of `scale` x Table II recipes. `wide`
/// widens the recipe shapes so sequence lengths run from 3 tokens up past
/// the transformer frame.
std::vector<Recipe> GenerateCorpus(uint64_t seed, double scale, bool wide);

// ---- text + features: the offline §IV pipeline ----

/// Interned tokenization of `recipes` on `workers` threads.
cuisine::core::TokenizedCorpus Tokenize(const std::vector<Recipe>& recipes,
                                        size_t workers);

/// Seconds spent in each offline pipeline stage.
struct StageSeconds {
  double tokenize = 0.0;
  double vocab = 0.0;
  double tfidf_fit = 0.0;
  double tfidf_transform = 0.0;
  double encode = 0.0;
};

/// One corpus through the whole §IV pipeline: tokenized, split 7:1:2,
/// sequence vocabulary and TF-IDF fitted on the train split, and every
/// representation built for the train and test splits. Not movable: the
/// slices, vectorizer and encoders point into it.
struct Pipeline {
  Pipeline() = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  cuisine::core::TokenizedCorpus corpus;
  cuisine::core::CorpusSlice train;
  cuisine::core::CorpusSlice test;
  std::unique_ptr<cuisine::text::Vocabulary> vocab;
  std::unique_ptr<cuisine::features::TfidfVectorizer> tfidf;
  CsrMatrix tfidf_train;
  CsrMatrix tfidf_test;
  std::vector<EncodedSequence> plain_train, plain_test;
  std::vector<EncodedSequence> cls_train, cls_test;
};

/// Runs the pipeline with `workers` tokenizer threads; `seconds`
/// (nullable) receives the per-stage times.
std::unique_ptr<Pipeline> RunPipeline(const std::vector<Recipe>& recipes,
                                      uint64_t split_seed, size_t workers,
                                      StageSeconds* seconds = nullptr);

/// The rows of one raw request, featurized for a [transformer, TF-IDF]
/// ladder: one [CLS]-framed sequence and one TF-IDF row.
struct RequestRows {
  std::vector<EncodedSequence> sequences;
  CsrMatrix tfidf;
  ModelDataset View() const { return {.tfidf = &tfidf, .sequences = &sequences}; }
};

/// Seconds spent in each stage of one request's featurization.
struct RequestSeconds {
  double text = 0.0;
  double encode = 0.0;
  double tfidf = 0.0;
};

/// \brief Featurizes raw requests on one client thread through the
/// public id-path calls: `Preprocessor::ProcessEvent` into a table the
/// thread owns, `TokenTable::Find` against the fitted table, then
/// `SequenceEncoder::EncodeIds` and `TfidfVectorizer::Transform`.
///
/// The thread's table lives as long as the featurizer. The preprocessor
/// memo is keyed by the table's address, so a table rebuilt at the same
/// address for each request would replay ids interned into an earlier
/// table; one table per thread keeps memo and ids consistent.
class RequestFeaturizer {
 public:
  /// Distinct events remembered per thread; raw requests rarely repeat
  /// an event string, so the memo stays small.
  static constexpr size_t kMemoCapacity = size_t{1} << 12;

  explicit RequestFeaturizer(const Pipeline& pipeline);

  void Featurize(const std::vector<std::string>& events, RequestRows* out,
                 RequestSeconds* seconds = nullptr);

  /// Distinct events memoised so far (a miss adds one).
  size_t memo_size() const { return preprocessor_.memo_size(); }

 private:
  const Pipeline& pipeline_;
  cuisine::features::SequenceEncoder encoder_;
  std::vector<int32_t> remap_;
  cuisine::text::Preprocessor preprocessor_;
  cuisine::text::TokenTable table_;
  std::vector<int32_t> local_ids_;
  std::vector<int32_t> fitted_ids_;
};

/// \brief Counts how many events of a stream a preprocessor memo with
/// room for every event answers: each miss adds one memo entry.
class EventMemo {
 public:
  void Process(const std::vector<std::string>& events);
  size_t events() const { return events_; }
  size_t misses() const { return preprocessor_.memo_size(); }

 private:
  cuisine::text::Preprocessor preprocessor_;
  cuisine::text::TokenTable table_;
  std::vector<int32_t> ids_;
  size_t events_ = 0;
};

// ---- ml + core.trainer + core.engine ----

/// Fits the registry model `key` ("logreg", "lstm", "gru",
/// "transformer", "roberta") at the Table IV dims for one epoch over
/// `train`, so the number of optimizer steps is fixed by the set size.
/// `pretrain` (roberta only) is the MLM set. Throws on failure.
std::unique_ptr<Model> FitModel(const std::string& key,
                                const ModelDataset& train, size_t workers,
                                const ModelDataset* pretrain = nullptr);

/// Bytes of the model's parameters, through a checkpoint written to
/// `path`.
std::string ParameterBytes(const Model& model, const std::string& path);

/// fp32 batched prediction.
Predictions Predict(const Model& model, const ModelDataset& inputs,
                    size_t workers);

/// Attaches the int8 path, calibrated on `calibration`. Throws on failure.
void AttachInt8(Model* model, const std::vector<EncodedSequence>& calibration);

/// Batched prediction through the attached int8 path.
Predictions PredictInt8(const Model& model,
                        const std::vector<EncodedSequence>& inputs,
                        size_t workers);

// ---- core.service ----

/// The ledger's ladder [primary, fallback] with two execution slots, a
/// queue of eight, one engine worker per request, no deadlines and no
/// faults.
std::unique_ptr<InferenceService> MakeService(const Model& primary,
                                              const Model& fallback);

InferenceResponse Serve(InferenceService* service, const ModelDataset& request);

// ---- nn: layer replay through the public Forward/Step methods ----

/// Networks with the Table IV architecture over a `vocab_size`
/// vocabulary. Timing does not depend on trained weights. Every call
/// below runs inside the calling thread's tensor arena, as the engine
/// and the trainer run the same methods.
struct Nets {
  std::unique_ptr<cuisine::nn::TransformerClassifier> transformer;
  std::unique_ptr<cuisine::nn::LstmClassifier> lstm;
  std::unique_ptr<cuisine::nn::GruClassifier> gru;
};
Nets BuildNets(size_t vocab_size);

/// Seconds per layer group of one replayed transformer forward.
/// `attn_proj` is the q/k/v/output `Linear::Forward` calls replayed on
/// their own; `attn` is the whole attention `Forward`, which includes
/// them. `layernorm` includes the residual adds feeding each norm.
struct TransformerParts {
  double embedding = 0.0;
  double attn_proj = 0.0;
  double attn = 0.0;
  double ffn = 0.0;
  double layernorm = 0.0;
  double pooler_head = 0.0;
};
void ReplayTransformer(const cuisine::nn::TransformerClassifier& net,
                       const EncodedSequence& seq, TransformerParts* parts);

/// Seconds per layer group of one replayed recurrent forward.
struct RecurrentParts {
  double embedding = 0.0;
  double gate_step = 0.0;
  double head = 0.0;
};
void ReplayLstm(const cuisine::nn::LstmClassifier& net,
                const EncodedSequence& seq, RecurrentParts* parts);
void ReplayGru(const cuisine::nn::GruClassifier& net,
               const EncodedSequence& seq, RecurrentParts* parts);

/// Seconds of one whole eval-mode `ForwardLogits`.
double ForwardSeconds(const cuisine::nn::TransformerClassifier& net,
                      const EncodedSequence& seq);
double ForwardSeconds(const cuisine::nn::LstmClassifier& net,
                      const EncodedSequence& seq);
double ForwardSeconds(const cuisine::nn::GruClassifier& net,
                      const EncodedSequence& seq);

/// One training example: forward in training mode plus cross-entropy,
/// then backward into the parameter gradients.
struct TrainSeconds {
  double forward = 0.0;
  double backward = 0.0;
};
TrainSeconds TrainExample(const cuisine::nn::TransformerClassifier& net,
                          const EncodedSequence& seq, int32_t label);
TrainSeconds TrainExample(const cuisine::nn::LstmClassifier& net,
                          const EncodedSequence& seq, int32_t label);

/// AdamW over a module's parameters (the trainer's optimizer settings).
std::unique_ptr<cuisine::nn::Adam> MakeAdamW(const cuisine::nn::Module& net);
/// Seconds of one optimizer step.
double StepAdamW(cuisine::nn::Adam* adam);

// ---- linalg ----

/// C[m,n] = A[m,k] B[k,n] through the blocked fp32 kernel.
void Gemm(size_t m, size_t k, size_t n, const float* a, const float* b,
          float* c);

/// An int8 GEMM problem ready for the prepacked kernel: quantized A and
/// packed per-channel B.
struct Int8Problem {
  size_t m = 0, k = 0, n = 0;
  float a_scale = 1.0f;
  std::vector<int8_t> a;
  std::vector<int8_t> b_packed;
  std::vector<float> col_scales;
};
Int8Problem PrepareInt8(size_t m, size_t k, size_t n, const float* a,
                        const float* b);
void GemmInt8(const Int8Problem& problem, float* c);

/// Process-wide fp32 GEMM counters (always live).
uint64_t GemmFlops();
uint64_t GemmCalls();

// ---- telemetry ----

/// Runs `phase` inside a `ledger.MeasuredPhase` span: the window a traced
/// run takes layer self-times over. The name is outside every layer.
template <typename Fn>
auto MarkPhase(Fn&& phase) {
  CUISINE_TRACE_SPAN("ledger.MeasuredPhase");
  return phase();
}

/// Starts recording spans into a buffer of `capacity` events.
void StartTracing(size_t capacity);
/// Stops recording; returns the events since StartTracing and how many
/// were dropped for lack of room.
std::vector<cuisine::util::TraceEvent> StopTracing(uint64_t* dropped);
/// Writes `events` as chrome://tracing JSON. Returns false on failure.
bool WriteTrace(const std::vector<cuisine::util::TraceEvent>& events,
                const std::string& path);

}  // namespace ledger::sut

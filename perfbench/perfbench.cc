// End-to-end benchmark runner: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--threads T] [--spans PATH]
//
// Pipeline (the same on every workload, see workloads.h and README.md):
//   1. set-up: generate the training dataset, fit whitening, build the model
//      to train and its optimizer, build the serving catalog and model,
//      construct the RecommendService (index build included) and arm its
//      ingest path;
//   2. in rounds (epochs_per_10s per 10 s of --seconds): train one epoch
//      (fixed count, no early stop) and validate it, evaluate once on test
//      with full ranking, and serve one equal share of an open-loop request
//      stream with item ingests;
//   3. repeat the set-up kSetupRounds - 1 more times for set-up samples.
// Every timing is a quartile (setup_s: the median) over per-unit samples,
// never one total; measure.h says which. The last stdout line is a
// JSON object with the end-to-end metrics ("metrics"), and, with --trace 1,
// the per-layer metrics ("layers") from spans recorded around the library
// calls made here. run.py turns it into the benchmark's result line.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "data/batcher.h"
#include "data/generator.h"
#include "data/split.h"
#include "linalg/gemm.h"
#include "linalg/quant.h"
#include "linalg/scorer.h"
#include "linalg/topk.h"
#include "linalg/workspace.h"
#include "measure.h"
#include "nn/optimizer.h"
#include "retrieval/ivf_index.h"
#include "retrieval/scorer.h"
#include "seqrec/model.h"
#include "seqrec/trainer.h"
#include "serve/service.h"
#include "trace.h"
#include "whitening/incremental_whitening.h"
#include "whitening/whiten_encoder.h"
#include "whitening/whitening.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

using whitenrec::linalg::Matrix;
namespace wr = whitenrec;

constexpr std::size_t kSetupRounds = 5;
constexpr std::uint64_t kWindowNs = 1000000;  // 1 ms batching window
constexpr std::size_t kTopK = 10;
constexpr std::size_t kTrainBatch = 128;
// serve_recall10 is computed on every kVerifyStride-th request of the
// schedule (by schedule index, so the subset does not depend on timing).
constexpr std::size_t kVerifyStride = 8;
// Fewest requests in a serving round: serve_p99_ms is a median of per-round
// p99s, and a p99 needs ten samples beyond it.
constexpr std::size_t kLatencyRoundRequests = 1000;
// Virtual quiet time after an ingest burst on workloads whose refits must not
// block reads; far longer than any refit measured here.
constexpr double kQuietGapNs = 10e9;
constexpr double kWhitenEpsilon = 1e-5;
// Training batches are shuffled from a fixed seed, not the workload seed, so
// train_valid_ndcg20 is a function of the code alone: any change to it is a
// change to what training computes.
constexpr std::uint64_t kTrainShuffleSeed = 7;
// Serving stage sums are re-executions of the stages after each HandleBatch;
// they must not exceed the HandleBatch time they explain by more than this.
constexpr double kServeStageTolerance = 0.15;
// Training steps are nested spans; their unexplained self time must stay
// below this share of the step time.
constexpr double kTrainResidualTolerance = 0.05;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  long seconds = 0;
  bool trace = false;
  // The library pool runs at one thread by default: on the 4-vCPU VM the
  // benchmark was tuned on, two-thread epochs spread 0.63-1.36 s over three
  // seeds against 0.86-0.90 s at one thread, and two threads served fewer
  // requests per second. Results are bitwise the same at any count.
  std::size_t threads = 1;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--threads T] [--spans PATH]\n",
               msg);
  std::exit(2);
}

unsigned long long ParseUnsigned(const char* flag, const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '\0' || *s == '-' || *end != '\0' || errno == ERANGE) {
    Usage((std::string(flag) + " expects a non-negative integer").c_str());
  }
  return v;
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      o.seed = ParseUnsigned("--seed", value);
      have[1] = true;
    } else if (flag == "--seconds") {
      o.seconds = static_cast<long>(ParseUnsigned("--seconds", value));
      have[2] = true;
    } else if (flag == "--trace") {
      const unsigned long long t = ParseUnsigned("--trace", value);
      if (t > 1) Usage("--trace expects 0 or 1");
      o.trace = t == 1;
      have[3] = true;
    } else if (flag == "--threads") {
      o.threads = static_cast<std::size_t>(ParseUnsigned("--threads", value));
      if (o.threads == 0 || o.threads > 64) Usage("--threads expects 1..64");
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (o.seconds < 1 || o.seconds > 600) Usage("--seconds expects 1..600");
  return o;
}

// The benchmark sets every option through the public API. A WHITENREC_*
// variable would silently override some of them, so it refuses to run.
void RefuseLibraryEnv() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "WHITENREC_", 10) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "configures the library through its API only\n",
                   *e);
      std::exit(2);
    }
  }
}

// ---------------------------------------------------------------------------
// Inputs owned by the benchmark
// ---------------------------------------------------------------------------

// SplitMix64: the benchmark's own generator for traces, schedules and
// ingest rows, so they do not change when the library's Rng does.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() {  // [0, 1)
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Next() % static_cast<std::uint64_t>(n));
  }
  double Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }
  double Gaussian() {
    const double u1 = 1.0 - Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  std::uint64_t s_;
};

std::uint64_t HashName(const char* s) {
  std::uint64_t h = 1469598103934665603ull;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ull;
  }
  return h;
}

class Fnv {
 public:
  void Bytes(const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void U64(std::uint64_t v) { Bytes(&v, sizeof(v)); }
  void Mat(const Matrix& m) {
    U64(m.rows());
    U64(m.cols());
    Bytes(m.data(), m.size() * sizeof(double));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t FingerprintDataset(const wr::data::Dataset& d) {
  Fnv f;
  f.U64(d.num_items);
  f.U64(d.sequences.size());
  for (const std::vector<std::size_t>& seq : d.sequences) {
    f.U64(seq.size());
    for (std::size_t item : seq) f.U64(item);
  }
  f.Mat(d.text_embeddings);
  return f.value();
}

std::uint64_t FingerprintMatrix(const Matrix& m) {
  Fnv f;
  f.Mat(m);
  return f.value();
}

// ---------------------------------------------------------------------------
// Host-drift probe: a fixed single-thread 64x64 GEMM loop written here (not
// the library's kernels), timed before and after the workload. Diagnostic
// only: it tells a slow host phase from a regression.
// ---------------------------------------------------------------------------

double HostProbeGflops(double seconds) {
  constexpr std::size_t n = 64;
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = 1.0 + static_cast<double>(i % 7) * 0.125;
    b[i] = 0.5 - static_cast<double>(i % 5) * 0.0625;
  }
  const std::uint64_t t0 = NowNs();
  const std::uint64_t budget = static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t iters = 0;
  volatile double sink = 0.0;
  while (NowNs() - t0 < budget) {
    std::fill(c.begin(), c.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        const double aik = a[i * n + k];
        for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
      }
    }
    sink = sink + c[iters % (n * n)];
    ++iters;
  }
  const double secs = static_cast<double>(NowNs() - t0) * 1e-9;
  return 2.0 * n * n * n * static_cast<double>(iters) / secs * 1e-9;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<Metric> host;
  std::vector<std::string> errors;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void Fail(const std::string& why) { errors.push_back(why); }
};

void Add(std::vector<Metric>* out, const std::string& name, double value,
         const char* unit, std::size_t samples) {
  out->push_back(Metric{name, value, unit, samples});
}

double MedianOr0(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Median(v);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

wr::seqrec::SasRecConfig ModelConfig() {
  wr::seqrec::SasRecConfig c;
  c.hidden_dim = 32;
  c.num_blocks = 2;
  c.num_heads = 2;
  c.ffn_hidden = 64;
  c.dropout = 0.2;
  c.max_len = 12;
  c.seed = 42;
  return c;
}

struct Stack {
  wr::data::GeneratedData data;
  wr::data::Split split;
  std::unique_ptr<wr::seqrec::SasRecModel> train_model;
  std::unique_ptr<wr::nn::Adam> adam;
  Matrix catalog_raw;  // serving catalog, unwhitened
  std::unique_ptr<wr::seqrec::SasRecModel> serve_model;
  std::unique_ptr<wr::serve::RecommendService> service;  // borrows serve_model
};

// WhitenRec item encoder (ZCA, two-layer MLP head) over `raw`, wrapped in the
// SASRec backbone.
std::unique_ptr<wr::seqrec::SasRecModel> BuildModel(const Matrix& raw,
                                                    Tracer* tr, long parent) {
  const wr::seqrec::SasRecConfig config = ModelConfig();
  Matrix z;
  {
    Tracer::Scope s(tr, "whitening.fit", parent);
    wr::Result<wr::FittedWhitening> fit =
        wr::FitWhitening(raw, wr::WhiteningKind::kZca, kWhitenEpsilon);
    if (!fit.ok()) {
      throw std::runtime_error("whitening fit failed: " +
                               fit.status().message());
    }
    z = wr::ApplyWhitening(fit.value(), raw);
  }
  wr::linalg::Rng rng(config.seed);
  auto encoder = std::make_unique<wr::TextFeatureEncoder>(
      std::move(z), config.hidden_dim, wr::HeadKind::kMlp2, &rng, "whitenrec");
  return std::make_unique<wr::seqrec::SasRecModel>(std::move(encoder), config);
}

wr::serve::ServeConfig ServeConfigFor(const Workload& w) {
  wr::serve::ServeConfig c = wr::serve::ServeConfig::Defaults();
  c.top_k = kTopK;
  c.max_cached_sessions = w.max_cached_sessions;
  c.max_batch = w.max_batch;
  c.batch_window_ns = kWindowNs;
  c.refit_every = w.refit_every;
  c.scorer = wr::retrieval::ScorerConfig::Defaults();
  c.scorer.kind = w.scorer;
  c.scorer.nprobe = w.ivf_nprobe;
  return c;
}

std::unique_ptr<Stack> BuildStack(const Workload& w, Tracer* tr, long round) {
  auto s = std::make_unique<Stack>();
  const long root = tr->Begin("setup.round", -1, round);
  {
    Tracer::Scope sp(tr, "data.generate", root);
    s->data = wr::data::GenerateDataset(wr::data::ToysProfile(w.train_scale));
    s->split = wr::data::LeaveOneOutSplit(s->data.dataset);
  }
  s->train_model = BuildModel(s->data.dataset.text_embeddings, tr, root);
  wr::nn::Adam::Options adam;
  adam.learning_rate = 1e-3;
  s->adam = std::make_unique<wr::nn::Adam>(s->train_model->Parameters(), adam);

  {
    Tracer::Scope sp(tr, "data.catalog", root);
    wr::data::ItemFeatureConfig fc;
    fc.num_items = w.catalog_items;
    fc.embed_dim = s->data.dataset.text_embeddings.cols();
    fc.category_spread = 3.0;
    fc.seed = 11;
    s->catalog_raw = wr::data::GenerateItemFeatures(fc);
  }
  s->serve_model = BuildModel(s->catalog_raw, tr, root);
  {
    Tracer::Scope sp(tr, "serve.construct", root);
    s->service = std::make_unique<wr::serve::RecommendService>(
        s->serve_model.get(), ServeConfigFor(w));
    const wr::Status st = s->service->EnableIngest(
        s->catalog_raw, wr::WhiteningKind::kZca, kWhitenEpsilon);
    if (!st.ok()) throw std::runtime_error("EnableIngest: " + st.message());
  }
  tr->End(root);
  return s;
}

// ---------------------------------------------------------------------------
// Training and evaluation
// ---------------------------------------------------------------------------

// Recommender view over a bare model, as the trainer's own early-stopping
// view does, so validation and test evaluation use the library's ranking.
class ModelView : public wr::seqrec::Recommender {
 public:
  explicit ModelView(wr::seqrec::SasRecModel* m) : m_(m) {}
  std::string name() const override { return "perfbench"; }
  std::size_t num_items() const override { return m_->num_items(); }
  Matrix ScoreLastPositions(const wr::data::Batch& batch) override {
    return m_->ScoreLastPositions(batch);
  }
  bool ScoreFactors(const wr::data::Batch& batch, Matrix* users,
                    Matrix* items) override {
    m_->ScoreFactors(batch, users, items);
    return true;
  }

 private:
  wr::seqrec::SasRecModel* m_;
};

// One SASRec step through the granular public calls, each in its own span.
// Same operations in the same order as SasRecModel::TrainStep.
double TracedStep(wr::seqrec::SasRecModel* model, const wr::data::Batch& batch,
                  Tracer* tr, long step) {
  Matrix v;
  {
    Tracer::Scope s(tr, "seqrec.encode_items", step);
    v = model->EncodeItems(/*train=*/true);
  }
  Matrix h;
  {
    Tracer::Scope s(tr, "nn.forward", step);
    h = model->EncodeSequences(batch, v, /*train=*/true);
  }
  Matrix dh;
  Matrix dv;
  double loss = 0.0;
  {
    Tracer::Scope s(tr, "nn.loss", step);
    loss = model->SequenceLossAndGrad(batch, h, v, &dh, &dv);
  }
  {
    Tracer::Scope s(tr, "nn.backward", step);
    model->BackwardSequences(batch, dh, &dv);
    model->BackwardItems(dv);
  }
  return loss;
}

// The training and evaluation phase, run one epoch / one evaluation round
// at a time so the run can spread them over its whole length.
class TrainPhase {
 public:
  TrainPhase(Stack* s, const Options& o, Tracer* tr, Report* rep)
      : s_(s), o_(o), tr_(tr), rep_(rep), view_(s->train_model.get()),
        shuffle_(kTrainShuffleSeed) {}

  void Epoch() {
    wr::seqrec::SasRecModel* model = s_->train_model.get();
    const std::size_t max_len = model->config().max_len;
    const std::size_t d = model->config().hidden_dim;
    const long ep = tr_->Begin("train.epoch", -1,
                               static_cast<long>(epoch_s_.size()));
    const std::uint64_t t0 = NowNs();
    std::vector<wr::data::Batch> batches;
    {
      Tracer::Scope sp(tr_, "data.batch", ep);
      batches = wr::data::MakeTrainBatches(s_->split.train, max_len,
                                           kTrainBatch, &shuffle_);
    }
    double gflop = 0.0;
    for (const wr::data::Batch& batch : batches) {
      const long st = tr_->Begin("train.step", ep, step_id_++);
      const double loss = o_.trace ? TracedStep(model, batch, tr_, st)
                                   : model->TrainStep(batch);
      {
        Tracer::Scope sp(tr_, "nn.adam", st);
        s_->adam->Step();
      }
      tr_->End(st);
      ++rep_->attempted;
      if (!std::isfinite(loss)) ++rep_->failed;
      // Materialized softmax loss: logits, dH and dV are each a
      // (rows x items x d) product.
      gflop += 6.0 * static_cast<double>(batch.batch_size * batch.seq_len) *
               static_cast<double>(model->num_items()) *
               static_cast<double>(d) * 1e-9;
    }
    epoch_s_.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    tr_->End(ep);
    loss_gflop_.push_back(gflop);
    const double ndcg = wr::seqrec::ValidationNdcg20(
        &view_, s_->split.valid, s_->split.train, max_len);
    if (!std::isfinite(ndcg)) rep_->Fail("non-finite validation NDCG@20");
    best_ndcg_ = std::max(best_ndcg_, ndcg);
  }

  // One full-ranking test evaluation. The traced run feeds the same
  // instances in 256-instance slices (the library's eval batch) to time
  // each batch.
  void EvalRound() {
    const std::size_t max_len = s_->train_model->config().max_len;
    const long er =
        tr_->Begin("eval.round", -1, static_cast<long>(eval_s_.size()));
    const std::uint64_t t0 = NowNs();
    double ndcg = 0.0;
    const std::vector<wr::data::EvalInstance>& test = s_->split.test;
    if (!o_.trace) {
      ndcg = wr::seqrec::EvaluateRanking(&view_, test, s_->split.train,
                                         max_len)
                 .ndcg20;
    } else {
      double weighted = 0.0;
      for (std::size_t b = 0; b < test.size(); b += 256) {
        const std::vector<wr::data::EvalInstance> slice(
            test.begin() + static_cast<std::ptrdiff_t>(b),
            test.begin() +
                static_cast<std::ptrdiff_t>(std::min(test.size(), b + 256)));
        Tracer::Scope sp(tr_, "seqrec.eval_batch", er);
        const wr::seqrec::EvalResult res = wr::seqrec::EvaluateRanking(
            &view_, slice, s_->split.train, max_len);
        weighted += res.ndcg20 * static_cast<double>(res.count);
      }
      ndcg = weighted /
             static_cast<double>(std::max<std::size_t>(1, test.size()));
    }
    eval_s_.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    tr_->End(er);
    if (!std::isfinite(ndcg) || ndcg < 0.0) {
      rep_->Fail("test NDCG@20 is not a finite non-negative number");
    }
  }

  void Finish() {
    if (!(best_ndcg_ > 0.0)) rep_->Fail("validation NDCG@20 is not positive");
    Add(&rep_->e2e, "train_epoch_s", SlowSideTime(epoch_s_), "s",
        epoch_s_.size());
    Add(&rep_->e2e, "train_valid_ndcg20", best_ndcg_, "ratio",
        epoch_s_.size());
    Add(&rep_->e2e, "eval_s", SlowSideTime(eval_s_), "s", eval_s_.size());
    if (!o_.trace) return;
    Add(&rep_->layers, "data.batch_ms", Median(tr_->DurationsMs("data.batch")),
        "ms", epoch_s_.size());
    Add(&rep_->layers, "nn.loss_gflop", Median(loss_gflop_), "gflop",
        loss_gflop_.size());
    const std::vector<double> eval_batches =
        tr_->DurationsMs("seqrec.eval_batch");
    Add(&rep_->layers, "seqrec.eval_batch_ms", Median(eval_batches), "ms",
        eval_batches.size());
    // Steps are nested spans: the children must explain the step.
    const std::vector<double> steps = tr_->DurationsMs("train.step");
    const double share =
        Sum(tr_->SelfMs("train.step")) / std::max(1e-12, Sum(steps));
    Add(&rep_->layers, "nn.step_residual_share", share, "ratio",
        steps.size());
    if (share > kTrainResidualTolerance) {
      rep_->Fail("training stage spans leave " + std::to_string(share) +
                 " of the step unexplained");
    }
  }

 private:
  Stack* s_;
  const Options& o_;
  Tracer* tr_;
  Report* rep_;
  ModelView view_;
  wr::linalg::Rng shuffle_;
  long step_id_ = 0;
  std::vector<double> epoch_s_;
  std::vector<double> loss_gflop_;
  std::vector<double> eval_s_;
  double best_ndcg_ = 0.0;
};

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

struct Schedule {
  std::vector<Event> events;
  std::vector<wr::serve::ServeRequest> requests;  // by event index
  std::vector<std::vector<double>> ingest_rows;   // by event index
  std::size_t num_requests = 0;
  std::size_t num_ingests = 0;
  // Round r holds requests [r * n, (r + 1) * n) for n = num_requests /
  // rounds, and the ingest bursts due among them; round_begin[r] is the
  // event index of its first event.
  std::vector<std::size_t> round_begin;
  // Untimed warm-up served before the schedule: max_len requests for every
  // session, so every window is full when timing starts.
  std::vector<wr::serve::ServeRequest> warmup;
};

// Rounds up to a multiple of m, at least `floor`.
std::size_t RoundUp(std::size_t v, std::size_t m, std::size_t floor) {
  v = std::max(v, floor);
  return (v + m - 1) / m * m;
}

Schedule BuildSchedule(const Workload& w, const Options& o, std::size_t rounds,
                       std::size_t max_len, const Matrix& catalog_raw) {
  SplitMix rng(o.seed * 0x9e3779b97f4a7c15ull ^ HashName(w.name));
  const std::size_t seconds = static_cast<std::size_t>(o.seconds);
  // Every round gets the same number of requests and of refits, so the
  // per-round figures are alike and their median is a stable middle.
  const std::size_t n_req =
      RoundUp(w.requests_per_10s * seconds / 10, rounds,
              rounds * kLatencyRoundRequests);
  const std::size_t n_refits =
      RoundUp(w.refits_per_10s * seconds / 10, rounds, rounds);
  const std::size_t n_ing = n_refits * w.refit_every;
  const std::size_t items = catalog_raw.rows();

  // Zipf session popularity: session of rank r has weight 1 / (r + 1)^s.
  std::vector<double> cdf(w.sessions);
  double acc = 0.0;
  for (std::size_t r = 0; r < w.sessions; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), w.zipf_exponent);
    cdf[r] = acc;
  }

  // Events are appended in due order. Ingests come in bursts of
  // refit_every rows, 0.1 ms apart, so each burst fills one refit; burst b
  // follows request (2b + 1) * n_req / (2 n_refits), the middle of its
  // share of the requests. Unless the workload's refits block reads, a burst
  // is followed by a quiet gap on the virtual clock, so the refit never
  // holds up a request.
  Schedule s;
  s.num_requests = n_req;
  s.num_ingests = n_ing;
  auto push = [&s](double due, EventKind kind) {
    s.events.push_back(Event{static_cast<std::uint64_t>(due), kind});
    s.requests.emplace_back();
    s.ingest_rows.emplace_back();
  };
  double t = 0.0;
  std::size_t burst = 0;
  for (std::size_t i = 0; i < n_req; ++i) {
    if (i % (n_req / rounds) == 0) s.round_begin.push_back(s.events.size());
    while (burst < n_refits && i == (2 * burst + 1) * n_req / (2 * n_refits)) {
      for (std::size_t k = 0; k < w.refit_every; ++k) {
        t += 1e5;
        push(t, EventKind::kIngest);
        std::vector<double> row = catalog_raw.Row(rng.Below(items));
        for (double& x : row) x += 0.05 * rng.Gaussian();
        s.ingest_rows.back() = std::move(row);
      }
      if (!w.refits_block_reads) t += kQuietGapNs;
      ++burst;
    }
    t += rng.Exponential(w.requests_per_s) * 1e9;
    push(t, EventKind::kRequest);
    const double u = rng.Uniform() * acc;
    const std::size_t session = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    wr::serve::ServeRequest& req = s.requests.back();
    req.session_id = std::min(session, w.sessions - 1);
    req.item = rng.Below(items);
    req.arrival_ns = s.events.back().due_ns;
  }
  for (std::size_t k = 0; k < max_len; ++k) {
    for (std::size_t session = 0; session < w.sessions; ++session) {
      wr::serve::ServeRequest req;
      req.session_id = session;
      req.item = rng.Below(items);
      s.warmup.push_back(req);
    }
  }
  return s;
}

// fp64 brute-force top-K with the canonical order (score desc, id asc),
// accumulating each dot product in ascending k like the library's GEMM.
std::vector<wr::linalg::ScoredItem> BruteTopK(
    const double* user, const Matrix& items,
    const std::vector<std::size_t>& sorted_exclusions, std::size_t k) {
  std::vector<wr::linalg::ScoredItem> all;
  all.reserve(items.rows());
  std::size_t e = 0;
  for (std::size_t j = 0; j < items.rows(); ++j) {
    while (e < sorted_exclusions.size() && sorted_exclusions[e] < j) ++e;
    if (e < sorted_exclusions.size() && sorted_exclusions[e] == j) continue;
    const double* row = items.RowPtr(j);
    double s = 0.0;
    for (std::size_t c = 0; c < items.cols(); ++c) s += user[c] * row[c];
    all.push_back(wr::linalg::ScoredItem{s, j});
  }
  const std::size_t kk = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(kk),
                    all.end(), wr::linalg::RanksBefore);
  all.resize(kk);
  return all;
}

bool SameList(const std::vector<wr::linalg::ScoredItem>& a,
              const std::vector<wr::linalg::ScoredItem>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// The traced run's replica of the service: the same user states rebuilt
// through SasRecModel::EncodeSequenceStep (extending a session state when the
// service did, replaying the window when it did not) and the same top-K
// through a Scorer of the same configuration. Its lists must equal the
// service's bitwise; its stage timings stand in for the service's internal
// stages.
class Replica {
 public:
  Replica(wr::seqrec::SasRecModel* model, const wr::serve::ServeConfig& config)
      : model_(model), config_(config) {}

  // Installs the current item table and indexes it (at start and after each
  // refit). Returns the rebuild time in ms.
  double Rebuild(const Matrix& table, Tracer* tr, long parent) {
    table_ = &table;
    states_.clear();
    const long id = tr->Begin("retrieval.rebuild", parent);
    if (config_.scorer.kind == wr::retrieval::ScorerKind::kIvf) {
      shared_ = std::make_unique<wr::retrieval::SharedIvfIndex>(
          config_.scorer);
      shared_->Rebuild(table);
      scorer_ = shared_->MakeView(config_.scorer.nprobe);
    } else {
      scorer_ = wr::linalg::MakeExactScorer();
    }
    scorer_->Rebuild(table);
    tr->End(id);
    return tr->Ms(id);
  }

  // Computes the batch's user rows (*users) from the per-request windows
  // and the service's incremental flags. Returns encode steps taken; adds
  // replayed (non-final) steps to *replay_steps.
  std::size_t Forward(const std::vector<wr::serve::ServeRequest>& reqs,
                      const std::vector<std::vector<std::size_t>>& windows,
                      const std::vector<wr::serve::ServeResponse>& resp,
                      Matrix* users, std::size_t* replay_steps,
                      bool* consistent) {
    const std::size_t n = reqs.size();
    users->Resize(n, model_->config().hidden_dim);
    std::vector<std::uint64_t> order;
    std::vector<std::vector<std::size_t>> bins;
    std::unordered_map<std::uint64_t, std::size_t> slot;
    for (std::size_t r = 0; r < n; ++r) {
      const auto it = slot.find(reqs[r].session_id);
      if (it == slot.end()) {
        slot.emplace(reqs[r].session_id, order.size());
        order.push_back(reqs[r].session_id);
        bins.emplace_back(1, r);
      } else {
        bins[it->second].push_back(r);
      }
    }
    for (std::uint64_t id : order) states_[id];
    std::vector<std::size_t> replays(order.size(), 0);
    std::vector<unsigned char> ok(order.size(), 1);
    wr::core::ParallelFor(0, order.size(), 1, [&](std::size_t s0,
                                                  std::size_t s1) {
      Matrix h_row;
      for (std::size_t s = s0; s < s1; ++s) {
        wr::seqrec::SasRecModel::SessionStepState& st =
            states_.find(order[s])->second;
        for (std::size_t r : bins[s]) {
          const std::vector<std::size_t>& win = windows[r];
          if (!resp[r].incremental) {
            st.Clear();
            for (std::size_t t = 0; t + 1 < win.size(); ++t) {
              model_->EncodeSequenceStep(*table_, win[t], &st, &h_row);
              ++replays[s];
            }
          } else if (st.len() + 1 != win.size()) {
            ok[s] = 0;
            continue;
          }
          model_->EncodeSequenceStep(*table_, win.back(), &st, &h_row);
          users->SetRow(r, h_row.Row(0));
        }
      }
    });
    std::size_t steps = n;
    for (std::size_t s = 0; s < order.size(); ++s) {
      steps += replays[s];
      *replay_steps += replays[s];
      if (ok[s] == 0) *consistent = false;
    }
    return steps;
  }

  std::vector<std::vector<wr::linalg::ScoredItem>> TopK(
      const Matrix& users,
      const std::vector<std::vector<std::size_t>>& exclusions) const {
    std::vector<wr::linalg::TopKSelector> sel;
    sel.reserve(users.rows());
    for (std::size_t r = 0; r < users.rows(); ++r) {
      sel.emplace_back(config_.top_k);
    }
    scorer_->TopKBatch(users, exclusions, &sel);
    std::vector<std::vector<wr::linalg::ScoredItem>> out;
    out.reserve(sel.size());
    for (const wr::linalg::TopKSelector& s : sel) {
      out.push_back(s.SortedDescending());
    }
    return out;
  }

  // IVF only: members of the nprobe best centroids of user row r, ranked
  // like the index ranks them (score desc, id asc).
  std::size_t Candidates(const Matrix& users, std::size_t r) const {
    if (shared_ == nullptr) return 0;
    const wr::retrieval::IvfIndex& index = shared_->index();
    wr::linalg::TopKSelector probe(config_.scorer.nprobe);
    for (std::size_t c = 0; c < index.clusters(); ++c) {
      probe.Push(c, wr::linalg::RowDotTransB(users, r, index.centroids(), c));
    }
    std::size_t n = 0;
    for (const wr::linalg::ScoredItem& c : probe.SortedDescending()) {
      n += index.cluster_members(c.item).size();
    }
    return n;
  }

 private:
  wr::seqrec::SasRecModel* model_;
  wr::serve::ServeConfig config_;
  const Matrix* table_ = nullptr;
  std::unordered_map<std::uint64_t, wr::seqrec::SasRecModel::SessionStepState>
      states_;
  std::unique_ptr<wr::retrieval::SharedIvfIndex> shared_;
  std::unique_ptr<wr::retrieval::Scorer> scorer_;
};

// Last hidden row of `window` encoded from a fresh state: the user state
// the service must have produced for that request.
void FreshUserRow(const wr::seqrec::SasRecModel& model, const Matrix& table,
                  const std::vector<std::size_t>& window, Matrix* h_row) {
  wr::seqrec::SasRecModel::SessionStepState st;
  for (std::size_t item : window) {
    model.EncodeSequenceStep(table, item, &st, h_row);
  }
}

// What the serving loop accumulates; the traced run adds the replica's
// stage timings.
struct ServeTally {
  std::vector<double> batch_ms, latency_ms, wait_ms, visible_ms, ingest_us,
      refit_ms;
  std::vector<std::size_t> batch_sizes;
  std::uint64_t handle_ns = 0;
  std::uint64_t ingest_ns = 0;
  std::size_t served = 0, hits = 0;
  double recall_sum = 0.0;
  std::size_t recall_n = 0;
  // Traced run only.
  std::vector<double> fwd_ms, topk_ms, residual_ms, rerank_ms,
      refit_whiten_ms, encode_catalog_ms, rebuild_ms;
  std::size_t steps = 0, replay_steps = 0;
  double fwd_total_ms = 0.0, score_total_ms = 0.0, handle_total_ms = 0.0;
  double score_flop = 0.0, exact_score_ms = 0.0;
  std::size_t candidates = 0, candidate_queries = 0, evictions = 0;
  bool replica_match = true, replica_consistent = true;
};

// The traced run's serving checks and per-layer metrics.
void ReportServingLayers(const ServeTally& t, bool exact, Report* rep) {
  if (!t.replica_consistent) {
    rep->Fail("replica session state diverged from the service's flags");
  }
  if (!t.replica_match) {
    rep->Fail("replica top-K lists differ from the service's");
  }
  const double stage_share =
      (t.fwd_total_ms + t.score_total_ms) / std::max(1e-12, t.handle_total_ms);
  if (stage_share > 1.0 + kServeStageTolerance) {
    rep->Fail("serving stage sum exceeds HandleBatch by " +
              std::to_string(stage_share - 1.0));
  }
  const double tail_q = TailSupported(t.batch_ms.size(), 0.99)
                            ? 0.99
                            : HighestSupportedQuantile(t.batch_ms.size());
  std::vector<double> sizes(t.batch_sizes.begin(), t.batch_sizes.end());
  Add(&rep->layers, "serve.batch_ms_p50", Median(t.batch_ms), "ms",
      t.batch_ms.size());
  Add(&rep->layers, "serve.batch_ms_p99",
      tail_q > 0.0 ? Quantile(t.batch_ms, tail_q) : 0.0, "ms",
      t.batch_ms.size());
  Add(&rep->layers, "serve.batch_size", Sum(sizes) / sizes.size(), "count",
      sizes.size());
  Add(&rep->layers, "serve.queue_wait_ms", Median(t.wait_ms), "ms",
      t.wait_ms.size());
  Add(&rep->layers, "serve.cache_hit_ratio",
      static_cast<double>(t.hits) / static_cast<double>(std::max<std::size_t>(
                                      1, t.served)),
      "ratio", t.served);
  Add(&rep->layers, "serve.evictions",
      static_cast<double>(t.evictions), "count", 1);
  Add(&rep->layers, "seqrec.step_us",
      t.fwd_total_ms * 1e3 /
          static_cast<double>(std::max<std::size_t>(1, t.steps)),
      "us", t.steps);
  Add(&rep->layers, "seqrec.replay_steps", static_cast<double>(t.replay_steps),
      "count", 1);
  Add(&rep->layers, "seqrec.session_forward_ms", MedianOr0(t.fwd_ms), "ms",
      t.fwd_ms.size());
  Add(&rep->layers, "linalg.topk_batch_ms",
      exact ? MedianOr0(t.topk_ms) : 0.0,
      "ms", t.topk_ms.size());
  Add(&rep->layers, "linalg.score_gflops",
      t.exact_score_ms > 0.0
          ? t.score_flop / (t.exact_score_ms * 1e-3) * 1e-9
          : 0.0,
      "gflop/s", t.topk_ms.size());
  Add(&rep->layers, "serve.residual_ms", MedianOr0(t.residual_ms), "ms",
      t.residual_ms.size());
  Add(&rep->layers, "serve.stage_share", stage_share, "ratio",
      t.batch_ms.size());
  Add(&rep->layers, "retrieval.topk_batch_ms", MedianOr0(t.rerank_ms), "ms",
      t.rerank_ms.size());
  Add(&rep->layers, "retrieval.candidates_per_query",
      t.candidate_queries == 0 ? 0.0
                             : static_cast<double>(t.candidates) /
                                   static_cast<double>(t.candidate_queries),
      "count", t.candidate_queries);
  Add(&rep->layers, "retrieval.rebuild_ms", MedianOr0(t.rebuild_ms), "ms",
      t.rebuild_ms.size());
  Add(&rep->layers, "whitening.refit_ms", MedianOr0(t.refit_whiten_ms), "ms",
      t.refit_whiten_ms.size());
  Add(&rep->layers, "seqrec.encode_catalog_ms", MedianOr0(t.encode_catalog_ms),
      "ms", t.encode_catalog_ms.size());
  Add(&rep->layers, "serve.refit_ms", MedianOr0(t.refit_ms), "ms",
      t.refit_ms.size());
  Add(&rep->layers, "serve.ingest_us", MedianOr0(t.ingest_us), "us",
      t.ingest_us.size());
}

// Serves the whole schedule in `rounds` equal runs of events and calls
// between() before each round, so the caller can interleave the other
// phases with serving (the virtual clock does not see them).
void RunServing(Stack* s, const Workload& w, const Options& o, Tracer* tr,
                Report* rep, std::size_t rounds,
                const std::function<void()>& between) {
  wr::serve::RecommendService& service = *s->service;
  wr::seqrec::SasRecModel& model = *s->serve_model;
  const std::size_t max_len = model.config().max_len;
  const wr::serve::ServeConfig config = ServeConfigFor(w);
  const Schedule sched =
      BuildSchedule(w, o, rounds, max_len, s->catalog_raw);
  OpenLoop loop(sched.events, kWindowNs, w.max_batch);

  Matrix table = model.EncodeItems(/*train=*/false);
  std::uint64_t version = service.table_version();
  std::unique_ptr<Replica> replica;
  // The traced run re-derives each refit's inner stages on the same inputs:
  // the streaming whitening moments, the catalog re-encode and the index.
  std::unique_ptr<wr::IncrementalWhitening> acc;
  std::vector<std::vector<double>> raw_rows;
  if (o.trace) {
    replica = std::make_unique<Replica>(&model, config);
    replica->Rebuild(table, tr, -1);
    acc = std::make_unique<wr::IncrementalWhitening>(s->catalog_raw.cols());
    acc->Add(s->catalog_raw);
  }

  // Session windows after each request, mirrored from the requests, and
  // the sorted exclusions they imply.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> windows;
  auto mirror = [&](const std::vector<wr::serve::ServeRequest>& batch,
                    std::vector<std::vector<std::size_t>>* win,
                    std::vector<std::vector<std::size_t>>* excl) {
    win->assign(batch.size(), {});
    excl->assign(batch.size(), {});
    for (std::size_t r = 0; r < batch.size(); ++r) {
      std::vector<std::size_t>& wdw = windows[batch[r].session_id];
      if (wdw.size() == max_len) wdw.erase(wdw.begin());
      wdw.push_back(batch[r].item);
      (*win)[r] = wdw;
      std::vector<std::size_t>& e = (*excl)[r];
      e = wdw;
      std::sort(e.begin(), e.end());
      e.erase(std::unique(e.begin(), e.end()), e.end());
    }
  };
  auto valid = [&](const wr::serve::ServeResponse& resp,
                   const std::vector<std::size_t>& win,
                   const std::vector<std::size_t>& excl) {
    const std::size_t expect =
        std::min(kTopK, service.num_items() - excl.size());
    bool good = resp.topk.size() == expect && resp.session_len == win.size();
    for (const wr::linalg::ScoredItem& it : resp.topk) {
      good = good && std::isfinite(it.score) && it.item < table.rows() &&
             !std::binary_search(excl.begin(), excl.end(), it.item);
    }
    return good;
  };

  // Warm-up, untimed: fill every session's window, so the timed schedule
  // serves the steady state (a full window replays on every request)
  // instead of a run that slows down as windows fill.
  std::vector<std::vector<std::size_t>> win, excl;
  for (std::size_t b = 0; b < sched.warmup.size(); b += w.max_batch) {
    const std::vector<wr::serve::ServeRequest> batch(
        sched.warmup.begin() + static_cast<std::ptrdiff_t>(b),
        sched.warmup.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(sched.warmup.size(),
                                            b + w.max_batch)));
    const std::vector<wr::serve::ServeResponse> resp =
        service.HandleBatch(batch);
    mirror(batch, &win, &excl);
    rep->attempted += batch.size();
    for (std::size_t r = 0; r < batch.size(); ++r) {
      if (r >= resp.size() || !valid(resp[r], win[r], excl[r])) ++rep->failed;
    }
  }

  ServeTally t;
  std::vector<std::size_t> pending;  // ingest events not yet visible
  const wr::serve::ServeStats stats0 = service.stats();

  auto on_refit = [&](long parent) {
    const long enc = tr->Begin("seqrec.encode_catalog", parent);
    table = model.EncodeItems(/*train=*/false);
    tr->End(enc);
    if (!o.trace) return;
    t.encode_catalog_ms.push_back(tr->Ms(enc));
    const long wf = tr->Begin("whitening.refit", parent);
    Matrix all(s->catalog_raw.rows() + raw_rows.size(), s->catalog_raw.cols());
    std::memcpy(all.data(), s->catalog_raw.data(),
                s->catalog_raw.size() * sizeof(double));
    for (std::size_t r = 0; r < raw_rows.size(); ++r) {
      all.SetRow(s->catalog_raw.rows() + r, raw_rows[r]);
    }
    wr::WhiteningOptions wo;
    wo.kind = wr::WhiteningKind::kZca;
    wo.epsilon = kWhitenEpsilon;
    wr::Result<wr::FittedWhitening> fit = acc->Fit(wo);
    Matrix z;
    if (fit.ok()) z = wr::ApplyWhitening(fit.value(), all);
    tr->End(wf);
    t.refit_whiten_ms.push_back(tr->Ms(wf));
    const auto* enc_features =
        dynamic_cast<const wr::TextFeatureEncoder*>(model.encoder());
    if (!fit.ok() || enc_features == nullptr ||
        enc_features->features().size() != z.size() ||
        std::memcmp(enc_features->features().data(), z.data(),
                    z.size() * sizeof(double)) != 0) {
      rep->Fail("replica refit whitening differs from the service's");
    }
    t.rebuild_ms.push_back(replica->Rebuild(table, tr, parent));
  };

  // serve_qps is the slow-side quartile over rounds of each round's requests
  // per second inside HandleBatch.
  std::vector<double> round_qps;
  std::size_t round = 0, round_requests = 0;
  std::uint64_t round_ns = 0;
  while (!loop.Finished()) {
    if (round < rounds && loop.next_event() >= sched.round_begin[round]) {
      if (round > 0) {
        round_qps.push_back(static_cast<double>(round_requests) /
                            (static_cast<double>(round_ns) * 1e-9));
      }
      round_requests = 0;
      round_ns = 0;
      ++round;
      between();
    }
    const Operation op = loop.Next();
    if (op.kind == EventKind::kIngest) {
      const long sp =
          tr->Begin("serve.ingest", -1, static_cast<long>(op.begin));
      const std::uint64_t t0 = NowNs();
      const wr::Status st = service.IngestItem(sched.ingest_rows[op.begin]);
      const std::uint64_t dur = NowNs() - t0;
      tr->End(sp);
      const std::uint64_t done = loop.Complete(op, dur);
      t.ingest_ns += dur;
      ++rep->attempted;
      if (!st.ok()) {
        ++rep->failed;
        continue;
      }
      if (o.trace) {
        raw_rows.push_back(sched.ingest_rows[op.begin]);
        Matrix row(1, raw_rows.back().size());
        row.SetRow(0, raw_rows.back());
        acc->Add(row);
      }
      pending.push_back(op.begin);
      if (service.table_version() != version) {
        version = service.table_version();
        ++rep->attempted;  // the refit
        for (std::size_t p : pending) {
          t.visible_ms.push_back(
              static_cast<double>(done - sched.events[p].due_ns) * 1e-6);
        }
        pending.clear();
        t.refit_ms.push_back(static_cast<double>(dur) * 1e-6);
        on_refit(sp);
      } else {
        t.ingest_us.push_back(static_cast<double>(dur) * 1e-3);
      }
      continue;
    }

    // A request batch.
    const std::size_t n = op.end - op.begin;
    std::vector<wr::serve::ServeRequest> batch(
        sched.requests.begin() + static_cast<std::ptrdiff_t>(op.begin),
        sched.requests.begin() + static_cast<std::ptrdiff_t>(op.end));
    const long bs = tr->Begin("serve.batch", -1, static_cast<long>(op.begin));
    const long hs =
        tr->Begin("serve.handle_batch", bs, static_cast<long>(op.begin));
    const std::uint64_t t0 = NowNs();
    const std::vector<wr::serve::ServeResponse> resp =
        service.HandleBatch(batch);
    const std::uint64_t dur = NowNs() - t0;
    tr->End(hs);
    loop.Complete(op, dur);
    t.handle_ns += dur;
    round_ns += dur;
    round_requests += n;
    t.batch_ms.push_back(static_cast<double>(dur) * 1e-6);
    t.batch_sizes.push_back(n);
    rep->attempted += n;
    if (resp.size() != n) {
      rep->failed += n;
      tr->End(bs);
      continue;
    }

    mirror(batch, &win, &excl);
    for (std::size_t r = 0; r < n; ++r) {
      if (!valid(resp[r], win[r], excl[r])) {
        ++rep->failed;
        continue;
      }
      ++t.served;
      if (resp[r].incremental) ++t.hits;
    }

    // serve_recall10 on the fixed subset of the schedule.
    Matrix h_row;
    for (std::size_t r = 0; r < n; ++r) {
      if ((op.begin + r) % kVerifyStride != 0) continue;
      FreshUserRow(model, table, win[r], &h_row);
      const std::vector<wr::linalg::ScoredItem> truth =
          BruteTopK(h_row.RowPtr(0), table, excl[r], kTopK);
      std::size_t hit = 0;
      for (const wr::linalg::ScoredItem& want : truth) {
        for (const wr::linalg::ScoredItem& got : resp[r].topk) {
          if (got.item == want.item) ++hit;
        }
      }
      t.recall_sum += truth.empty() ? 1.0
                                    : static_cast<double>(hit) /
                                          static_cast<double>(truth.size());
      ++t.recall_n;
    }

    if (o.trace) {
      Matrix users;
      const long fs = tr->Begin("seqrec.session_forward", bs);
      t.steps += replica->Forward(batch, win, resp, &users, &t.replay_steps,
                                &t.replica_consistent);
      tr->End(fs);
      const long ks = tr->Begin("scorer.topk_batch", bs);
      const std::vector<std::vector<wr::linalg::ScoredItem>> lists =
          replica->TopK(users, excl);
      tr->End(ks);
      const double f_ms = tr->Ms(fs);
      const double k_ms = tr->Ms(ks);
      for (std::size_t r = 0; r < n; ++r) {
        if (!SameList(lists[r], resp[r].topk)) t.replica_match = false;
        if (config.scorer.kind == wr::retrieval::ScorerKind::kIvf) {
          t.candidates += replica->Candidates(users, r);
          ++t.candidate_queries;
        }
      }
      t.fwd_ms.push_back(f_ms);
      t.topk_ms.push_back(k_ms);
      t.residual_ms.push_back(t.batch_ms.back() - f_ms - k_ms);
      t.fwd_total_ms += f_ms;
      t.score_total_ms += k_ms;
      t.handle_total_ms += t.batch_ms.back();
      if (config.scorer.kind == wr::retrieval::ScorerKind::kExact) {
        t.score_flop += 2.0 * static_cast<double>(n) *
                      static_cast<double>(table.rows()) *
                      static_cast<double>(table.cols());
        t.exact_score_ms += k_ms;
      } else {
        t.rerank_ms.push_back(k_ms);
      }
    }
    tr->End(bs);
  }
  round_qps.push_back(static_cast<double>(round_requests) /
                      (static_cast<double>(round_ns) * 1e-9));
  if (!pending.empty()) {
    rep->Fail("ingests left pending at the end of the schedule");
  }

  const wr::serve::ServeStats& stats = service.stats();
  const std::size_t refit_failures =
      stats.refit_failures - stats0.refit_failures;
  rep->failed += refit_failures;

  // serve_p50_ms and serve_p99_ms are slow-side quartiles of the rounds'
  // p50s and p99s, so one stretch of the host moves a few rounds, not the
  // metric. Each round holds the same number of requests and of refits.
  const std::size_t per_round = sched.num_requests / rounds;
  std::vector<std::vector<double>> round_latency(rounds);
  for (std::size_t i = 0, req = 0; i < sched.events.size(); ++i) {
    if (sched.events[i].kind != EventKind::kRequest) continue;
    const double ms = static_cast<double>(loop.completion_ns()[i] -
                                          sched.events[i].due_ns) *
                      1e-6;
    t.latency_ms.push_back(ms);
    round_latency[req++ / per_round].push_back(ms);
    t.wait_ms.push_back(static_cast<double>(loop.wait_ns()[i]) * 1e-6);
  }
  std::vector<double> round_p50, round_p99;
  for (const std::vector<double>& r : round_latency) {
    if (!TailSupported(r.size(), 0.99)) {
      rep->Fail("too few requests in a round for a supported p99");
      return;
    }
    round_p50.push_back(Median(r));
    round_p99.push_back(Quantile(r, 0.99));
  }
  const double recall = t.recall_n == 0 ? 0.0 : t.recall_sum / t.recall_n;
  if (recall < w.min_recall10) {
    rep->Fail("serve_recall10 " + std::to_string(recall) + " below " +
              std::to_string(w.min_recall10));
  }
  if (t.visible_ms.empty()) rep->Fail("no ingest became visible");

  Add(&rep->e2e, "serve_qps", SlowSideRate(round_qps), "1/s",
      round_qps.size());
  Add(&rep->e2e, "serve_p50_ms", SlowSideTime(round_p50), "ms",
      t.latency_ms.size());
  Add(&rep->e2e, "serve_p99_ms", SlowSideTime(round_p99), "ms",
      t.latency_ms.size());
  Add(&rep->e2e, "serve_recall10", recall, "ratio", t.recall_n);
  Add(&rep->e2e, "ingest_visible_ms",
      t.visible_ms.empty() ? 0.0 : SlowSideTime(t.visible_ms), "ms",
      t.visible_ms.size());

  // Diagnostics printed on every run.
  const double busy = static_cast<double>(t.handle_ns + t.ingest_ns) /
                      static_cast<double>(std::max<std::uint64_t>(
                          1, loop.server_free_ns()));
  std::printf(
      "perfbench: serve requests=%zu ingests=%zu batches=%zu refits=%zu "
      "server_busy_share=%.3f generator_lateness_ms=0 (virtual clock)\n",
      sched.num_requests, sched.num_ingests, t.batch_ms.size(),
      t.refit_ms.size(), busy);

  if (o.trace) {
    t.evictions = stats.evictions - stats0.evictions;
    ReportServingLayers(
        t, config.scorer.kind == wr::retrieval::ScorerKind::kExact, rep);
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void PrintMetrics(const char* key, const std::vector<Metric>& metrics,
                  std::string* json) {
  *json += "\"";
  *json += key;
  *json += "\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("perfbench: %-32s %.6g %s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %zu}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    *json += buf;
  }
  *json += "}";
}

long PeakRssKb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

int Run(int argc, char** argv) {
  const std::uint64_t process_start = NowNs();
  const Options o = ParseOptions(argc, argv);
  RefuseLibraryEnv();
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr) Usage(("unknown workload " + o.workload).c_str());

  wr::core::SetNumThreads(o.threads);
  wr::linalg::SetItemQuantKind(w->quant);
  Tracer tracer(o.trace);
  Report rep;

  Add(&rep.host, "host.probe_before_gflops", HostProbeGflops(0.3), "gflop/s",
      1);

  // Set-up: the stack of round 1 is the one measured; the other rounds run
  // after serving, each on a freed heap, so the set-up samples span the run
  // like the other phases' samples.
  std::vector<double> setup_s;
  const std::uint64_t setup0 = NowNs();
  std::unique_ptr<Stack> stack = BuildStack(*w, &tracer, 0);
  setup_s.push_back(static_cast<double>(NowNs() - setup0) * 1e-9);

  const std::uint64_t train_fp = FingerprintDataset(stack->data.dataset);
  const std::uint64_t catalog_fp = FingerprintMatrix(stack->catalog_raw);
  std::printf("perfbench: fingerprints train=0x%016llx catalog=0x%016llx\n",
              static_cast<unsigned long long>(train_fp),
              static_cast<unsigned long long>(catalog_fp));
  if (train_fp != w->train_fingerprint ||
      catalog_fp != w->catalog_fingerprint) {
    rep.Fail("library-generated inputs changed (fingerprint mismatch)");
  }
  std::printf("perfbench: workload=%s items(train)=%zu users=%zu "
              "items(serve)=%zu threads=%zu\n",
              w->name, stack->data.dataset.num_items,
              stack->data.dataset.sequences.size(), stack->catalog_raw.rows(),
              wr::core::NumThreads());

  // Host speed drifts over seconds, so the phases are interleaved in rounds:
  // one epoch, one test evaluation and one equal share of the serving
  // schedule per round. Every quartile then draws on samples spread over
  // the whole run.
  TrainPhase train(stack.get(), o, &tracer, &rep);
  std::uint64_t train_ns = 0;
  const std::uint64_t phases0 = NowNs();
  const std::size_t rounds = std::max<std::size_t>(
      2, w->epochs_per_10s * static_cast<std::size_t>(o.seconds) / 10);
  RunServing(stack.get(), *w, o, &tracer, &rep, rounds, [&] {
    const std::uint64_t t0 = NowNs();
    train.Epoch();
    train.EvalRound();
    train_ns += NowNs() - t0;
  });
  const std::uint64_t phases_ns = NowNs() - phases0;
  train.Finish();
  Add(&rep.e2e, "peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB",
      1);
  if (o.trace) {
    Add(&rep.layers, "linalg.workspace_peak_mb",
        static_cast<double>(wr::linalg::Workspace::GlobalPeakBytes()) /
            (1024.0 * 1024.0),
        "MB", 1);
  }

  stack.reset();
  for (std::size_t r = 1; r < kSetupRounds; ++r) {
    const std::uint64_t t0 = NowNs();
    stack = BuildStack(*w, &tracer, static_cast<long>(r));
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    stack.reset();
  }
  Add(&rep.e2e, "setup_s", Median(setup_s), "s", setup_s.size());
  std::fprintf(stderr,
               "perfbench: phase walls setup=%.1f s train+eval=%.1f s "
               "serving+checks=%.1f s\n",
               Sum(setup_s), static_cast<double>(train_ns) * 1e-9,
               static_cast<double>(phases_ns - train_ns) * 1e-9);
  Add(&rep.host, "host.probe_after_gflops", HostProbeGflops(0.3), "gflop/s",
      1);

  if (o.trace) {
    auto median_ms = [&](const char* name, bool self) {
      const std::vector<double> v =
          self ? tracer.SelfMs(name) : tracer.DurationsMs(name);
      return std::make_pair(MedianOr0(v), v.size());
    };
    // Set-up layers: per-round sums, median over rounds.
    std::vector<double> fit_per_round(kSetupRounds, 0.0);
    for (const SpanRecord& sp : tracer.spans()) {
      if (std::strcmp(sp.name, "whitening.fit") == 0 && sp.parent >= 0) {
        const long round =
            tracer.spans()[static_cast<std::size_t>(sp.parent)].request;
        fit_per_round[static_cast<std::size_t>(round)] +=
            static_cast<double>(sp.end_ns - sp.start_ns) * 1e-6;
      }
    }
    const auto gen = median_ms("data.generate", false);
    rep.layers.insert(
        rep.layers.begin(),
        {Metric{"data.generate_s", gen.first * 1e-3, "s", gen.second},
         Metric{"whitening.fit_ms", Median(fit_per_round), "ms",
                kSetupRounds}});
    // Training stages: median self time per step.
    for (const char* stage : {"seqrec.encode_items", "nn.forward", "nn.loss",
                              "nn.backward", "nn.adam"}) {
      const auto m = median_ms(stage, true);
      Add(&rep.layers, std::string(stage) + "_ms", m.first, "ms", m.second);
    }
  }

  if (rep.failed > 0) {
    rep.Fail(std::to_string(rep.failed) + " of " +
             std::to_string(rep.attempted) + " operations failed");
  }
  if (o.trace && !o.spans_path.empty() && !tracer.WriteJson(o.spans_path)) {
    rep.Fail("cannot write spans to " + o.spans_path);
  }
  for (const std::string& e : rep.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }

  std::string json = "{\"correct\": ";
  json += rep.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed) + ", ";
  PrintMetrics("metrics", rep.e2e, &json);
  json += ", ";
  PrintMetrics("layers", rep.layers, &json);
  json += ", ";
  PrintMetrics("host", rep.host, &json);
  json += "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: wall %.1f s\n",
               static_cast<double>(NowNs() - process_start) * 1e-9);
  return rep.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", e.what());
    return 1;
  }
}

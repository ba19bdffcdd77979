#ifndef WHITENREC_SEQREC_TRAINER_H_
#define WHITENREC_SEQREC_TRAINER_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/split.h"
#include "linalg/scorer.h"
#include "nn/optimizer.h"
#include "seqrec/model.h"

namespace whitenrec {
namespace seqrec {

// Training schedule (paper Sec. V-A4: Adam, early stopping when validation
// N@20 stalls for `patience` epochs, weight decay in {0, 1e-4, 1e-6}).
struct TrainConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 128;
  double learning_rate = 1e-3;
  double weight_decay = 0.0;
  std::size_t patience = 3;
  bool restore_best = true;
  // When set, SASRec-backbone models record per-epoch conditioning and
  // alignment/uniformity measurements (paper Figs. 6-7); costs one extra
  // eval pass per epoch. The other models record none.
  bool record_analysis = false;
  std::uint64_t seed = 7;
  bool verbose = false;
  // Crash-safe checkpointing for every model (seqrec/checkpoint.h, DESIGN.md
  // §8). When `checkpoint_dir` is non-empty, a full-state generation is
  // written every `checkpoint_every` epochs (and at the final/early-stop
  // epoch), and with `resume` the newest loadable generation is restored
  // before training —
  // the resumed run reproduces the uninterrupted run's epoch logs and
  // metrics bitwise (timing fields excluded). A non-finite epoch loss rolls
  // the run back to the last good generation up to `rollback_budget` times
  // before giving up. Checkpoint write failures degrade to warnings; they
  // never abort training.
  std::string checkpoint_dir;
  std::size_t checkpoint_every = 1;
  bool resume = false;
  std::size_t rollback_budget = 2;
};

struct EpochLog {
  std::size_t epoch = 0;
  double train_loss = 0.0;
  double valid_ndcg20 = 0.0;
  double seconds = 0.0;
  // Analysis fields (populated when record_analysis is on).
  double condition_number = 0.0;
  double l_align = 0.0;
  double l_uniform_user = 0.0;
  double l_uniform_item = 0.0;
};

struct TrainResult {
  std::vector<EpochLog> epochs;
  std::size_t best_epoch = 0;
  double best_valid_ndcg20 = 0.0;
  double avg_epoch_seconds = 0.0;
  std::size_t num_parameters = 0;
};

// Ranking evaluation result at K = 20 and 50 (paper's reported cut-offs).
struct EvalResult {
  double recall20 = 0.0;
  double ndcg20 = 0.0;
  double recall50 = 0.0;
  double ndcg50 = 0.0;
  std::size_t count = 0;
};

// A custom per-batch step for baselines that add auxiliary objectives
// (CL4SRec, S3-Rec). Returns the batch loss; gradients must be accumulated
// into the parameters the optimizer owns.
using StepFn = std::function<double(SasRecModel*, const data::Batch&)>;

// Named RNG streams; checkpoints save and restore them in list order.
using RngStreams = std::vector<std::pair<std::string, linalg::Rng*>>;

// Anything that ranks the catalog for a batch of contexts. Every score is
// an inner product (paper Fig. 1's prediction layer): ScoreFactors fills
// *users (batch_size, d) and *items (num_items, d) with
// scores = users * items^T, and every ranking path (EvaluateRanking,
// TopKRecommendations, serving) streams that product tile by tile instead
// of materializing it.
class Recommender {
 public:
  virtual ~Recommender() = default;
  virtual std::string name() const = 0;
  virtual std::size_t num_items() const = 0;
  // Fills the factors of each sequence's last position and returns true.
  // The bool is kept for existing overrides (perfbench's ModelView); the
  // ranking paths check it.
  virtual bool ScoreFactors(const data::Batch& batch, linalg::Matrix* users,
                            linalg::Matrix* items) = 0;
  // The full (batch_size, num_items) score matrix users * items^T, for
  // tests and sampled metrics; full ranking never calls it.
  virtual linalg::Matrix ScoreLastPositions(const data::Batch& batch);
};

// A recommender this library trains: every model factory returns one, and
// every Fit runs TrainRecommender below.
class TrainableRecommender : public Recommender {
 public:
  // Trains on split.train, early-stopping on validation N@20, and leaves
  // the best epoch's parameters in place when config.restore_best is set.
  virtual const TrainResult& Fit(const data::Split& split,
                                 const TrainConfig& config) = 0;
  // Everything Fit updates, in a fixed order: what a checkpoint saves and
  // nn::LoadParameters restores.
  virtual std::vector<nn::Parameter*> Parameters() = 0;
  // Total scalar count over Parameters().
  std::size_t NumParameters();
};

// One model's share of a training run. TrainRecommender owns the epoch loop
// every model shares (paper Sec. V-A4): Adam built from TrainConfig,
// per-epoch timing, the non-finite-loss rollback, validation N@20 with the
// patience rule, the best-epoch snapshot and its restore, checkpoint
// generations and resume, and verbose logging. A model's Fit supplies only
// what differs.
struct TrainTask {
  Recommender* recommender = nullptr;  // scored by validation every epoch
  std::size_t max_len = 0;             // validation context length
  std::vector<nn::Parameter*> params;  // what Adam updates
  // Every stream an epoch draws from. A generation whose stream names
  // differ is refused with a typed error and skipped on resume.
  RngStreams rngs;
  // A sample order that each epoch reshuffles in place and so carries from
  // epoch to epoch (FPMC's triples, GRCN's and BM3's pairs). Saved with
  // every generation; null when an epoch's batches depend only on the RNGs.
  std::vector<std::size_t>* sample_order = nullptr;
  // Runs one epoch's batches, calling optimizer->Step() after each, and
  // returns the mean batch loss (see MeanStepLoss).
  std::function<double(nn::Adam* optimizer)> run_epoch;
  // Fills the analysis fields of an epoch's log when record_analysis is on.
  std::function<void(EpochLog* log)> analyze;
};

// Trains `task` on split.train, early-stopping on validation N@20.
TrainResult TrainRecommender(const TrainTask& task, const data::Split& split,
                             const TrainConfig& config);

// Runs `num_batches` optimizer steps — step(i) accumulates batch i's
// gradients and returns its loss — and returns the mean loss (0 for none).
double MeanStepLoss(std::size_t num_batches, nn::Adam* optimizer,
                    const std::function<double(std::size_t)>& step);

// One pass over `samples` for models whose epoch reshuffles a carried
// order (TrainTask::sample_order): shuffles `order` in place with `rng`, then
// hands `step` the samples `batch_size` at a time in that order (the last
// batch may be short), stepping `optimizer` after each. Returns the mean
// batch loss.
template <typename T, typename Step>
double ShuffledPass(const std::vector<T>& samples,
                    std::vector<std::size_t>* order, linalg::Rng* rng,
                    std::size_t batch_size, nn::Adam* optimizer, Step step) {
  rng->Shuffle(order);
  const std::size_t n = order->size();
  return MeanStepLoss((n + batch_size - 1) / batch_size, optimizer,
                      [&](std::size_t i) {
                        std::vector<T> batch;
                        for (std::size_t k = i * batch_size;
                             k < std::min(n, (i + 1) * batch_size); ++k) {
                          batch.push_back(samples[(*order)[k]]);
                        }
                        return step(batch);
                      });
}

// The Fit of every model trained on data::MakeTrainBatches windows with one
// `step` per batch (SASRec models, FDSA, GRU4Rec, BERT4Rec, Caser): runs
// TrainRecommender on recommender->Parameters(), validating on `max_len`
// contexts. Each epoch's batches are drawn from a stream seeded with
// config.seed, checkpointed as `shuffle` ahead of `streams`.
TrainResult FitWindows(TrainableRecommender* recommender,
                       const data::Split& split, const TrainConfig& config,
                       std::size_t max_len, const RngStreams& streams,
                       const std::function<double(const data::Batch&)>& step,
                       std::function<void(EpochLog* log)> analyze = nullptr);

// SASRec-backbone recommender: owns the model and trains it through
// FitWindows. Extra trainable parameters from auxiliary tasks can be
// added before Fit().
class SasRecRecommender : public TrainableRecommender {
 public:
  SasRecRecommender(std::string name, std::unique_ptr<ItemEncoder> encoder,
                    const SasRecConfig& model_config);

  std::string name() const override { return name_; }
  std::size_t num_items() const override { return model_->num_items(); }
  bool ScoreFactors(const data::Batch& batch, linalg::Matrix* users,
                    linalg::Matrix* items) override {
    model_->ScoreFactors(batch, users, items);
    return true;
  }
  const TrainResult& Fit(const data::Split& split,
                         const TrainConfig& config) override;
  // The model's parameters, then the extra ones in the order added.
  std::vector<nn::Parameter*> Parameters() override;

  SasRecModel* model() { return model_.get(); }
  void AddExtraParameters(const std::vector<nn::Parameter*>& params);
  // Replaces the plain SASRec step. `rngs` names the streams the step draws
  // from, so checkpoints save them after the model's own.
  void SetStep(StepFn step, RngStreams rngs = {}) {
    step_ = std::move(step);
    step_rngs_ = std::move(rngs);
  }

 private:
  std::string name_;
  std::unique_ptr<SasRecModel> model_;
  std::vector<nn::Parameter*> extra_params_;
  StepFn step_;
  RngStreams step_rngs_;
  TrainResult result_;
};

// Top-K recommendation lists: for each instance, the K best-scoring items
// (excluding the user's training items), ordered by score descending with
// ties broken toward the smaller item id. The factors route through the
// linalg::Scorer seam — by default the exact streaming bounded top-K
// selector (O(K) state per user, score panels consumed tile-by-tile), whose
// lists are IDENTICAL to selecting from the full score row
// (tests/topk_test.cc). A caller-injected `scorer` (e.g.
// retrieval::MakeScorer for the sublinear IVF index; recall-vs-exact
// reported by bench_ann) is rebuilt on this eval's item table and replaces
// the exact one — injection keeps seqrec below the backend modules in the
// include-graph layering (tools/analyze).
std::vector<std::vector<std::size_t>> TopKRecommendations(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, std::size_t k, std::size_t batch_size = 256,
    linalg::Scorer* scorer = nullptr);

// Full-ranking evaluation over `instances`; items in the user's training
// sequence (train_sequences[user]) are excluded from the candidate pool.
EvalResult EvaluateRanking(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, std::size_t batch_size = 256);

// Validation N@20 only (used for early stopping).
double ValidationNdcg20(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, std::size_t batch_size = 256);

// Sampled-metrics evaluation (Krichene & Rendle): each target is ranked
// against `num_negatives` uniformly sampled candidates instead of the whole
// catalog. Provided to demonstrate the protocol inconsistency the paper
// avoids (bench_ext_sampled_metrics); the headline tables always use
// EvaluateRanking.
EvalResult EvaluateRankingSampled(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, std::size_t num_negatives = 100,
    std::uint64_t seed = 5, std::size_t batch_size = 256);

// Popularity-stratified full-ranking evaluation: instances whose target is
// among the most-interacted `head_fraction` of items form the head stratum,
// the rest the tail. Quantifies where a model's wins come from (text-based
// models typically win the tail).
struct StratifiedEvalResult {
  EvalResult head;
  EvalResult tail;
};
StratifiedEvalResult EvaluateRankingByPopularity(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, double head_fraction = 0.2,
    std::size_t batch_size = 256);

}  // namespace seqrec
}  // namespace whitenrec

#endif  // WHITENREC_SEQREC_TRAINER_H_

#include "seqrec/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "seqrec/checkpoint.h"
#include "eval/alignment_uniformity.h"
#include "eval/conditioning.h"
#include "eval/metrics.h"
#include "linalg/gemm.h"
#include "linalg/topk.h"
#include "linalg/scorer.h"

namespace whitenrec {
namespace seqrec {

using linalg::Matrix;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-row exclusion state for the streaming evaluation paths: the user's
// training items, sorted ascending, walked with a monotone cursor as score
// tiles arrive in ascending item order. Membership tests cost O(1) amortized
// per scored item with O(|history|) memory — no (batch, num_items) bitmap.
struct SortedExclusions {
  std::vector<std::vector<std::size_t>> items;  // per row, sorted (dups ok)
  std::vector<std::size_t> cursor;              // per row, monotone

  void Build(const std::vector<data::EvalInstance>& instances,
             std::size_t inst_base, std::size_t batch_rows,
             const std::vector<std::vector<std::size_t>>& train_sequences) {
    items.assign(batch_rows, {});
    cursor.assign(batch_rows, 0);
    for (std::size_t b = 0; b < batch_rows; ++b) {
      const data::EvalInstance& inst = instances[inst_base + b];
      if (inst.user < train_sequences.size()) {
        items[b] = train_sequences[inst.user];
        std::sort(items[b].begin(), items[b].end());
      }
    }
  }

  // Advances row b's cursor to `item`; true if item is excluded. Rows are
  // queried with ascending item ids, so the cursor never rewinds.
  bool IsExcluded(std::size_t b, std::size_t item) {
    const std::vector<std::size_t>& excl = items[b];
    std::size_t cur = cursor[b];
    while (cur < excl.size() && excl[cur] < item) ++cur;
    cursor[b] = cur;
    return cur < excl.size() && excl[cur] == item;
  }
};

// Streaming exact ranks for one batch: the target's score is precomputed
// with the canonical row dot (bitwise equal to its GEMM score), then each
// score panel is consumed from the fused epilogue, counting non-excluded
// items that score strictly higher. Ranks — and therefore every metric,
// including MRR — are identical to ranking the full score row
// (tests/topk_test.cc holds them to that oracle bitwise).
void RankBatchStreaming(
    const data::Batch& batch, const Matrix& users, const Matrix& items,
    const std::vector<data::EvalInstance>& instances, std::size_t inst_base,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::vector<std::size_t>* ranks) {
  const std::size_t rows = batch.batch_size;
  SortedExclusions excl;
  excl.Build(instances, inst_base, rows, train_sequences);
  std::vector<double> target_score(rows);
  for (std::size_t b = 0; b < rows; ++b) {
    target_score[b] =
        linalg::RowDotTransB(users, b, items, instances[inst_base + b].target);
  }
  std::vector<std::size_t> higher(rows, 0);
  linalg::StreamMatMulTransB(
      users, items,
      [&](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t jn,
          const Matrix& panel) {
        for (std::size_t b = i0; b < i1; ++b) {
          const double* prow = panel.RowPtr(b);
          const std::size_t target = instances[inst_base + b].target;
          const double ts = target_score[b];
          std::size_t count = higher[b];
          for (std::size_t c = 0; c < jn; ++c) {
            const std::size_t item = j0 + c;
            if (excl.IsExcluded(b, item) || item == target) continue;
            if (prow[c] > ts) ++count;
          }
          higher[b] = count;
        }
      });
  for (std::size_t b = 0; b < rows; ++b) (*ranks)[b] = higher[b];
}

// Internal full-ranking pass shared by EvaluateRanking / ValidationNdcg20.
eval::MetricAccumulator RankInstances(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, std::size_t batch_size,
    std::vector<std::size_t> ks) {
  eval::MetricAccumulator acc(std::move(ks));
  const std::vector<data::Batch> batches =
      data::MakeEvalBatches(instances, max_len, batch_size);
  Matrix users;
  Matrix item_table;
  std::size_t inst_base = 0;
  for (const data::Batch& batch : batches) {
    std::vector<std::size_t> ranks(batch.batch_size);
    const bool factored =
        recommender->ScoreFactors(batch, &users, &item_table);
    WR_CHECK(factored);
    RankBatchStreaming(batch, users, item_table, instances, inst_base,
                       train_sequences, &ranks);
    for (std::size_t b = 0; b < batch.batch_size; ++b) acc.AddRank(ranks[b]);
    inst_base += batch.batch_size;
  }
  return acc;
}

EvalResult ResultFromAccumulator(const eval::MetricAccumulator& acc) {
  EvalResult r;
  r.recall20 = acc.RecallAt(20);
  r.ndcg20 = acc.NdcgAt(20);
  r.recall50 = acc.RecallAt(50);
  r.ndcg50 = acc.NdcgAt(50);
  r.count = acc.count();
  return r;
}

// Snapshot / restore of parameter values for best-epoch restoration.
std::vector<Matrix> SnapshotParams(const std::vector<nn::Parameter*>& params) {
  std::vector<Matrix> out;
  out.reserve(params.size());
  for (const nn::Parameter* p : params) out.push_back(p->value);
  return out;
}

void RestoreParams(const std::vector<Matrix>& snapshot,
                   const std::vector<nn::Parameter*>& params) {
  WR_CHECK_EQ(snapshot.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snapshot[i];
  }
}

}  // namespace

Matrix Recommender::ScoreLastPositions(const data::Batch& batch) {
  Matrix users;
  Matrix items;
  const bool factored = ScoreFactors(batch, &users, &items);
  WR_CHECK(factored);
  return linalg::MatMulTransB(users, items);
}

std::size_t TrainableRecommender::NumParameters() {
  std::size_t n = 0;
  for (const nn::Parameter* p : Parameters()) n += p->NumElements();
  return n;
}

TrainResult TrainRecommender(const TrainTask& task, const data::Split& split,
                             const TrainConfig& config) {
  nn::Adam::Options opts;
  opts.learning_rate = config.learning_rate;
  opts.weight_decay = config.weight_decay;
  nn::Adam optimizer(task.params, opts);
  TrainResult result;
  result.num_parameters = optimizer.NumParameters();

  // Checkpoints restore into exactly what the loop mutates: every optimizer
  // parameter, the optimizer moments, the task's RNG streams and sample
  // order, and the bookkeeping below. `best_snapshot` is aligned with
  // `task.params`.
  TrainerBookkeeping book;
  std::vector<Matrix> best_snapshot;

  CheckpointRefs refs;
  refs.params = task.params;
  refs.optimizer = &optimizer;
  refs.rngs = task.rngs;
  refs.sample_order = task.sample_order;
  refs.book = &book;
  refs.best_params = &best_snapshot;

  std::unique_ptr<CheckpointManager> manager;
  std::size_t rollback_left = config.rollback_budget;
  if (!config.checkpoint_dir.empty()) {
    manager = std::make_unique<CheckpointManager>(config.checkpoint_dir);
    const Status st = manager->Init();
    if (!st.ok()) {
      std::fprintf(stderr,
                   "whitenrec: checkpointing disabled, cannot create %s: %s\n",
                   config.checkpoint_dir.c_str(), st.ToString().c_str());
      manager.reset();
    }
  }
  if (manager != nullptr) {
    if (config.resume) {
      std::string loaded;
      if (manager->TryLoadLatest(refs, &loaded) && config.verbose) {
        std::fprintf(stderr, "  resumed from %s (next epoch %llu)\n",
                     loaded.c_str(),
                     static_cast<unsigned long long>(book.next_epoch));
      }
    }
    if (book.next_epoch == 0) {
      // Initial generation: the divergence guard needs a pre-training state
      // to roll back to even if epoch 0 itself produces a non-finite loss.
      const Status st = manager->WriteGeneration(refs);
      if (!st.ok()) {
        std::fprintf(stderr, "whitenrec: checkpoint write failed: %s\n",
                     st.ToString().c_str());
      }
    }
  }

  while (book.next_epoch < config.epochs) {
    // A restored run may already have exhausted its patience (killed after
    // the stop decision was durable but before the run ended).
    if (!split.valid.empty() && book.stall > 0 &&
        book.stall >= config.patience) {
      break;
    }
    const std::size_t epoch = static_cast<std::size_t>(book.next_epoch);
    const double t0 = Now();
    const double train_loss = task.run_epoch(&optimizer);

    // Divergence guard: a non-finite epoch loss means the trajectory is
    // poisoned. Roll back to the last good generation (bounded retries)
    // rather than logging NaNs or feeding them to early stopping.
    if (!std::isfinite(train_loss)) {
      std::fprintf(stderr,
                   "whitenrec: non-finite training loss %g at epoch %zu\n",
                   train_loss, epoch);
      if (manager != nullptr && rollback_left > 0 &&
          manager->TryLoadLatest(refs)) {
        --rollback_left;
        std::fprintf(stderr,
                     "whitenrec: rolled back to epoch %llu (%zu retries "
                     "left)\n",
                     static_cast<unsigned long long>(book.next_epoch),
                     rollback_left);
        continue;
      }
      std::fprintf(stderr, "whitenrec: no rollback available, stopping\n");
      break;
    }

    const double epoch_seconds = Now() - t0;
    book.total_seconds += epoch_seconds;

    EpochLog log;
    log.epoch = epoch;
    log.train_loss = train_loss;
    log.seconds = epoch_seconds;
    log.valid_ndcg20 =
        split.valid.empty()
            ? 0.0
            : ValidationNdcg20(task.recommender, split.valid, split.train,
                               task.max_len);
    if (config.record_analysis && task.analyze && !split.valid.empty()) {
      task.analyze(&log);
    }

    book.epochs.push_back(log);
    if (config.verbose) {
      // Progress goes to stderr: callers pipe stdout (bench JSON, example
      // CSVs) and library chatter must not corrupt it.
      std::fprintf(stderr, "  epoch %2zu loss %.4f valid N@20 %.4f (%.2fs)\n",
                   epoch, log.train_loss, log.valid_ndcg20, epoch_seconds);
    }

    // Early stopping on validation N@20.
    const bool improved = log.valid_ndcg20 > book.best_valid_ndcg20;
    if (improved) {
      book.best_valid_ndcg20 = log.valid_ndcg20;
      book.best_epoch = epoch;
      book.stall = 0;
      // The snapshot also rides inside every checkpoint generation, so it is
      // kept whenever a manager is active even if restore_best is off.
      if (config.restore_best || manager != nullptr) {
        best_snapshot = SnapshotParams(task.params);
      }
    } else {
      ++book.stall;
    }
    book.next_epoch = epoch + 1;
    const bool stop =
        (!split.valid.empty() && !improved && book.stall >= config.patience) ||
        book.next_epoch >= config.epochs;

    if (manager != nullptr) {
      if (stop || config.checkpoint_every <= 1 ||
          book.next_epoch % config.checkpoint_every == 0) {
        const Status st = manager->WriteGeneration(refs);
        if (!st.ok()) {
          std::fprintf(stderr, "whitenrec: checkpoint write failed: %s\n",
                       st.ToString().c_str());
        }
      }
      if (improved) {
        const Status st = manager->WriteBest(refs);
        if (!st.ok()) {
          std::fprintf(stderr, "whitenrec: best-model write failed: %s\n",
                       st.ToString().c_str());
        }
      }
    }
    if (stop) break;
  }

  if (config.restore_best && !best_snapshot.empty()) {
    RestoreParams(best_snapshot, task.params);
  }
  result.epochs = std::move(book.epochs);
  result.best_epoch = static_cast<std::size_t>(book.best_epoch);
  result.best_valid_ndcg20 =
      book.best_valid_ndcg20 < 0.0 ? 0.0 : book.best_valid_ndcg20;
  result.avg_epoch_seconds =
      result.epochs.empty() ? 0.0
                            : book.total_seconds / static_cast<double>(
                                                       result.epochs.size());
  return result;
}

double MeanStepLoss(std::size_t num_batches, nn::Adam* optimizer,
                    const std::function<double(std::size_t)>& step) {
  double loss_sum = 0.0;
  for (std::size_t i = 0; i < num_batches; ++i) {
    loss_sum += step(i);
    optimizer->Step();
  }
  return num_batches == 0 ? 0.0
                          : loss_sum / static_cast<double>(num_batches);
}

TrainResult FitWindows(TrainableRecommender* recommender,
                       const data::Split& split, const TrainConfig& config,
                       std::size_t max_len, const RngStreams& streams,
                       const std::function<double(const data::Batch&)>& step,
                       std::function<void(EpochLog* log)> analyze) {
  linalg::Rng shuffle_rng(config.seed);
  TrainTask task;
  task.recommender = recommender;
  task.max_len = max_len;
  task.params = recommender->Parameters();
  task.rngs = {{"shuffle", &shuffle_rng}};
  task.rngs.insert(task.rngs.end(), streams.begin(), streams.end());
  task.run_epoch = [&](nn::Adam* optimizer) {
    const std::vector<data::Batch> batches = data::MakeTrainBatches(
        split.train, max_len, config.batch_size, &shuffle_rng);
    return MeanStepLoss(batches.size(), optimizer, [&](std::size_t i) {
      return step(batches[i]);
    });
  };
  task.analyze = std::move(analyze);
  return TrainRecommender(task, split, config);
}

SasRecRecommender::SasRecRecommender(std::string name,
                                     std::unique_ptr<ItemEncoder> encoder,
                                     const SasRecConfig& model_config)
    : name_(std::move(name)),
      model_(std::make_unique<SasRecModel>(std::move(encoder), model_config)) {}

void SasRecRecommender::AddExtraParameters(
    const std::vector<nn::Parameter*>& params) {
  extra_params_.insert(extra_params_.end(), params.begin(), params.end());
}

const TrainResult& SasRecRecommender::Fit(const data::Split& split,
                                          const TrainConfig& config) {
  SasRecModel* model = model_.get();
  const std::size_t max_len = model->config().max_len;
  linalg::Rng analysis_rng(config.seed + 17);
  RngStreams streams = {{"analysis", &analysis_rng}, {"model", model->rng()}};
  streams.insert(streams.end(), step_rngs_.begin(), step_rngs_.end());
  auto analyze = [&](EpochLog* log) {
    const Matrix v = model->EncodeItems(/*train=*/false);
    log->condition_number = eval::ItemEmbeddingConditionNumber(v);
    // User representations + positives over the validation instances.
    const std::vector<data::Batch> vb =
        data::MakeEvalBatches(split.valid, max_len, /*batch_size=*/512);
    std::vector<std::vector<double>> rep_rows;
    std::vector<std::size_t> positives;
    std::size_t idx = 0;
    for (const data::Batch& batch : vb) {
      const Matrix reps = model->UserRepresentations(batch);
      for (std::size_t b = 0; b < batch.batch_size; ++b) {
        rep_rows.push_back(reps.Row(b));
        positives.push_back(split.valid[idx++].target);
      }
    }
    Matrix user_reps(rep_rows.size(), model->config().hidden_dim);
    for (std::size_t r = 0; r < rep_rows.size(); ++r) {
      user_reps.SetRow(r, rep_rows[r]);
    }
    const eval::AlignmentUniformity au = eval::MeasureAlignmentUniformity(
        user_reps, v, positives, &analysis_rng);
    log->l_align = au.l_align;
    log->l_uniform_user = au.l_uniform_user;
    log->l_uniform_item = au.l_uniform_item;
  };
  result_ = FitWindows(
      this, split, config, max_len, streams,
      [this, model](const data::Batch& batch) {
        return step_ ? step_(model, batch) : model->TrainStep(batch);
      },
      analyze);
  return result_;
}

std::vector<nn::Parameter*> SasRecRecommender::Parameters() {
  std::vector<nn::Parameter*> params = model_->Parameters();
  params.insert(params.end(), extra_params_.begin(), extra_params_.end());
  return params;
}

std::vector<std::vector<std::size_t>> TopKRecommendations(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, std::size_t k, std::size_t batch_size,
    linalg::Scorer* scorer) {
  WR_CHECK_GT(k, 0u);
  std::vector<std::vector<std::size_t>> out;
  out.reserve(instances.size());
  const std::vector<data::Batch> batches =
      data::MakeEvalBatches(instances, max_len, batch_size);
  // Batches route through the Scorer seam (linalg/scorer.h): the exact
  // streaming scorer by default, or an injected `scorer` such as
  // retrieval's IVF backend. The scorer indexes the item table once: eval
  // re-encodes a bitwise-identical table per batch into the same Matrix
  // object, so the borrowed table stays valid and current across batches.
  std::unique_ptr<linalg::Scorer> owned_scorer;
  bool scorer_ready = false;
  Matrix users;
  Matrix item_table;
  std::size_t inst_base = 0;
  for (const data::Batch& batch : batches) {
    const std::size_t rows = batch.batch_size;
    const bool factored =
        recommender->ScoreFactors(batch, &users, &item_table);
    WR_CHECK(factored);
    // One bounded selector per user: O(k) ranking state per row, never a
    // full score row, for the exact and the IVF backend alike.
    std::vector<std::vector<std::size_t>> exclusions(rows);
    for (std::size_t b = 0; b < rows; ++b) {
      const data::EvalInstance& inst = instances[inst_base + b];
      if (inst.user < train_sequences.size()) {
        exclusions[b] = train_sequences[inst.user];
        std::sort(exclusions[b].begin(), exclusions[b].end());
      }
    }
    std::vector<linalg::TopKSelector> selectors;
    selectors.reserve(rows);
    for (std::size_t b = 0; b < rows; ++b) selectors.emplace_back(k);
    if (!scorer_ready) {
      if (scorer == nullptr) {
        owned_scorer = linalg::MakeExactScorer();
        scorer = owned_scorer.get();
      }
      scorer->Rebuild(item_table);
      scorer_ready = true;
    }
    scorer->TopKBatch(users, exclusions, &selectors);
    for (std::size_t b = 0; b < rows; ++b) {
      const std::vector<linalg::ScoredItem> top =
          selectors[b].SortedDescending();
      std::vector<std::size_t> list;
      list.reserve(top.size());
      for (const linalg::ScoredItem& si : top) list.push_back(si.item);
      out.push_back(std::move(list));
    }
    inst_base += rows;
  }
  return out;
}

EvalResult EvaluateRanking(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, std::size_t batch_size) {
  return ResultFromAccumulator(RankInstances(recommender, instances,
                                             train_sequences, max_len,
                                             batch_size, {20, 50}));
}

double ValidationNdcg20(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, std::size_t batch_size) {
  eval::MetricAccumulator acc = RankInstances(
      recommender, instances, train_sequences, max_len, batch_size, {20});
  return acc.NdcgAt(20);
}

EvalResult EvaluateRankingSampled(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, std::size_t num_negatives, std::uint64_t seed,
    std::size_t batch_size) {
  eval::MetricAccumulator acc({20, 50});
  linalg::Rng rng(seed);
  const std::size_t num_items = recommender->num_items();
  const std::vector<data::Batch> batches =
      data::MakeEvalBatches(instances, max_len, batch_size);
  std::size_t inst_idx = 0;
  std::vector<char> excluded(num_items, 0);
  for (const data::Batch& batch : batches) {
    const Matrix scores = recommender->ScoreLastPositions(batch);
    for (std::size_t b = 0; b < batch.batch_size; ++b) {
      const data::EvalInstance& inst = instances[inst_idx++];
      std::fill(excluded.begin(), excluded.end(), 0);
      if (inst.user < train_sequences.size()) {
        for (std::size_t item : train_sequences[inst.user]) excluded[item] = 1;
      }
      acc.AddRank(eval::SampledRankOfTarget(
          std::vector<double>(scores.RowPtr(b), scores.RowPtr(b) + num_items),
          inst.target, excluded, num_negatives, &rng));
    }
  }
  return ResultFromAccumulator(acc);
}

StratifiedEvalResult EvaluateRankingByPopularity(
    Recommender* recommender, const std::vector<data::EvalInstance>& instances,
    const std::vector<std::vector<std::size_t>>& train_sequences,
    std::size_t max_len, double head_fraction, std::size_t batch_size) {
  WR_CHECK_GT(head_fraction, 0.0);
  WR_CHECK_LT(head_fraction, 1.0);
  const std::size_t num_items = recommender->num_items();
  // Popularity = training interaction count per item.
  std::vector<std::size_t> pop(num_items, 0);
  for (const auto& seq : train_sequences) {
    for (std::size_t item : seq) ++pop[item];
  }
  const std::size_t head_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(head_fraction *
                                  static_cast<double>(num_items)));
  // nth_element head/tail split with a deterministic tie-break — O(|I|)
  // instead of a full sort, and the head set is a pure function of the
  // counts (tests/topk_test.cc pins it against a sort-based reference).
  const std::vector<char> is_head = eval::PopularityHeadSet(pop, head_count);

  std::vector<data::EvalInstance> head_instances;
  std::vector<data::EvalInstance> tail_instances;
  for (const data::EvalInstance& inst : instances) {
    (is_head[inst.target] ? head_instances : tail_instances).push_back(inst);
  }
  StratifiedEvalResult out;
  if (!head_instances.empty()) {
    out.head = EvaluateRanking(recommender, head_instances, train_sequences,
                               max_len, batch_size);
  }
  if (!tail_instances.empty()) {
    out.tail = EvaluateRanking(recommender, tail_instances, train_sequences,
                               max_len, batch_size);
  }
  return out;
}

}  // namespace seqrec
}  // namespace whitenrec

#ifndef WHITENREC_BENCH_BENCH_COMMON_H_
#define WHITENREC_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/parallel.h"
#include "data/generator.h"
#include "data/split.h"
#include "linalg/scorer.h"
#include "linalg/topk.h"
#include "seqrec/model.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace bench {

// Shared experiment configuration for the table/figure harnesses. The scale
// and epoch budget can be overridden via environment variables so the same
// binaries serve both the quick default run and a longer, closer-to-paper
// sweep:
//   WHITENREC_SCALE   dataset scale multiplier (default 1.0)
//   WHITENREC_EPOCHS  training epoch cap       (default 12)
// A set but malformed value exits naming the knob (core/env.h).

inline double EnvScale() {
  return core::EnvDouble("WHITENREC_SCALE", 1.0, 0.0, 1000.0);
}

inline std::size_t EnvEpochs() { return core::EnvSize("WHITENREC_EPOCHS", 12); }

// Sets the worker-thread count from `--threads N` / `--threads=N`, else from
// WHITENREC_THREADS, else hardware concurrency (which 0 also selects), and
// returns the resulting setting.
inline std::size_t ApplyThreadsFlag(int argc, char** argv) {
  std::size_t threads = core::EnvSize("WHITENREC_THREADS", 0);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      threads = core::OrExit("--threads", core::ParseSize(arg.substr(10)));
    } else if (arg == "--threads") {
      if (i + 1 == argc) {
        core::ExitWithConfigError(
            "--threads", Status::InvalidArgument("requires a value"));
      }
      threads = core::OrExit("--threads", core::ParseSize(argv[++i]));
    }
  }
  core::SetNumThreads(threads);
  return core::NumThreads();
}

inline seqrec::SasRecConfig DefaultModelConfig() {
  seqrec::SasRecConfig config;
  config.hidden_dim = 32;
  config.num_blocks = 2;
  config.num_heads = 2;
  config.ffn_hidden = 64;
  config.dropout = 0.2;
  config.max_len = 12;
  config.seed = 42;
  return config;
}

inline seqrec::TrainConfig DefaultTrainConfig() {
  seqrec::TrainConfig config;
  config.epochs = EnvEpochs();
  config.batch_size = 128;
  config.learning_rate = 1e-3;
  config.weight_decay = 0.0;
  config.patience = 3;
  return config;
}

// Generates one of the paper's datasets at the env-configured scale.
inline data::GeneratedData LoadDataset(const data::DatasetProfile& profile) {
  std::printf("[data] generating %s ...\n", profile.name.c_str());
  return data::GenerateDataset(profile);
}

// Convenience: trains any recommender (each Fit runs seqrec's one training
// loop) and evaluates it on test.
inline seqrec::EvalResult FitAndEvaluate(seqrec::TrainableRecommender* rec,
                                         const data::Split& split,
                                         const seqrec::TrainConfig& config,
                                         std::size_t max_len) {
  rec->Fit(split, config);
  return seqrec::EvaluateRanking(rec, split.test, split.train, max_len);
}

inline double Seconds(std::chrono::steady_clock::time_point t0,
                      std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// Top-K lists for every query row through a Scorer backend; returns the
// seconds the scoring took.
inline double TimedTopK(linalg::Scorer* scorer, const linalg::Matrix& queries,
                        std::size_t k,
                        std::vector<std::vector<linalg::ScoredItem>>* lists) {
  std::vector<linalg::TopKSelector> selectors;
  selectors.reserve(queries.rows());
  for (std::size_t r = 0; r < queries.rows(); ++r) selectors.emplace_back(k);
  const auto t0 = std::chrono::steady_clock::now();
  scorer->TopKBatch(queries, {}, &selectors);
  const auto t1 = std::chrono::steady_clock::now();
  lists->clear();
  lists->reserve(selectors.size());
  for (const linalg::TopKSelector& sel : selectors) {
    lists->push_back(sel.SortedDescending());
  }
  return Seconds(t0, t1);
}

// Table formatting helpers (plain fixed-width text, like the paper rows).
inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-22s", "model");
  for (const auto& c : columns) std::printf("%12s", c.c_str());
  std::printf("\n");
}

inline void PrintRow(const std::string& name,
                     const std::vector<double>& values) {
  std::printf("%-22s", name.c_str());
  for (double v : values) std::printf("%12.4f", v);
  std::printf("\n");
}

}  // namespace bench
}  // namespace whitenrec

#endif  // WHITENREC_BENCH_BENCH_COMMON_H_

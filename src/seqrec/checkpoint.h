#ifndef WHITENREC_SEQREC_CHECKPOINT_H_
#define WHITENREC_SEQREC_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "linalg/rng.h"
#include "nn/optimizer.h"
#include "seqrec/trainer.h"

namespace whitenrec {
namespace seqrec {

// Crash-safe training checkpoints (DESIGN.md §8). A generation captures the
// COMPLETE mutable state of TrainRecommender at an epoch boundary —
// parameters, Adam step count and moments, every RNG stream the model names
// (e.g. SASRec's batch shuffle, analysis sampling and dropout), the carried
// sample order of the models that reshuffle one in place, trainer
// bookkeeping, and the best-model snapshot — so a run killed at any boundary
// and resumed reproduces the uninterrupted run's epoch logs and final
// metrics bitwise (tests/checkpoint_test.cc).

// The loop state that lives outside tensors. `next_epoch` is the first
// epoch the restored run must execute.
struct TrainerBookkeeping {
  std::uint64_t next_epoch = 0;
  std::uint64_t best_epoch = 0;
  std::uint64_t stall = 0;                // epochs since validation improved
  double best_valid_ndcg20 = -1.0;        // sentinel: nothing seen yet
  double total_seconds = 0.0;             // wall clock, informational only
  std::vector<EpochLog> epochs;
};

// Borrowed views of the live training state a checkpoint reads or writes.
// Optional members may be null: a params-only checkpoint omits the rest.
struct CheckpointRefs {
  std::vector<nn::Parameter*> params;
  nn::Adam* optimizer = nullptr;
  RngStreams rngs;
  std::vector<std::size_t>* sample_order = nullptr;  // a permutation
  TrainerBookkeeping* book = nullptr;
  // Best-model snapshot riding inside every generation (aligned with
  // `params`; empty when no epoch has completed). Embedding it makes one
  // good generation sufficient for a full restore even if other files die.
  std::vector<linalg::Matrix>* best_params = nullptr;
};

// Writes one checkpoint file (atomic replace via core/faultfs).
Status SaveCheckpoint(const std::string& path, const CheckpointRefs& refs);

// All-or-nothing restore: every section is parsed, validated against the
// live shapes, and staged before anything is applied. On error the model,
// optimizer, RNGs, sample order and bookkeeping are untouched.
Status LoadCheckpoint(const std::string& path, const CheckpointRefs& refs);

// Generation management inside a checkpoint directory:
//   ckpt-<next_epoch %08u>.wrc   full-state generations
//   best.wrc                     best-model parameters (params-only; for
//                                serving/export, loadable by LoadParameters)
// WriteGeneration prunes to the newest `keep_generations` files so a
// corrupted latest generation can still fall back one step; the loader
// scans newest-to-oldest and skips anything that fails validation with a
// warning to stderr instead of aborting the run.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir, std::size_t keep_generations = 2);

  Status Init();  // creates the directory
  const std::string& dir() const { return dir_; }

  // Writes the generation named by refs.book->next_epoch, then prunes.
  Status WriteGeneration(const CheckpointRefs& refs);
  // Exports the current parameter values as best.wrc.
  Status WriteBest(const CheckpointRefs& refs);

  // Restores the newest loadable generation into `refs`. Returns false when
  // no generation loads (missing directory counts as "none"). Corrupt
  // generations are skipped with a stderr warning — graceful degradation,
  // never a crash.
  bool TryLoadLatest(const CheckpointRefs& refs,
                     std::string* loaded_path = nullptr);

  // Generation file names present on disk, oldest first.
  std::vector<std::string> ListGenerationFiles() const;

  std::string GenerationPath(std::uint64_t next_epoch) const;
  std::string BestPath() const;

 private:
  std::string dir_;
  std::size_t keep_;
};

}  // namespace seqrec
}  // namespace whitenrec

#endif  // WHITENREC_SEQREC_CHECKPOINT_H_

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads. Every workload runs the same pipeline — set up,
// train a fixed number of epochs, evaluate on test, then serve an open-loop
// request stream with item ingests beside it — so every end-to-end metric
// means the same thing on every workload. The sizes decide which layer
// dominates; README.md records why each workload exists and which per-layer
// metric should move which end-to-end metric where.

#include <cstddef>
#include <cstdint>
#include <string>

#include "linalg/quant.h"
#include "retrieval/scorer.h"

namespace perfbench {

struct Workload {
  const char* name;

  // --- Training stack: the Toys profile at this scale. ---
  double train_scale;
  // Epochs (and rounds of the run) per 10 s of --seconds: a fixed count, no
  // early stop. Each epoch is followed by one full-ranking test evaluation
  // and one equal share of the serving schedule.
  std::size_t epochs_per_10s;

  // --- Serving stack. ---
  // A synthetic catalog of this many items from data::GenerateItemFeatures.
  std::size_t catalog_items;
  whitenrec::retrieval::ScorerKind scorer;
  std::size_t ivf_nprobe;
  whitenrec::linalg::ItemQuantKind quant;
  std::size_t max_cached_sessions;
  std::size_t max_batch;

  // --- Open-loop request stream (per 10 s of --seconds; both counts are
  // rounded up so every round gets the same share). ---
  std::size_t sessions;
  double zipf_exponent;
  double requests_per_s;  // Poisson arrival rate on the virtual clock
  std::size_t requests_per_10s;

  // --- Item ingest beside the reads. ---
  std::size_t refit_every;
  std::size_t refits_per_10s;
  // Ingests arrive in bursts of refit_every rows, one burst per refit, spread
  // evenly over the request stream. true: requests keep arriving during the
  // refit and queue behind it; false: a quiet gap on the virtual clock
  // follows each burst, so refits do not block reads.
  bool refits_block_reads;

  // --- Correctness gates. ---
  double min_recall10;  // 1.0 on exact-scoring workloads
  // Fingerprints of the library-generated inputs (FNV-1a over the bytes of
  // the training dataset and of the serving catalog features). A change
  // means the generator changed and the numbers are not comparable.
  std::uint64_t train_fingerprint;
  std::uint64_t catalog_fingerprint;
};

// Looks a workload up by name; nullptr if unknown.
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// ANN retrieval benchmark (ISSUE 7): builds the deterministic IVF index
// over a whitened synthetic catalog and sweeps nprobe x catalog size against
// the exact fused-scoring baseline, reporting recall@K-vs-exact, queries/s,
// end-to-end speedup, and index build time. Writes out/BENCH_ann.json
// (read back and parsed by bench::WriteArtifact) and exits 0 only if the
// sweep passes bench::CheckAnnBench.
//
// Knobs: --threads, WHITENREC_THREADS, WHITENREC_OUT_DIR, and
//   WHITENREC_ANN_ITEMS    full catalog size      (default 1000000)
//   WHITENREC_ANN_QUERIES  query batch size       (default 256)
// The whitened dimension (32), K (10) and nprobe are fixed in code; every
// index picks its own cluster count (~sqrt(n), retrieval::IvfBuildConfig).
//
// The catalog comes from data::GenerateItemFeatures (blocked, arena-backed,
// bitwise independent of the block size) run through a ZCA whitening fit —
// the same anisotropy-removal step the recommender applies — so the indexed
// space matches the geometry the serving path scores in.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/ann_report.h"
#include "bench/artifact.h"
#include "bench_common.h"
#include "eval/metrics.h"
#include "linalg/gemm.h"
#include "linalg/rng.h"
#include "linalg/topk.h"
#include "retrieval/ivf_index.h"
#include "retrieval/scorer.h"
#include "whitening/whitening.h"

namespace whitenrec {
namespace {

using linalg::Matrix;

// Gathered-candidate count for one query at one nprobe (probe selection
// replayed outside the timed region; O(clusters) per query).
double MeanCandidates(const retrieval::IvfIndex& index, const Matrix& queries,
                      std::size_t nprobe) {
  double total = 0.0;
  for (std::size_t qi = 0; qi < queries.rows(); ++qi) {
    linalg::TopKSelector probes(nprobe);
    for (std::size_t c = 0; c < index.clusters(); ++c) {
      probes.Push(c, linalg::RowDotTransB(queries, qi, index.centroids(), c));
    }
    for (const linalg::ScoredItem& p : probes.SortedDescending()) {
      total += static_cast<double>(index.cluster_members(p.item).size());
    }
  }
  return queries.rows() == 0 ? 0.0
                             : total / static_cast<double>(queries.rows());
}

int Run(int argc, char** argv) {
  const std::size_t threads = bench::ApplyThreadsFlag(argc, argv);
  const std::size_t full_items = core::EnvSize("WHITENREC_ANN_ITEMS", 1000000);
  const std::size_t num_queries = core::EnvSize("WHITENREC_ANN_QUERIES", 256);
  constexpr std::size_t dim = 32;
  constexpr std::size_t top_k = 10;

  std::printf("[ann] catalog=%zu queries=%zu dim=%zu k=%zu threads=%zu\n",
              full_items, num_queries, dim, top_k, threads);

  // Synthetic anisotropic catalog -> ZCA whitening, mirroring the pipeline
  // whose item table the IVF index serves.
  std::printf("[data] generating %zu x %zu item features ...\n", full_items,
              dim);
  data::ItemFeatureConfig feature_config;
  feature_config.num_items = full_items;
  feature_config.embed_dim = dim;
  // Well-separated topical clusters, like real text-embedding catalogs —
  // the structure an IVF index exploits (and whitening preserves: the ZCA
  // map is linear, so relative cluster geometry survives). Full-rank
  // latents: with latent_dim << embed_dim the whitening step would blow the
  // leftover pure-noise directions up to unit variance and bury the topical
  // geometry — real embeddings carry structure across all dimensions.
  feature_config.latent_dim = dim;
  feature_config.num_categories = 256;
  feature_config.category_spread = 4.0;
  feature_config.seed = 20240807;
  Matrix features = data::GenerateItemFeatures(feature_config);

  std::printf("[data] fitting + applying ZCA whitening ...\n");
  Result<FittedWhitening> fitted =
      FitWhitening(features, WhiteningKind::kZca, 1e-3);
  if (!fitted.ok()) {
    std::fprintf(stderr, "whitening fit failed: %s\n",
                 fitted.status().message().c_str());
    return 1;
  }
  Matrix whitened = ApplyWhitening(fitted.value(), features);
  features = Matrix();  // release the raw catalog

  bench::AnnBenchResult result;
  result.top_k = top_k;
  result.dim = dim;
  result.queries = num_queries;

  // Catalog-size sweep: n/16, n/4, n (deduped ascending, floored so the
  // smallest entry still has structure).
  std::vector<std::size_t> catalog_sizes;
  for (std::size_t c : {full_items / 16, full_items / 4, full_items}) {
    c = std::max<std::size_t>(c, std::min<std::size_t>(full_items, 1024));
    if (catalog_sizes.empty() || catalog_sizes.back() != c) {
      catalog_sizes.push_back(c);
    }
  }

  for (std::size_t catalog : catalog_sizes) {
    // The sub-catalog is the whitened table's leading rows; queries are
    // perturbed in-catalog rows so probe behavior matches real sessions.
    Matrix items(catalog, dim);
    std::memcpy(items.data(), whitened.data(),
                catalog * dim * sizeof(double));
    linalg::Rng rng(99);
    Matrix queries(num_queries, dim);
    for (std::size_t qi = 0; qi < num_queries; ++qi) {
      const std::size_t src = rng.UniformInt(catalog);
      double* q = queries.RowPtr(qi);
      const double* x = items.RowPtr(src);
      for (std::size_t c = 0; c < dim; ++c) {
        q[c] = x[c] + 0.25 * rng.Gaussian();
      }
    }

    // Exact fused baseline (streamed GEMM + bounded selectors).
    std::unique_ptr<retrieval::Scorer> exact =
        retrieval::MakeScorer(retrieval::ScorerConfig());
    exact->Rebuild(items);
    std::vector<std::vector<linalg::ScoredItem>> exact_lists;
    const double exact_seconds =
        bench::TimedTopK(exact.get(), queries, top_k, &exact_lists);

    // Deterministic IVF build, ~sqrt(catalog) clusters.
    const auto b0 = std::chrono::steady_clock::now();
    const retrieval::IvfIndex index =
        retrieval::IvfIndex::Build(items, retrieval::IvfBuildConfig());
    const auto b1 = std::chrono::steady_clock::now();

    bench::AnnCatalogSweep sweep;
    sweep.catalog_items = catalog;
    sweep.clusters = index.clusters();
    sweep.build_seconds = bench::Seconds(b0, b1);
    sweep.exact_qps =
        exact_seconds > 0.0
            ? static_cast<double>(num_queries) / exact_seconds
            : 0.0;
    std::printf(
        "[ann] catalog=%8zu clusters=%5zu build=%6.2fs exact=%8.1f q/s\n",
        catalog, sweep.clusters, sweep.build_seconds, sweep.exact_qps);

    for (std::size_t nprobe : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                               std::size_t{8}, std::size_t{16},
                               std::size_t{32}, std::size_t{64}}) {
      if (nprobe > index.clusters()) break;
      // Search through the already-built index (the IvfScorer would refit
      // k-means per nprobe point): same per-row fan-out as the serving path.
      std::vector<linalg::TopKSelector> selectors;
      selectors.reserve(num_queries);
      for (std::size_t r = 0; r < num_queries; ++r) selectors.emplace_back(top_k);
      static const std::vector<std::size_t> kNoExclusions;
      const auto q0 = std::chrono::steady_clock::now();
      core::ParallelFor(0, num_queries, 1,
                        [&](std::size_t r0, std::size_t r1) {
                          for (std::size_t r = r0; r < r1; ++r) {
                            index.Search(queries, r, items, nprobe,
                                         kNoExclusions, &selectors[r]);
                          }
                        });
      const auto q1 = std::chrono::steady_clock::now();
      const double ivf_seconds = bench::Seconds(q0, q1);

      double recall_sum = 0.0;
      for (std::size_t r = 0; r < num_queries; ++r) {
        recall_sum += eval::RecallVsReference(selectors[r].SortedDescending(),
                                              exact_lists[r]);
      }

      bench::AnnProbePoint point;
      point.nprobe = nprobe;
      point.recall_at_k = recall_sum / static_cast<double>(num_queries);
      point.ivf_qps = ivf_seconds > 0.0
                          ? static_cast<double>(num_queries) / ivf_seconds
                          : 0.0;
      point.speedup_vs_exact =
          ivf_seconds > 0.0 ? exact_seconds / ivf_seconds : 0.0;
      point.mean_candidates = MeanCandidates(index, queries, nprobe);
      std::printf(
          "[ann]   nprobe=%3zu recall@%zu=%.4f ivf=%10.1f q/s speedup=%6.2fx "
          "cand=%9.1f\n",
          point.nprobe, top_k, point.recall_at_k, point.ivf_qps,
          point.speedup_vs_exact, point.mean_candidates);
      sweep.points.push_back(point);
    }
    result.sweep.push_back(sweep);
  }

  // Acceptance summary at the largest catalog: the best speedup among points
  // meeting the recall bar.
  const bench::AnnCatalogSweep& last = result.sweep.back();
  double best_speedup = 0.0;
  std::size_t best_nprobe = 0;
  for (const bench::AnnProbePoint& p : last.points) {
    if (p.recall_at_k >= 0.95 && p.speedup_vs_exact > best_speedup) {
      best_speedup = p.speedup_vs_exact;
      best_nprobe = p.nprobe;
    }
  }
  if (best_nprobe > 0) {
    std::printf(
        "[ann] acceptance: %zu items, nprobe=%zu -> recall@%zu >= 0.95 at "
        "%.2fx speedup over exact\n",
        last.catalog_items, best_nprobe, top_k, best_speedup);
  } else {
    std::printf(
        "[ann] acceptance: no swept nprobe reached recall@%zu >= 0.95 at "
        "%zu items\n",
        top_k, last.catalog_items);
  }

  Status s = bench::WriteArtifact(bench::OutPath("BENCH_ann.json"),
                                  bench::AnnBenchJson(result));
  if (s.ok()) s = bench::CheckAnnBench(result);
  return bench::ExitCode("BENCH_ann.json", s);
}

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) { return whitenrec::Run(argc, argv); }

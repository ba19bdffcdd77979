#ifndef WHITENREC_RETRIEVAL_KMEANS_H_
#define WHITENREC_RETRIEVAL_KMEANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.h"

namespace whitenrec {
namespace retrieval {

// Deterministic spherical-agnostic k-means over matrix rows (squared
// Euclidean distance). Built for the IVF index (ivf_index.h) but usable
// standalone.
//
// Determinism contract (tests/retrieval_test.cc):
//  * Seeding is k-means++ driven by a linalg::Rng stream: the draw sequence
//    is a pure function of the seed, so the chosen seed rows are too. When
//    every remaining point coincides with an already-chosen center (zero
//    total weight — duplicates, clusters > distinct points) the fallback is
//    the smallest not-yet-chosen row index, not an Rng draw.
//  * Lloyd runs a FIXED number of iterations (no data-dependent convergence
//    test, whose FP comparison could flip across math libraries).
//  * Every squared distance (seeding, assignment, final labeling) is one
//    accumulator summed over dims in ascending order, `diff = x - y;
//    acc += diff * diff`, mul then add: the chain NearestCentroid below
//    computes. FitKMeans packs its points once into 8-point strips
//    (linalg::PackedItemTable) and runs linalg's packed distance kernels,
//    which interleave independent chains (8 points x a few centroids) and
//    never split or reorder one, so every distance is bitwise the scalar
//    one.
//  * The assignment step parallelizes over point strips; each point's
//    nearest centroid is an independent pure function (ties -> smaller
//    centroid id, a NaN distance never wins), so chunking cannot change it.
//  * The update step accumulates per-cluster sums SERIALLY in ascending
//    point-index order — the canonical accumulation order used everywhere in
//    this repo — so centroid coordinates are bitwise identical at any thread
//    count. (The update is O(n*d), dwarfed by the O(n*k*d) assignment, so
//    keeping it serial costs little.)
//  * Clusters that end an iteration empty keep their previous centroid.
//
// Cost control: when points.rows() > max_train_rows the Lloyd loop trains on
// a deterministic strided row sample (indices i*n/m, strictly increasing),
// then one final parallel assignment pass labels ALL rows against the final
// centroids (from a second pack of every row). The pack is a transient copy
// of the points: m * d doubles, plus n * d for that second pack. Exact-parity (probing every cluster recovers exact search) is
// unaffected by the training sample.
struct KMeansConfig {
  std::size_t clusters = 0;           // required: >= 1 (clamped to rows)
  std::size_t iterations = 8;         // fixed Lloyd iterations
  std::size_t max_train_rows = 65536; // 0 = train on every row
  std::uint64_t seed = 0x5eedc1u;     // k-means++ Rng stream seed
};

struct KMeansResult {
  linalg::Matrix centroids;               // (clusters, d)
  std::vector<std::uint32_t> assignment;  // per input row: nearest centroid
};

// Fits k-means on the rows of `points` ((n, d), n >= 1). Aborts (WR_CHECK)
// on an empty matrix or zero clusters; clusters > n is clamped to n.
KMeansResult FitKMeans(const linalg::Matrix& points, const KMeansConfig& config);

// The index of the centroid nearest to row `row` of `points` under squared
// Euclidean distance, ties toward the smaller centroid index: the scalar
// oracle of the packed kernels FitKMeans runs. Exposed for tests and for
// incremental labeling.
std::size_t NearestCentroid(const linalg::Matrix& centroids,
                            const linalg::Matrix& points, std::size_t row);

}  // namespace retrieval
}  // namespace whitenrec

#endif  // WHITENREC_RETRIEVAL_KMEANS_H_

#include "retrieval/kmeans.h"

#include <algorithm>

#include "core/check.h"
#include "linalg/gemm.h"
#include "linalg/rng.h"

namespace whitenrec {
namespace retrieval {
namespace {

using linalg::Matrix;

// Squared Euclidean distance between points row i and centroids row c, with
// the canonical single-accumulator ascending-dim loop. The subtraction form
// (rather than ||x||^2 - 2<x,c> + ||c||^2) keeps one FP expression per term,
// so the value cannot depend on how partial norms were cached.
double SquaredDistance(const Matrix& points, std::size_t i,
                       const Matrix& centroids, std::size_t c) {
  const double* x = points.RowPtr(i);
  const double* y = centroids.RowPtr(c);
  const std::size_t d = points.cols();
  double acc = 0.0;
  for (std::size_t k = 0; k < d; ++k) {
    const double diff = x[k] - y[k];
    acc += diff * diff;
  }
  return acc;
}

// k-means++ over the training sample, packed in `train` (packed row i is
// points row train_idx[i]): the first center is a uniform Rng draw, each
// next center a Categorical draw proportional to the squared distance to the
// nearest already-chosen center. min_dist is maintained incrementally (only
// the newly added center can lower it).
Matrix SeedPlusPlus(const Matrix& points, const linalg::PackedItemTable& train,
                    const std::vector<std::size_t>& train_idx,
                    std::size_t clusters, std::uint64_t seed) {
  const std::size_t m = train_idx.size();
  const std::size_t d = points.cols();
  linalg::Rng rng(seed);
  Matrix centroids(clusters, d);
  std::vector<double> min_dist(m, 0.0);
  std::vector<char> used(m, 0);

  std::size_t first = rng.UniformInt(m);
  centroids.SetRow(0, points.Row(train_idx[first]));
  used[first] = 1;
  linalg::PackedMinSquaredDistances(train, centroids.RowPtr(0),
                                    /*reset=*/true, &min_dist);

  for (std::size_t c = 1; c < clusters; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < m; ++i) total += min_dist[i];
    std::size_t pick;
    if (total > 0.0) {
      pick = rng.Categorical(min_dist);
    } else {
      // Every training point coincides with a chosen center (duplicates, or
      // clusters > distinct points). Rng::Categorical would abort on the
      // all-zero weights; fall back to the smallest unused row index so the
      // result stays a pure function of the inputs.
      pick = 0;
      while (pick < m && used[pick]) ++pick;
      if (pick == m) pick = 0;  // all rows used: duplicate a center
    }
    used[pick] = 1;
    centroids.SetRow(c, points.Row(train_idx[pick]));
    linalg::PackedMinSquaredDistances(train, centroids.RowPtr(c),
                                      /*reset=*/false, &min_dist);
  }
  return centroids;
}

}  // namespace

std::size_t NearestCentroid(const Matrix& centroids, const Matrix& points,
                            std::size_t row) {
  WR_CHECK_GT(centroids.rows(), 0u);
  WR_CHECK_EQ(centroids.cols(), points.cols());
  std::size_t best = 0;
  double best_dist = SquaredDistance(points, row, centroids, 0);
  for (std::size_t c = 1; c < centroids.rows(); ++c) {
    const double dist = SquaredDistance(points, row, centroids, c);
    // Strict < keeps the earlier (smaller-id) centroid on ties.
    if (dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

KMeansResult FitKMeans(const Matrix& points, const KMeansConfig& config) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  WR_CHECK_GT(n, 0u);
  WR_CHECK_GT(d, 0u);
  WR_CHECK_GT(config.clusters, 0u);
  const std::size_t clusters = std::min(config.clusters, n);

  // Deterministic strided training sample: indices i*n/m are strictly
  // increasing when m <= n, and equal to 0..n-1 when m == n.
  const std::size_t m = (config.max_train_rows == 0)
                            ? n
                            : std::min(n, config.max_train_rows);
  std::vector<std::size_t> train_idx(m);
  for (std::size_t i = 0; i < m; ++i) train_idx[i] = i * n / m;

  // The sample is packed once into the distance kernel's 8-point strips
  // (m * d doubles, freed on return) and read by the seeding, every Lloyd
  // assignment and, when it covers every row, the final labeling.
  linalg::PackedItemTable packed;
  if (m == n) {
    packed.Pack(points);
  } else {
    packed.PackRows(points, train_idx);
  }
  Matrix centroids = SeedPlusPlus(points, packed, train_idx, clusters,
                                  config.seed);

  // Index-builder scratch proportional to the training sample / catalog; the
  // O(catalog) buffers here are the sanctioned exception to the full-logits
  // rule (ISSUE 7: scoped allow only in the index builder).
  std::vector<std::uint32_t> train_assign(m, 0);
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    // Assignment: each training point's nearest centroid is independent, so
    // the parallel chunking cannot change any label.
    linalg::PackedNearestCentroids(packed, centroids, &train_assign);
    // Update: serial ascending-point-index accumulation — the canonical
    // order, bitwise identical at any thread count.
    Matrix sums(clusters, d);
    std::vector<std::size_t> counts(clusters, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t c = train_assign[i];
      const double* x = points.RowPtr(train_idx[i]);
      double* s = sums.RowPtr(c);
      for (std::size_t k = 0; k < d; ++k) s[k] += x[k];
      ++counts[c];
    }
    for (std::size_t c = 0; c < clusters; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its centroid
      const double inv = 1.0 / static_cast<double>(counts[c]);
      double* s = sums.RowPtr(c);
      double* out = centroids.RowPtr(c);
      for (std::size_t k = 0; k < d; ++k) out[k] = s[k] * inv;
    }
  }

  // Final labeling of EVERY row against the trained centroids. This is the
  // index builder's one per-catalog buffer — the sanctioned exception to the
  // full-logits rule (query paths stay O(clusters + candidates)).
  KMeansResult result;
  result.centroids = std::move(centroids);
  const std::size_t num_items = n;
  // whitenrec-lint: allow(full-logits)
  result.assignment.assign(num_items, 0);
  if (m < n) packed.Pack(points);  // the strided sample missed rows
  linalg::PackedNearestCentroids(packed, result.centroids,
                                 &result.assignment);
  return result;
}

}  // namespace retrieval
}  // namespace whitenrec

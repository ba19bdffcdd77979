// Sublinear retrieval contracts (ISSUE 7):
//  * deterministic k-means: bitwise-identical centroids and assignments at
//    any thread count and across repeated runs; duplicate points and
//    clusters > points degrade gracefully (empty/singleton clusters);
//  * IVF search: recall@K-vs-exact is monotone non-decreasing in nprobe and
//    exactly 1.0 at nprobe == clusters (exact-parity fallback), including
//    under exclusions — lists then match exact search bitwise;
//  * the Scorer seam: the exact scorer reproduces the inline streamed
//    scoring, and eval
//    TopKRecommendations with an injected IVF scorer at full probe equals
//    the exact lists;
//  * IVF serving: responses bitwise reproducible across thread counts,
//    batch windows, and repeated runs, and ingest-triggered index rebuilds
//    keep responses a pure function of the ingest history;
//  * the BENCH_ann.json schema validator accepts the writer's output and
//    rejects shape/range/monotonicity violations;
//  * eval::RecallVsReference and data::CheckCatalogIndexable /
//    GenerateItemFeatures (block-size invariance) unit contracts.

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/ann_report.h"
#include "core/parallel.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "linalg/gemm.h"
#include "linalg/quant.h"
#include "linalg/rng.h"
#include "linalg/topk.h"
#include "retrieval/ivf_index.h"
#include "retrieval/kmeans.h"
#include "retrieval/scorer.h"
#include "seqrec/baselines.h"
#include "seqrec/trainer.h"
#include "serve/service.h"
#include "json_paths.h"
#include "scoped_knobs.h"

namespace whitenrec {
namespace retrieval {
namespace {

using linalg::Matrix;
using linalg::ScoredItem;

const std::vector<std::size_t> kThreadCounts = {1, 2, 5};

Matrix RandomPoints(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  linalg::Rng rng(seed);
  return rng.GaussianMatrix(rows, cols, 1.0);
}

bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// k-means determinism and degenerate shapes.
// ---------------------------------------------------------------------------

TEST(KMeans, BitwiseIdenticalAcrossThreadCountsAndRuns) {
  const Matrix points = RandomPoints(400, 12, 21);
  KMeansConfig config;
  config.clusters = 16;
  config.iterations = 6;
  config.seed = 5;

  KMeansResult reference;
  bool have_reference = false;
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads guard(threads);
    const KMeansResult run = FitKMeans(points, config);
    const KMeansResult rerun = FitKMeans(points, config);
    EXPECT_TRUE(BitwiseEqual(run.centroids, rerun.centroids))
        << "run-to-run drift at " << threads << " threads";
    EXPECT_EQ(run.assignment, rerun.assignment);
    if (!have_reference) {
      reference = run;
      have_reference = true;
    } else {
      EXPECT_TRUE(BitwiseEqual(reference.centroids, run.centroids))
          << "thread-count drift at " << threads << " threads";
      EXPECT_EQ(reference.assignment, run.assignment);
    }
  }
}

TEST(KMeans, TrainingSampleKeepsFullAssignmentComplete) {
  const Matrix points = RandomPoints(300, 6, 3);
  KMeansConfig config;
  config.clusters = 8;
  config.max_train_rows = 64;  // force the strided sample path
  const KMeansResult result = FitKMeans(points, config);
  ASSERT_EQ(result.assignment.size(), points.rows());
  for (std::size_t i = 0; i < points.rows(); ++i) {
    EXPECT_LT(result.assignment[i], result.centroids.rows());
    EXPECT_EQ(result.assignment[i],
              NearestCentroid(result.centroids, points, i));
  }
}

TEST(KMeans, DuplicatePointsAndEmptyClustersDoNotAbort) {
  // 10 identical rows, 4 clusters: k-means++ hits the zero-total-weight
  // fallback, every point ties to centroid 0, clusters 1..3 go empty and
  // keep their seeded centroids.
  Matrix points(10, 4);
  for (std::size_t r = 0; r < points.rows(); ++r) {
    for (std::size_t c = 0; c < points.cols(); ++c) points(r, c) = 1.5;
  }
  KMeansConfig config;
  config.clusters = 4;
  const KMeansResult result = FitKMeans(points, config);
  EXPECT_EQ(result.centroids.rows(), 4u);
  for (std::size_t i = 0; i < points.rows(); ++i) {
    EXPECT_EQ(result.assignment[i], 0u);  // tie -> smallest centroid id
  }
}

TEST(KMeans, SingletonClustersWhenClustersEqualsPoints) {
  const Matrix points = RandomPoints(5, 3, 9);
  KMeansConfig config;
  config.clusters = 5;
  const KMeansResult result = FitKMeans(points, config);
  // Every point sits alone in some cluster: assignments are a permutation.
  std::vector<std::size_t> counts(5, 0);
  for (std::uint32_t a : result.assignment) ++counts[a];
  for (std::size_t c = 0; c < counts.size(); ++c) EXPECT_EQ(counts[c], 1u);
}

TEST(KMeans, MoreClustersThanPointsClamps) {
  const Matrix points = RandomPoints(3, 2, 11);
  KMeansConfig config;
  config.clusters = 10;
  const KMeansResult result = FitKMeans(points, config);
  EXPECT_EQ(result.centroids.rows(), 3u);
}

// ---------------------------------------------------------------------------
// Differential k-means: the packed, register-blocked build against a scalar
// reference (the k-means that computed one distance per call).
// ---------------------------------------------------------------------------

// The scalar distance chain: one accumulator, dims ascending, the square of
// x - y added after it is formed.
double ScalarSquaredDistance(const Matrix& points, std::size_t i,
                             const Matrix& centroids, std::size_t c) {
  double acc = 0.0;
  for (std::size_t k = 0; k < points.cols(); ++k) {
    const double diff = points(i, k) - centroids(c, k);
    acc += diff * diff;
  }
  return acc;
}

// Scalar k-means with the library's contract: k-means++ from one Rng stream
// (smallest-unused-index fallback on zero total weight), a fixed number of
// Lloyd passes labeling through NearestCentroid, serial ascending-index
// sums, empty clusters kept, strided training sample, final labeling of
// every row.
KMeansResult ReferenceKMeans(const Matrix& points, const KMeansConfig& config) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const std::size_t clusters = std::min(config.clusters, n);
  const std::size_t m = config.max_train_rows == 0
                            ? n
                            : std::min(n, config.max_train_rows);
  std::vector<std::size_t> train_idx(m);
  for (std::size_t i = 0; i < m; ++i) train_idx[i] = i * n / m;

  linalg::Rng rng(config.seed);
  Matrix centroids(clusters, d);
  std::vector<double> min_dist(m, 0.0);
  std::vector<char> used(m, 0);
  const std::size_t first = rng.UniformInt(m);
  centroids.SetRow(0, points.Row(train_idx[first]));
  used[first] = 1;
  for (std::size_t i = 0; i < m; ++i) {
    min_dist[i] = ScalarSquaredDistance(points, train_idx[i], centroids, 0);
  }
  for (std::size_t c = 1; c < clusters; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < m; ++i) total += min_dist[i];
    std::size_t pick;
    if (total > 0.0) {
      pick = rng.Categorical(min_dist);
    } else {
      pick = 0;
      while (pick < m && used[pick]) ++pick;
      if (pick == m) pick = 0;
    }
    used[pick] = 1;
    centroids.SetRow(c, points.Row(train_idx[pick]));
    for (std::size_t i = 0; i < m; ++i) {
      const double dist =
          ScalarSquaredDistance(points, train_idx[i], centroids, c);
      if (dist < min_dist[i]) min_dist[i] = dist;
    }
  }

  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    std::vector<std::size_t> assign(m);
    for (std::size_t i = 0; i < m; ++i) {
      assign[i] = NearestCentroid(centroids, points, train_idx[i]);
    }
    Matrix sums(clusters, d);
    std::vector<std::size_t> counts(clusters, 0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t k = 0; k < d; ++k) {
        sums(assign[i], k) += points(train_idx[i], k);
      }
      ++counts[assign[i]];
    }
    for (std::size_t c = 0; c < clusters; ++c) {
      if (counts[c] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t k = 0; k < d; ++k) centroids(c, k) = sums(c, k) * inv;
    }
  }

  KMeansResult result;
  result.centroids = std::move(centroids);
  result.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.assignment[i] =
        static_cast<std::uint32_t>(NearestCentroid(result.centroids, points, i));
  }
  return result;
}

struct KMeansShape {
  std::size_t n;
  std::size_t d;
  std::size_t clusters;
  std::size_t max_train_rows;  // < n takes the strided sample
  std::size_t distinct;        // 0: all rows distinct; else rows repeat
};

// Points whose rows cycle through `distinct` Gaussian rows when distinct > 0
// (exact ties, and the zero-weight seeding fallback once clusters exceed
// the distinct rows).
Matrix ShapePoints(const KMeansShape& shape, std::uint64_t seed) {
  if (shape.distinct == 0) return RandomPoints(shape.n, shape.d, seed);
  const Matrix base = RandomPoints(shape.distinct, shape.d, seed);
  Matrix points(shape.n, shape.d);
  for (std::size_t r = 0; r < shape.n; ++r) {
    points.SetRow(r, base.Row(r % shape.distinct));
  }
  return points;
}

TEST(KMeansDifferential, BitwiseEqualToScalarReference) {
  // n covers one partial strip (1, 7), exactly one strip (8), one past it
  // (9), many with a partial tail (257) and the serving catalog (5000); d
  // covers one dim, odd dims, a k-panel boundary (300 > 256); clusters
  // covers 1, a partial centre group (71 = 17 * 4 + 3), n and n + 3.
  const std::vector<KMeansShape> shapes = {
      {1, 1, 1, 0, 0},      {1, 3, 4, 0, 0},       {7, 3, 4, 0, 0},
      {7, 33, 7, 0, 0},     {7, 1, 10, 0, 0},      {8, 32, 8, 0, 0},
      {8, 300, 4, 0, 0},    {9, 33, 12, 0, 0},     {9, 300, 9, 0, 0},
      {9, 3, 12, 0, 1},     {257, 32, 71, 0, 0},   {257, 300, 4, 0, 0},
      {257, 33, 257, 0, 0}, {257, 1, 71, 0, 0},    {257, 3, 71, 0, 5},
      {257, 33, 71, 100, 0}, {257, 300, 4, 9, 0},  {5000, 32, 71, 0, 0},
      {5000, 3, 4, 1000, 0}, {5000, 32, 71, 0, 40}};
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const KMeansShape& shape = shapes[s];
    const Matrix points = ShapePoints(shape, 100 + s);
    KMeansConfig config;
    config.clusters = shape.clusters;
    config.max_train_rows = shape.max_train_rows;
    config.seed = 7 + s;
    const KMeansResult reference = ReferenceKMeans(points, config);
    for (std::size_t threads : {1u, 2u, 4u}) {
      ScopedThreads guard(threads);
      const KMeansResult fit = FitKMeans(points, config);
      EXPECT_TRUE(BitwiseEqual(fit.centroids, reference.centroids))
          << "centroids differ: n=" << shape.n << " d=" << shape.d
          << " clusters=" << shape.clusters << " threads=" << threads;
      EXPECT_EQ(fit.assignment, reference.assignment)
          << "assignment differs: n=" << shape.n << " d=" << shape.d
          << " clusters=" << shape.clusters << " threads=" << threads;
    }
  }
}

TEST(KMeansDifferential, PackedLabelsMatchNearestCentroid) {
  // Equidistant centroids: every point sits at the same distance from
  // centroids 1, 2 and 3 (+/- one unit vector, and the point itself offset
  // along a third axis), so the label must be the smallest of the tied ids.
  // Rows also carry non-finite values, which must label as NearestCentroid
  // does (a NaN distance never wins; an inf one only ties).
  const std::size_t n = 19;
  const std::size_t d = 3;
  Matrix points(n, d);
  for (std::size_t r = 0; r < n; ++r) {
    points(r, 0) = 0.0;
    points(r, 1) = 0.0;
    points(r, 2) = static_cast<double>(r % 4);
  }
  points(5, 1) = std::numeric_limits<double>::quiet_NaN();
  points(11, 0) = std::numeric_limits<double>::infinity();
  Matrix centroids(6, d);
  for (std::size_t k = 0; k < d; ++k) centroids(0, k) = 9.0;  // far away
  centroids(1, 0) = 1.0;
  centroids(2, 0) = -1.0;
  centroids(3, 1) = 1.0;
  centroids(4, 1) = -1.0;
  centroids(5, 2) = std::numeric_limits<double>::quiet_NaN();

  linalg::PackedItemTable packed;
  packed.Pack(points);
  std::vector<std::uint32_t> labels(n, 99);
  linalg::PackedNearestCentroids(packed, centroids, &labels);
  for (std::size_t r = 0; r < n; ++r) {
    EXPECT_EQ(labels[r], NearestCentroid(centroids, points, r)) << "row " << r;
  }
  EXPECT_EQ(labels[0], 1u);  // centroids 1..4 tie; the smallest id wins
  EXPECT_EQ(labels[5], 0u);  // every distance NaN: centroid 0 stays

  // Min-distance update: reset copies every distance (NaN included), an
  // update lowers only on a strict <.
  std::vector<double> min_dist(n, -1.0);
  linalg::PackedMinSquaredDistances(packed, centroids.RowPtr(1),
                                    /*reset=*/true, &min_dist);
  for (std::size_t r = 0; r < n; ++r) {
    const double want = ScalarSquaredDistance(points, r, centroids, 1);
    EXPECT_EQ(std::memcmp(&min_dist[r], &want, sizeof(double)), 0)
        << "row " << r;
  }
  std::vector<double> expected = min_dist;
  for (std::size_t c : {0u, 5u, 2u}) {
    linalg::PackedMinSquaredDistances(packed, centroids.RowPtr(c),
                                      /*reset=*/false, &min_dist);
    for (std::size_t r = 0; r < n; ++r) {
      const double dist = ScalarSquaredDistance(points, r, centroids, c);
      if (dist < expected[r]) expected[r] = dist;
    }
    EXPECT_EQ(std::memcmp(min_dist.data(), expected.data(),
                          n * sizeof(double)),
              0)
        << "after centre " << c;
  }

  // A strided row subset packs the listed rows in order.
  const std::vector<std::size_t> rows = {0, 5, 11, 18};
  packed.PackRows(points, rows);
  std::vector<std::uint32_t> sub(rows.size(), 99);
  linalg::PackedNearestCentroids(packed, centroids, &sub);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(sub[i], NearestCentroid(centroids, points, rows[i]));
  }
}

// ---------------------------------------------------------------------------
// IVF: monotone recall, exact parity, exclusions.
// ---------------------------------------------------------------------------

struct IvfCase {
  Matrix items;
  Matrix queries;
  IvfIndex index;
  std::size_t clusters = 0;

  IvfCase(std::size_t num_items, std::size_t dim, std::size_t num_queries,
          std::size_t want_clusters) {
    items = RandomPoints(num_items, dim, 33);
    queries = RandomPoints(num_queries, dim, 44);
    IvfBuildConfig config;
    config.clusters = want_clusters;
    index = IvfIndex::Build(items, config);
    clusters = index.clusters();
  }

  std::vector<ScoredItem> ExactTopK(std::size_t qi, std::size_t k,
                                    const std::vector<std::size_t>& excl)
      const {
    linalg::TopKSelector sel(k);
    for (std::size_t j = 0; j < items.rows(); ++j) {
      if (!excl.empty() && std::binary_search(excl.begin(), excl.end(), j)) {
        continue;
      }
      sel.Push(j, linalg::RowDotTransB(queries, qi, items, j));
    }
    return sel.SortedDescending();
  }

  std::vector<ScoredItem> IvfTopK(std::size_t qi, std::size_t k,
                                  std::size_t nprobe,
                                  const std::vector<std::size_t>& excl) const {
    linalg::TopKSelector sel(k);
    index.Search(queries, qi, items, nprobe, excl, &sel);
    return sel.SortedDescending();
  }
};

TEST(IvfIndex, MemberListsPartitionTheCatalogAscending) {
  const IvfCase c(300, 8, 1, 12);
  std::vector<char> seen(300, 0);
  for (std::size_t cl = 0; cl < c.clusters; ++cl) {
    const std::vector<std::size_t>& members = c.index.cluster_members(cl);
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (m > 0) {
        EXPECT_LT(members[m - 1], members[m]);
      }
      ASSERT_LT(members[m], seen.size());
      EXPECT_EQ(seen[members[m]], 0);
      seen[members[m]] = 1;
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 1);
}

TEST(IvfIndex, RecallMonotoneInNprobeAndExactAtFullProbe) {
  const IvfCase c(500, 16, 24, 20);
  const std::size_t k = 10;
  const std::vector<std::size_t> no_excl;
  for (std::size_t qi = 0; qi < c.queries.rows(); ++qi) {
    const std::vector<ScoredItem> exact = c.ExactTopK(qi, k, no_excl);
    double prev_recall = -1.0;
    for (std::size_t nprobe = 1; nprobe <= c.clusters; ++nprobe) {
      const std::vector<ScoredItem> approx = c.IvfTopK(qi, k, nprobe, no_excl);
      const double recall = eval::RecallVsReference(approx, exact);
      EXPECT_GE(recall, prev_recall)
          << "recall dipped at query " << qi << " nprobe " << nprobe;
      prev_recall = recall;
    }
    // Exact parity: probing every cluster IS exact search, bitwise.
    const std::vector<ScoredItem> full = c.IvfTopK(qi, k, c.clusters, no_excl);
    ASSERT_EQ(full.size(), exact.size());
    for (std::size_t r = 0; r < full.size(); ++r) {
      EXPECT_EQ(full[r].item, exact[r].item);
      EXPECT_EQ(std::memcmp(&full[r].score, &exact[r].score, sizeof(double)),
                0);
    }
  }
}

TEST(IvfIndex, ExactAtFullProbePastOneKPanel) {
  // d = 300 crosses the distance kernel's k-panel; 257 items end on a
  // partial strip.
  const IvfCase c(257, 300, 6, 16);
  const std::vector<std::size_t> no_excl;
  for (std::size_t qi = 0; qi < c.queries.rows(); ++qi) {
    const std::vector<ScoredItem> exact = c.ExactTopK(qi, 10, no_excl);
    const std::vector<ScoredItem> full = c.IvfTopK(qi, 10, c.clusters, no_excl);
    ASSERT_EQ(full.size(), exact.size());
    for (std::size_t r = 0; r < full.size(); ++r) {
      EXPECT_EQ(full[r].item, exact[r].item);
      EXPECT_EQ(std::memcmp(&full[r].score, &exact[r].score, sizeof(double)),
                0);
    }
  }
}

TEST(IvfIndex, ExactParityHoldsUnderExclusions) {
  const IvfCase c(200, 8, 8, 10);
  std::vector<std::size_t> excl = {3, 17, 40, 41, 42, 118, 199};
  for (std::size_t qi = 0; qi < c.queries.rows(); ++qi) {
    const std::vector<ScoredItem> exact = c.ExactTopK(qi, 5, excl);
    const std::vector<ScoredItem> full = c.IvfTopK(qi, 5, c.clusters, excl);
    ASSERT_EQ(full.size(), exact.size());
    for (std::size_t r = 0; r < full.size(); ++r) {
      EXPECT_EQ(full[r].item, exact[r].item);
      for (std::size_t e : excl) EXPECT_NE(full[r].item, e);
    }
  }
}

TEST(IvfIndex, SearchIsThreadCountInvariant) {
  const IvfCase c(300, 8, 16, 12);
  ScorerConfig config;
  config.kind = ScorerKind::kIvf;
  config.clusters = 12;
  config.nprobe = 3;
  std::unique_ptr<Scorer> scorer = MakeScorer(config);
  scorer->Rebuild(c.items);

  std::vector<std::vector<ScoredItem>> reference;
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads guard(threads);
    std::vector<linalg::TopKSelector> selectors;
    for (std::size_t r = 0; r < c.queries.rows(); ++r) {
      selectors.emplace_back(10);
    }
    scorer->TopKBatch(c.queries, {}, &selectors);
    std::vector<std::vector<ScoredItem>> lists;
    for (const linalg::TopKSelector& sel : selectors) {
      lists.push_back(sel.SortedDescending());
    }
    if (reference.empty()) {
      reference = lists;
    } else {
      ASSERT_EQ(reference.size(), lists.size());
      for (std::size_t q = 0; q < lists.size(); ++q) {
        ASSERT_EQ(reference[q].size(), lists[q].size());
        for (std::size_t r = 0; r < lists[q].size(); ++r) {
          EXPECT_EQ(reference[q][r].item, lists[q][r].item);
          EXPECT_EQ(std::memcmp(&reference[q][r].score, &lists[q][r].score,
                                sizeof(double)),
                    0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scorer seam: exact backend parity.
// ---------------------------------------------------------------------------

TEST(ScorerDeathTest, IvfRejectsZeroNprobe) {
  ScorerConfig config;
  config.kind = ScorerKind::kIvf;
  config.nprobe = 0;
  EXPECT_DEATH(MakeScorer(config), "nprobe >= 1");
}

TEST(Scorer, ExactBackendMatchesBruteForce) {
  const Matrix items = RandomPoints(150, 8, 55);
  const Matrix users = RandomPoints(7, 8, 66);
  std::unique_ptr<Scorer> scorer = MakeScorer(ScorerConfig());
  scorer->Rebuild(items);
  std::vector<std::vector<std::size_t>> exclusions(users.rows());
  exclusions[2] = {1, 5, 9};
  std::vector<linalg::TopKSelector> selectors;
  for (std::size_t r = 0; r < users.rows(); ++r) selectors.emplace_back(6);
  scorer->TopKBatch(users, exclusions, &selectors);
  // Score the table the way the ambient WHITENREC_ITEM_QUANT representation
  // does, so check-compress can re-run this suite under int8: the brute
  // force reference must read the packed values the scorer actually scores.
  const linalg::ItemQuantKind quant_kind = linalg::CurrentItemQuantKind();
  linalg::QuantizedItemTable quant_table;
  if (quant_kind != linalg::ItemQuantKind::kFp32) {
    quant_table.Pack(items, quant_kind);
  }
  for (std::size_t r = 0; r < users.rows(); ++r) {
    linalg::TopKSelector brute(6);
    for (std::size_t j = 0; j < items.rows(); ++j) {
      const std::vector<std::size_t>& excl = exclusions[r];
      if (std::binary_search(excl.begin(), excl.end(), j)) continue;
      brute.Push(j, quant_table.empty()
                        ? linalg::RowDotTransB(users, r, items, j)
                        : quant_table.RowDot(users, r, j));
    }
    const std::vector<ScoredItem> want = brute.SortedDescending();
    const std::vector<ScoredItem> got = selectors[r].SortedDescending();
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].item, got[i].item);
      EXPECT_EQ(std::memcmp(&want[i].score, &got[i].score, sizeof(double)),
                0);
    }
  }
}

// ---------------------------------------------------------------------------
// Serving through the IVF scorer: reproducibility + ingest rebuilds.
// ---------------------------------------------------------------------------

struct ServingFixture {
  ServingFixture()
      : data(data::GenerateDataset(data::ToysProfile(0.05))) {}

  static seqrec::SasRecConfig ModelConfig() {
    seqrec::SasRecConfig config;
    config.hidden_dim = 16;
    config.num_blocks = 1;
    config.num_heads = 2;
    config.ffn_hidden = 32;
    config.max_len = 8;
    return config;
  }

  std::unique_ptr<seqrec::SasRecRecommender> FreshModel() const {
    WhitenRecConfig wconfig;
    wconfig.out_dim = 16;
    return seqrec::MakeWhitenRec(data.dataset, ModelConfig(), wconfig);
  }

  serve::ServeConfig IvfServeConfig() const {
    serve::ServeConfig config;
    config.top_k = 5;
    config.refit_every = 4;
    config.scorer.kind = ScorerKind::kIvf;
    config.scorer.clusters = 8;
    config.scorer.nprobe = 3;
    return config;
  }

  std::vector<serve::ServeRequest> Trace(std::size_t n) const {
    std::vector<serve::ServeRequest> trace;
    linalg::Rng rng(17);
    const std::size_t num_items = data.dataset.num_items;
    for (std::size_t i = 0; i < n; ++i) {
      trace.push_back(serve::ServeRequest{rng.UniformInt(7),
                                          rng.UniformInt(num_items)});
    }
    return trace;
  }

  data::GeneratedData data;
};

ServingFixture& Fixture() {
  static ServingFixture* fixture = new ServingFixture();
  return *fixture;
}

bool SameResponses(const std::vector<serve::ServeResponse>& a,
                   const std::vector<serve::ServeResponse>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].topk.size() != b[i].topk.size()) return false;
    if (a[i].session_len != b[i].session_len) return false;
    for (std::size_t k = 0; k < a[i].topk.size(); ++k) {
      if (a[i].topk[k].item != b[i].topk[k].item) return false;
      if (std::memcmp(&a[i].topk[k].score, &b[i].topk[k].score,
                      sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST(IvfServing, ReproducibleAcrossThreadsBatchingAndRuns) {
  ServingFixture& fixture = Fixture();
  const std::vector<serve::ServeRequest> trace = fixture.Trace(60);

  std::vector<serve::ServeResponse> reference;
  bool have_reference = false;
  for (std::size_t threads : kThreadCounts) {
    ScopedThreads guard(threads);
    for (std::size_t slice : {std::size_t{1}, std::size_t{7},
                              std::size_t{60}}) {
      auto rec = fixture.FreshModel();
      serve::RecommendService service(rec->model(),
                                      fixture.IvfServeConfig());
      std::vector<serve::ServeResponse> responses;
      for (std::size_t begin = 0; begin < trace.size(); begin += slice) {
        const std::size_t end = std::min(trace.size(), begin + slice);
        const std::vector<serve::ServeRequest> chunk(
            trace.begin() + static_cast<std::ptrdiff_t>(begin),
            trace.begin() + static_cast<std::ptrdiff_t>(end));
        for (serve::ServeResponse& r : service.HandleBatch(chunk)) {
          responses.push_back(std::move(r));
        }
      }
      if (!have_reference) {
        reference = std::move(responses);
        have_reference = true;
      } else {
        EXPECT_TRUE(SameResponses(reference, responses))
            << "threads=" << threads << " slice=" << slice;
      }
    }
  }
}

TEST(IvfServing, IngestRebuildKeepsResponsesReproducible) {
  ServingFixture& fixture = Fixture();
  const std::vector<serve::ServeRequest> trace = fixture.Trace(24);
  const std::size_t feature_dim =
      fixture.data.dataset.text_embeddings.cols();

  // The same interleaved ingest/serve schedule must produce identical
  // responses on two independent services (fixed rebuild cadence
  // refit_every=4 -> index rebuilds are part of the deterministic state).
  auto run = [&]() {
    auto rec = fixture.FreshModel();
    serve::RecommendService service(rec->model(), fixture.IvfServeConfig());
    EXPECT_TRUE(service
                    .EnableIngest(fixture.data.dataset.text_embeddings,
                                  WhiteningKind::kZca, 1e-5)
                    .ok());
    linalg::Rng rng(23);
    std::vector<serve::ServeResponse> responses;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      std::vector<double> feature(feature_dim);
      for (double& x : feature) x = rng.Gaussian();
      EXPECT_TRUE(service.IngestItem(feature).ok());
      responses.push_back(service.Handle(trace[i]));
    }
    const serve::ServeStats stats = service.stats();
    // 24 ingests at refit_every=4 -> 6 refits, each rebuilding the index,
    // plus the construction-time build.
    EXPECT_EQ(stats.refits, 6u);
    EXPECT_EQ(stats.index_rebuilds, 7u);
    return responses;
  };
  const std::vector<serve::ServeResponse> first = run();
  const std::vector<serve::ServeResponse> second = run();
  EXPECT_TRUE(SameResponses(first, second));
}

// ---------------------------------------------------------------------------
// Eval path: TopKRecommendations with an injected IVF scorer.
// ---------------------------------------------------------------------------

TEST(TopKRecommendationsIvf, FullProbeMatchesExactLists) {
  ServingFixture& fixture = Fixture();
  auto rec = fixture.FreshModel();
  const data::Dataset& ds = fixture.data.dataset;
  std::vector<data::EvalInstance> instances;
  for (std::size_t u = 0; u < std::min<std::size_t>(ds.sequences.size(), 12);
       ++u) {
    const std::vector<std::size_t>& seq = ds.sequences[u];
    if (seq.size() < 2) continue;
    data::EvalInstance inst;
    inst.user = u;
    inst.input.assign(seq.begin(), seq.end() - 1);
    inst.target = seq.back();
    instances.push_back(inst);
  }
  ASSERT_FALSE(instances.empty());

  const std::vector<std::vector<std::size_t>> exact =
      seqrec::TopKRecommendations(rec.get(), instances, ds.sequences, 8, 5);
  // The eval path takes an injected linalg::Scorer; the ScorerConfig picks
  // the backend at the composition root, not inside seqrec.
  ScorerConfig config;
  config.kind = ScorerKind::kIvf;
  config.clusters = 6;
  config.nprobe = 6;
  std::unique_ptr<Scorer> ivf_scorer = MakeScorer(config);
  const std::vector<std::vector<std::size_t>> ivf =
      seqrec::TopKRecommendations(rec.get(), instances, ds.sequences, 8, 5,
                                  256, ivf_scorer.get());
  EXPECT_EQ(exact, ivf);
}

// ---------------------------------------------------------------------------
// RecallVsReference.
// ---------------------------------------------------------------------------

TEST(RecallVsReference, CountsSetOverlap) {
  EXPECT_DOUBLE_EQ(
      eval::RecallVsReference(std::vector<std::size_t>{1, 2, 3},
                              std::vector<std::size_t>{1, 2, 3}),
      1.0);
  EXPECT_DOUBLE_EQ(
      eval::RecallVsReference(std::vector<std::size_t>{3, 2, 9},
                              std::vector<std::size_t>{1, 2, 3}),
      2.0 / 3.0);
  EXPECT_DOUBLE_EQ(
      eval::RecallVsReference(std::vector<std::size_t>{7, 8},
                              std::vector<std::size_t>{1, 2}),
      0.0);
  // Order is irrelevant; an empty reference scores 1.0.
  EXPECT_DOUBLE_EQ(
      eval::RecallVsReference(std::vector<std::size_t>{9, 1},
                              std::vector<std::size_t>{1, 9}),
      1.0);
  EXPECT_DOUBLE_EQ(eval::RecallVsReference(std::vector<std::size_t>{1},
                                           std::vector<std::size_t>{}),
                   1.0);
}

TEST(RecallVsReference, ScoredItemOverloadIgnoresScores) {
  const std::vector<ScoredItem> cand = {{0.9, 4}, {0.1, 2}};
  const std::vector<ScoredItem> ref = {{0.5, 2}, {0.4, 7}};
  EXPECT_DOUBLE_EQ(eval::RecallVsReference(cand, ref), 0.5);
}

// ---------------------------------------------------------------------------
// BENCH_ann.json (bench/ann_report.h).
// ---------------------------------------------------------------------------

bench::AnnBenchResult SmallResult() {
  bench::AnnBenchResult result;
  result.top_k = 10;
  result.dim = 16;
  result.queries = 32;
  bench::AnnCatalogSweep sweep;
  sweep.catalog_items = 1000;
  sweep.clusters = 32;
  sweep.build_seconds = 0.01;
  sweep.exact_qps = 1000.0;
  sweep.points = {{1, 0.62, 9000.0, 9.0, 31.0},
                  {4, 0.91, 4000.0, 4.0, 125.0},
                  {16, 1.0, 1500.0, 1.5, 500.0}};
  result.sweep.push_back(sweep);
  return result;
}

// One case per rule CheckAnnBench enforces.
TEST(AnnBenchJson, CheckRejectsEachBrokenRule) {
  ASSERT_TRUE(bench::CheckAnnBench(SmallResult()).ok());
  struct Case {
    const char* rule;
    void (*mutate)(bench::AnnBenchResult*);
  };
  const Case cases[] = {
      {"non-empty sweep", [](bench::AnnBenchResult* r) { r->sweep.clear(); }},
      {"non-empty points",
       [](bench::AnnBenchResult* r) { r->sweep[0].points.clear(); }},
      {"recall <= 1",
       [](bench::AnnBenchResult* r) {
         r->sweep[0].points[1].recall_at_k = 1.5;
       }},
      {"recall >= 0",
       [](bench::AnnBenchResult* r) {
         r->sweep[0].points[0].recall_at_k = -0.1;
       }},
      {"nprobe strictly increasing",
       [](bench::AnnBenchResult* r) { r->sweep[0].points[1].nprobe = 1; }},
      {"recall non-decreasing",
       [](bench::AnnBenchResult* r) {
         r->sweep[0].points[2].recall_at_k = 0.5;
       }},
  };
  for (const Case& c : cases) {
    bench::AnnBenchResult result = SmallResult();
    c.mutate(&result);
    EXPECT_FALSE(bench::CheckAnnBench(result).ok()) << c.rule;
  }
}

// The key paths and JSON kinds readers of BENCH_ann.json depend on; the
// writer must emit exactly these.
TEST(AnnBenchJson, JsonKeepsTheAnnSchema) {
  const std::set<std::string> want = PathSet(
      "$:object $.bench:string $.dim:number $.queries:number "
      "$.sweep:array $.sweep[]:object $.sweep[].build_seconds:number "
      "$.sweep[].catalog_items:number $.sweep[].clusters:number "
      "$.sweep[].exact_qps:number $.sweep[].points:array "
      "$.sweep[].points[]:object $.sweep[].points[].ivf_qps:number "
      "$.sweep[].points[].mean_candidates:number "
      "$.sweep[].points[].nprobe:number "
      "$.sweep[].points[].recall_at_k:number "
      "$.sweep[].points[].speedup_vs_exact:number $.top_k:number");
  const std::string json = bench::AnnBenchJson(SmallResult());
  EXPECT_EQ(JsonPaths(json), want);
  EXPECT_NE(json.find("\"bench\": \"ann\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Generator scaling satellites.
// ---------------------------------------------------------------------------

TEST(CatalogIndexable, GuardsIntOverflow) {
  EXPECT_TRUE(data::CheckCatalogIndexable(1000000, 64).ok());
  const std::size_t int_max =
      static_cast<std::size_t>(std::numeric_limits<int>::max());
  EXPECT_FALSE(data::CheckCatalogIndexable(int_max, 2).ok());
  EXPECT_FALSE(data::CheckCatalogIndexable(int_max / 8 + 1, 8).ok());
  EXPECT_TRUE(data::CheckCatalogIndexable(int_max / 8, 8).ok());
  const Status status = data::CheckCatalogIndexable(int_max, 64);
  EXPECT_NE(status.message().find("int indexing"), std::string::npos);
}

TEST(GenerateItemFeatures, DeterministicAndBlockSizeInvariant) {
  data::ItemFeatureConfig config;
  config.num_items = 1000;
  config.embed_dim = 16;
  config.latent_dim = 4;
  config.num_categories = 8;
  config.seed = 77;
  config.block_rows = 128;
  const Matrix a = data::GenerateItemFeatures(config);
  const Matrix b = data::GenerateItemFeatures(config);
  EXPECT_TRUE(BitwiseEqual(a, b));
  config.block_rows = 1000;  // one block
  const Matrix c = data::GenerateItemFeatures(config);
  EXPECT_TRUE(BitwiseEqual(a, c));
  config.block_rows = 37;  // ragged blocks
  const Matrix d = data::GenerateItemFeatures(config);
  EXPECT_TRUE(BitwiseEqual(a, d));
  ASSERT_EQ(a.rows(), 1000u);
  ASSERT_EQ(a.cols(), 16u);
}

}  // namespace
}  // namespace retrieval
}  // namespace whitenrec

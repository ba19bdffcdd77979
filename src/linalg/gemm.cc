#include "linalg/gemm.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "core/check.h"
#include "core/parallel.h"
#include "linalg/workspace.h"

// The blocked kernels follow the classic packed-GEMM decomposition:
//
//   loop over k-panels of depth kKc (sequential, ascending):
//     pack op(B)[k-panel, :] into kNr-wide column strips  (calling thread)
//     ParallelFor over kMc-row blocks of C:
//       pack op(A)[row block, k-panel] into kMr-tall row strips  (per worker)
//       for each kNr column strip, for each kMr row strip:
//         register-tiled micro-kernel: C tile += Apack strip * Bpack strip
//
// Packing gives the micro-kernel unit-stride, cache-resident operands (and
// makes op(A) transposition free: MatMulTransA's strided a(k, i) column walk
// happens once, during the pack). Determinism comes from the accumulation
// order: every C element is owned by exactly one ParallelFor chunk, carries
// ONE running accumulator, and sums its terms in ascending k — k-panels are
// visited sequentially and the register tile is stored/reloaded between
// panels, so splitting K changes nothing. That order is also exactly the
// naive kernels' order, which is why the two kernels are bitwise identical
// (gemm_test asserts it) and why the size dispatch is unobservable in results.
//
// The micro-kernel is written for auto-vectorization, not intrinsics: fixed
// trip counts, restrict-qualified unit-stride pointers, and a kMr x kNr
// accumulator array that lives in registers at -O3. whitenrec_linalg builds
// with -ffp-contract=off so both kernels lower a*b+acc identically even on
// FMA-capable -march builds.

#if defined(__GNUC__) || defined(__clang__)
#define WR_RESTRICT __restrict__
#else
#define WR_RESTRICT
#endif

namespace whitenrec {
namespace linalg {

namespace {

// Fired per completed output row range by the kernels that support a fused
// epilogue (see StreamMatMulTransB). Null means plain GEMM.
using RowBlockHook = std::function<void(std::size_t i0, std::size_t i1)>;

// Register tile (kMr x kNr accumulators) and cache blocking: a packed A
// strip (kKc * kMr) and B strip (kKc * kNr) are each 8 KB — L1-resident —
// while the full packed A block (kMc * kKc = 128 KB) sits in L2.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;
constexpr std::size_t kMc = 64;
constexpr std::size_t kKc = 256;
static_assert(kMc % kMr == 0, "row block must be a whole number of strips");

// Below this many multiply-adds the packing set-up costs more than it saves;
// the kernels are bitwise identical, so the dispatch is unobservable.
constexpr std::size_t kBlockedMinWork = 8192;

std::size_t& ActiveScoreTile() {
  static std::size_t tile = 256;
  return tile;
}

void CheckMatMulShapes(const Matrix& a, const Matrix& b, const Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.cols(), b.rows());
  WR_CHECK_EQ(c->rows(), a.rows());
  WR_CHECK_EQ(c->cols(), b.cols());
}

void CheckTransAShapes(const Matrix& a, const Matrix& b, const Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.rows(), b.rows());
  WR_CHECK_EQ(c->rows(), a.cols());
  WR_CHECK_EQ(c->cols(), b.cols());
}

void CheckTransBShapes(const Matrix& a, const Matrix& b, const Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.cols(), b.cols());
  WR_CHECK_EQ(c->rows(), a.rows());
  WR_CHECK_EQ(c->cols(), b.rows());
}

// Register accumulators for the small-row kernels (SmallRowsTile,
// RowBlockedMatMul): explicit two-lane vectors (a GCC/Clang extension, like
// the rest of this build's flags), native on every ISA clone and on non-x86
// SIMD. Left to the auto-vectorizer, loop nests with one to three rows get
// vectorized along k instead, with a transposing shuffle per step, and ran
// ~4x slower; wider generic vectors are lowered to scalars on clones that
// lack the width. Each lane is one element's own chain, so the vector form
// changes no bit.
typedef double Lane2 __attribute__((vector_size(2 * sizeof(double))));

// Unaligned loads and stores of two adjacent doubles (one movupd each).
inline Lane2 LoadLane2(const double* p) {
  Lane2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreLane2(double* p, Lane2 v) { std::memcpy(p, &v, sizeof(v)); }

// One packed strip row (kNr = 8 points at one k) for the distance kernels,
// and the matching integer lanes for their running nearest-centroid ids.
// Each lane is one point's own chain, as with Lane2. Neither is ever passed
// or returned by value: outside an AVX-512 clone that ABI is not fixed
// (-Wpsabi).
typedef double Lane8 __attribute__((vector_size(8 * sizeof(double))));
typedef std::int64_t Index8 __attribute__((vector_size(8 * sizeof(double))));

// ---------------------------------------------------------------------------
// Naive reference kernels. All accumulate on top of the existing C (the Into
// entry points zero it first), one term per k in ascending order.
// ---------------------------------------------------------------------------

void NaiveMatMul(const Matrix& a, const Matrix& b, Matrix* c) {
  const std::size_t grain = core::GrainForWork(a.cols() * b.cols());
  core::ParallelFor(0, a.rows(), grain, [&](std::size_t i0, std::size_t i1) {
    // ikj loop order: streams through b and c rows for cache friendliness.
    for (std::size_t i = i0; i < i1; ++i) {
      const double* arow = a.RowPtr(i);
      double* crow = c->RowPtr(i);
      for (std::size_t k = 0; k < a.cols(); ++k) {
        const double aik = arow[k];
        const double* brow = b.RowPtr(k);
        for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
      }
    }
  });
}

void NaiveMatMulTransA(const Matrix& a, const Matrix& b, Matrix* c) {
  const std::size_t grain = core::GrainForWork(a.rows() * b.cols());
  core::ParallelFor(0, a.cols(), grain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      double* crow = c->RowPtr(i);
      for (std::size_t k = 0; k < a.rows(); ++k) {
        const double aki = a(k, i);
        const double* brow = b.RowPtr(k);
        for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
      }
    }
  });
}

// C has c->cols() columns mapping to B rows [j_off, j_off + c->cols()) — a
// column window into A * B^T so the streaming layer can reuse the kernel for
// score panels. `hook`, when set, fires per completed row chunk while those
// C rows are cache-hot.
void NaiveMatMulTransB(const Matrix& a, const Matrix& b, Matrix* c,
                       std::size_t j_off = 0,
                       const RowBlockHook* hook = nullptr) {
  const std::size_t grain = core::GrainForWork(a.cols() * c->cols());
  core::ParallelFor(0, a.rows(), grain, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const double* arow = a.RowPtr(i);
      double* crow = c->RowPtr(i);
      for (std::size_t j = 0; j < c->cols(); ++j) {
        const double* brow = b.RowPtr(j_off + j);
        double sum = crow[j];
        for (std::size_t k = 0; k < a.cols(); ++k) sum += arow[k] * brow[k];
        crow[j] = sum;
      }
    }
    if (hook != nullptr && i1 > i0) (*hook)(i0, i1);
  });
}

// C += A * B below the blocked cut-off (the step forward's 1-row
// projections, for one): the naive ikj order, but each row's columns go in
// 16-wide blocks whose C values stay in registers across k instead of
// round-tripping through memory every k-step; the last n % 16 columns take
// the plain loop. Every element still starts from its C value and adds its
// k terms in ascending order.
void RowBlockedMatMul(const Matrix& a, const Matrix& b, Matrix* c) {
  const std::size_t kdim = a.cols();
  const std::size_t n = b.cols();
  const std::size_t grain = core::GrainForWork(kdim * n);
  core::ParallelFor(0, a.rows(), grain, [&](std::size_t i0, std::size_t i1) {
    constexpr std::size_t kCols = 2 * kNr;
    constexpr std::size_t kV = kCols / 2;
    for (std::size_t i = i0; i < i1; ++i) {
      const double* arow = a.RowPtr(i);
      double* crow = c->RowPtr(i);
      std::size_t jb = 0;
      for (; jb + kCols <= n; jb += kCols) {
        Lane2 acc[kV];
        for (std::size_t v = 0; v < kV; ++v) {
          acc[v] = LoadLane2(crow + jb + 2 * v);
        }
        for (std::size_t k = 0; k < kdim; ++k) {
          const double aik = arow[k];
          const double* brow = b.RowPtr(k) + jb;
          for (std::size_t v = 0; v < kV; ++v) {
            acc[v] += aik * LoadLane2(brow + 2 * v);
          }
        }
        for (std::size_t v = 0; v < kV; ++v) {
          StoreLane2(crow + jb + 2 * v, acc[v]);
        }
      }
      for (std::size_t j = jb; j < n; ++j) {
        double sum = crow[j];
        for (std::size_t k = 0; k < kdim; ++k) sum += arow[k] * b(k, j);
        crow[j] = sum;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

// Packs op(A)[i0 : i0+mb, k0 : k0+kb] into kMr-tall strips: strip s holds
// kb blocks of kMr values, dst[s*kb*kMr + k*kMr + r] = op(A)(i0+s*kMr+r,
// k0+k). Rows past the edge are zero-padded so the micro-kernel never
// branches on m inside its k loop.
void PackA(const Matrix& a, bool trans, std::size_t i0, std::size_t mb,
           std::size_t k0, std::size_t kb, double* out) {
  const std::size_t strips = (mb + kMr - 1) / kMr;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t ibase = i0 + s * kMr;
    const std::size_t mr = std::min(kMr, i0 + mb - ibase);
    double* dst = out + s * kb * kMr;
    if (trans) {
      // op(A) = A^T: source rows are contiguous in the output-row index, so
      // the transposition that used to be a strided a(k, i) column walk in
      // the naive kernel happens here at unit stride, once per panel.
      for (std::size_t k = 0; k < kb; ++k) {
        const double* src = a.RowPtr(k0 + k) + ibase;
        for (std::size_t r = 0; r < kMr; ++r)
          dst[k * kMr + r] = r < mr ? src[r] : 0.0;
      }
    } else {
      for (std::size_t r = 0; r < kMr; ++r) {
        if (r < mr) {
          const double* src = a.RowPtr(ibase + r) + k0;
          for (std::size_t k = 0; k < kb; ++k) dst[k * kMr + r] = src[k];
        } else {
          for (std::size_t k = 0; k < kb; ++k) dst[k * kMr + r] = 0.0;
        }
      }
    }
  }
}

// Packs op(B)[k0 : k0+kb, j0 : j0+nb] into kNr-wide strips:
// dst[s*kb*kNr + k*kNr + j] = op(B)(k0+k, j0+s*kNr+j), zero-padded past the
// column edge.
void PackB(const Matrix& b, bool trans, std::size_t j0, std::size_t nb,
           std::size_t k0, std::size_t kb, double* out) {
  const std::size_t strips = (nb + kNr - 1) / kNr;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t jbase = j0 + s * kNr;
    const std::size_t nr = std::min(kNr, j0 + nb - jbase);
    double* dst = out + s * kb * kNr;
    if (trans) {
      // op(B) = B^T with B (n x k): each output column is a contiguous
      // source row.
      for (std::size_t j = 0; j < kNr; ++j) {
        if (j < nr) {
          const double* src = b.RowPtr(jbase + j) + k0;
          for (std::size_t k = 0; k < kb; ++k) dst[k * kNr + j] = src[k];
        } else {
          for (std::size_t k = 0; k < kb; ++k) dst[k * kNr + j] = 0.0;
        }
      }
    } else {
      for (std::size_t k = 0; k < kb; ++k) {
        const double* src = b.RowPtr(k0 + k) + jbase;
        for (std::size_t j = 0; j < kNr; ++j)
          dst[k * kNr + j] = j < nr ? src[j] : 0.0;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Micro-kernels
// ---------------------------------------------------------------------------

// The micro-kernels are cloned per ISA level (resolved once via ifunc): the
// baseline x86-64 build stays portable while AVX2/AVX-512 hardware gets full
// vector width. Every clone performs the identical per-element mul-then-add
// sequence (-ffp-contract=off, no reassociation), so the dispatch cannot
// change a single bit of output.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(WHITENREC_NO_TARGET_CLONES)
#define WR_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define WR_KERNEL_CLONES
#endif

// Full tile: C[0:kMr, 0:kNr] (row stride ldc) += Apack strip * Bpack strip.
// The accumulator array has fixed extents and restrict-qualified unit-stride
// operands, which is what the auto-vectorizer needs to keep it in registers.
WR_KERNEL_CLONES
void MicroKernelFull(std::size_t kb, const double* WR_RESTRICT ap,
                     const double* WR_RESTRICT bp, double* WR_RESTRICT c,
                     std::size_t ldc) {
  double acc[kMr][kNr];
  for (std::size_t i = 0; i < kMr; ++i)
    for (std::size_t j = 0; j < kNr; ++j) acc[i][j] = c[i * ldc + j];
  for (std::size_t k = 0; k < kb; ++k) {
    const double* WR_RESTRICT av = ap + k * kMr;
    const double* WR_RESTRICT bv = bp + k * kNr;
    for (std::size_t i = 0; i < kMr; ++i) {
      const double aik = av[i];
      for (std::size_t j = 0; j < kNr; ++j) acc[i][j] += aik * bv[j];
    }
  }
  for (std::size_t i = 0; i < kMr; ++i)
    for (std::size_t j = 0; j < kNr; ++j) c[i * ldc + j] = acc[i][j];
}

// Edge tile: same accumulation, but only the (m x n) valid corner of C is
// loaded and stored. The packed operands are zero-padded, so the spare
// accumulators compute only inert zeros.
WR_KERNEL_CLONES
void MicroKernelEdge(std::size_t kb, const double* WR_RESTRICT ap,
                     const double* WR_RESTRICT bp, double* WR_RESTRICT c,
                     std::size_t ldc, std::size_t m, std::size_t n) {
  double acc[kMr][kNr] = {};
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) acc[i][j] = c[i * ldc + j];
  for (std::size_t k = 0; k < kb; ++k) {
    const double* WR_RESTRICT av = ap + k * kMr;
    const double* WR_RESTRICT bv = bp + k * kNr;
    for (std::size_t i = 0; i < kMr; ++i) {
      const double aik = av[i];
      for (std::size_t j = 0; j < kNr; ++j) acc[i][j] += aik * bv[j];
    }
  }
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) c[i * ldc + j] = acc[i][j];
}

// Small-M kernel: C[0:M, 0:n] = A rows * packed B strips [s0, s0 + ceil(n /
// kNr)), every k-panel in turn. Each element has one zero-started
// accumulator that sums k ascending, mul then add: the naive kernel's chain.
// A is read in place (its rows are unit stride in k), so a one-row batch
// pays for no A pack and no zero-padded kMr strip. M <= 3 keeps the
// accumulators and one B row (M * 4 + 4 two-lane vectors) in 16 registers.
// The strips past the last item are zero-padded, so only the n valid
// columns are stored.
// `packed` is a PackedItemTable's storage: the k-panel at depth k0 starts
// at packed + padded_rows * k0.
template <std::size_t M>
WR_KERNEL_CLONES void SmallRowsTile(const double* packed,
                                    std::size_t padded_rows,
                                    std::size_t k_total, std::size_t s0,
                                    const double* const* arows, double* c,
                                    std::size_t ldc, std::size_t n) {
  for (std::size_t jc = 0; jc < n; jc += kNr) {
    const std::size_t strip = s0 + jc / kNr;
    const std::size_t nr = std::min(kNr, n - jc);
    constexpr std::size_t kV = kNr / 2;
    Lane2 acc[M][kV] = {};
    for (std::size_t k0 = 0; k0 < k_total; k0 += kKc) {
      const std::size_t kb = std::min(kKc, k_total - k0);
      const double* bp = packed + padded_rows * k0 + strip * kb * kNr;
      for (std::size_t k = 0; k < kb; ++k) {
        Lane2 bv[kV];
        for (std::size_t v = 0; v < kV; ++v) {
          bv[v] = LoadLane2(bp + k * kNr + 2 * v);
        }
        for (std::size_t i = 0; i < M; ++i) {
          const double aik = arows[i][k0 + k];
          for (std::size_t v = 0; v < kV; ++v) acc[i][v] += aik * bv[v];
        }
      }
    }
    for (std::size_t i = 0; i < M; ++i) {
      double* crow = c + i * ldc + jc;
      if (nr == kNr) {
        for (std::size_t v = 0; v < kV; ++v) {
          StoreLane2(crow + 2 * v, acc[i][v]);
        }
      } else {
        for (std::size_t j = 0; j < nr; ++j) crow[j] = acc[i][j / 2][j % 2];
      }
    }
  }
}

// Squared-distance tile over a PackedItemTable's storage: acc[c * S + t]
// holds, lane j, ||x - centers[c]||^2 for point j of strip s0 + t. Every
// lane is one zero-started accumulator summing k ascending as
// `diff = x - y; acc += diff * diff`, mul then add: the chain of
// retrieval::NearestCentroid (the interleaving of C * S independent chains
// changes no bit). Inlined into the cloned kernels below, so it takes their ISA.
template <std::size_t S, std::size_t C>
__attribute__((always_inline)) inline void SquaredDistanceTile(
    const double* packed, std::size_t padded_rows, std::size_t k_total,
    std::size_t s0, const double* const* centers, Lane8* acc) {
  for (std::size_t v = 0; v < C * S; ++v) acc[v] = Lane8{};
  for (std::size_t k0 = 0; k0 < k_total; k0 += kKc) {
    const std::size_t kb = std::min(kKc, k_total - k0);
    const double* panel = packed + padded_rows * k0 + s0 * kb * kNr;
    for (std::size_t k = 0; k < kb; ++k) {
      Lane8 x[S];
      for (std::size_t t = 0; t < S; ++t) {
        std::memcpy(&x[t], panel + t * kb * kNr + k * kNr, sizeof(Lane8));
      }
      for (std::size_t c = 0; c < C; ++c) {
        const double y = centers[c][k0 + k];
        for (std::size_t t = 0; t < S; ++t) {
          const Lane8 diff = x[t] - y;
          acc[c * S + t] += diff * diff;
        }
      }
    }
  }
}

// Nearest-centroid labels for packed strips [s0, s1): one strip against
// kCenters centroids per tile (eight-point lanes times four centres is four
// independent vector chains). The running best starts from centroid 0 and
// a lane moves only where dist < best, centroids ascending:
// retrieval::NearestCentroid's exact rule, ties and NaNs included. Rows past `rows` (the zero padding of
// the last strip) are computed but not stored.
WR_KERNEL_CLONES
void NearestCentroidStrips(const double* packed, std::size_t padded_rows,
                           std::size_t rows, std::size_t d, std::size_t s0,
                           std::size_t s1, const double* centroids,
                           std::size_t clusters, std::uint32_t* labels) {
  constexpr std::size_t kCenters = 4;
  for (std::size_t s = s0; s < s1; ++s) {
    Lane8 best = {};
    Index8 best_id = {};
    for (std::size_t c0 = 0; c0 < clusters; c0 += kCenters) {
      const std::size_t cn = std::min(kCenters, clusters - c0);
      const double* centers[kCenters] = {};
      for (std::size_t c = 0; c < cn; ++c) {
        centers[c] = centroids + (c0 + c) * d;
      }
      Lane8 dist[kCenters];
      if (cn == 4) {
        SquaredDistanceTile<1, 4>(packed, padded_rows, d, s, centers, dist);
      } else if (cn == 3) {
        SquaredDistanceTile<1, 3>(packed, padded_rows, d, s, centers, dist);
      } else if (cn == 2) {
        SquaredDistanceTile<1, 2>(packed, padded_rows, d, s, centers, dist);
      } else {
        SquaredDistanceTile<1, 1>(packed, padded_rows, d, s, centers, dist);
      }
      std::size_t c = 0;
      if (c0 == 0) {
        best = dist[0];
        c = 1;
      }
      for (; c < cn; ++c) {
        const Index8 closer = dist[c] < best;
        best = closer ? dist[c] : best;
        best_id = closer ? Index8{} + static_cast<std::int64_t>(c0 + c)
                         : best_id;
      }
    }
    const std::size_t nr = std::min(kNr, rows - s * kNr);
    for (std::size_t j = 0; j < nr; ++j) {
      labels[s * kNr + j] = static_cast<std::uint32_t>(best_id[j]);
    }
  }
}

// Min-distance update for packed strips [s0, s1) against one centre:
// kStrips strips per tile for four independent chains, then single strips
// for the remainder. Scalar epilogue per stored row.
WR_KERNEL_CLONES
void MinDistanceStrips(const double* packed, std::size_t padded_rows,
                       std::size_t rows, std::size_t d, std::size_t s0,
                       std::size_t s1, const double* center, bool reset,
                       double* min_dist) {
  constexpr std::size_t kStrips = 4;
  const double* const centers[1] = {center};
  std::size_t s = s0;
  while (s < s1) {
    Lane8 dist[kStrips];
    const std::size_t sn = s + kStrips <= s1 ? kStrips : 1;
    if (sn == kStrips) {
      SquaredDistanceTile<kStrips, 1>(packed, padded_rows, d, s, centers,
                                      dist);
    } else {
      SquaredDistanceTile<1, 1>(packed, padded_rows, d, s, centers, dist);
    }
    for (std::size_t t = 0; t < sn; ++t) {
      const std::size_t i0 = (s + t) * kNr;
      const std::size_t nr = std::min(kNr, rows - i0);
      for (std::size_t j = 0; j < nr; ++j) {
        const double v = dist[t][j];
        if (reset || v < min_dist[i0 + j]) min_dist[i0 + j] = v;
      }
    }
    s += sn;
  }
}

// ---------------------------------------------------------------------------
// Blocked driver: C += op(A) * op(B), C already shaped (m, n).
//
// `j_off` shifts the op(B) column window: C column j maps to op(B) column
// j_off + j, letting the streaming layer compute a score panel without
// slicing B. `hook`, when set, is the tile epilogue — fired per kMc row
// block as soon as the block's final k-panel lands, i.e. while the block's C
// rows are still cache-resident, from the worker that computed them.
// ---------------------------------------------------------------------------

void BlockedGemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
                 Matrix* c, std::size_t j_off = 0,
                 const RowBlockHook* hook = nullptr) {
  const std::size_t m = c->rows();
  const std::size_t n = c->cols();
  const std::size_t k_total = trans_a ? a.rows() : a.cols();
  if (m == 0 || n == 0 || k_total == 0) return;

  const std::size_t nstrips = (n + kNr - 1) / kNr;
  const std::size_t nblocks = (m + kMc - 1) / kMc;
  const std::size_t apack_size = kMc * kKc;

  for (std::size_t k0 = 0; k0 < k_total; k0 += kKc) {
    const std::size_t kb = std::min(kKc, k_total - k0);
    const bool last_panel = k0 + kb == k_total;
    // B panel is packed once per k-panel on the calling thread and read by
    // every worker. Hold only the raw pointer across the ParallelFor: the
    // workspace may grow other slots, which can move the vector objects but
    // never their heap storage.
    double* bpack =
        ThreadLocalWorkspace().Buf(kWsGemmPackB, nstrips * kNr * kb).data();
    PackB(b, trans_b, j_off, n, k0, kb, bpack);

    const std::size_t grain = core::GrainForWork(kMc * n * kb);
    core::ParallelFor(0, nblocks, grain, [&](std::size_t blk0,
                                             std::size_t blk1) {
      double* apack = ThreadLocalWorkspace().Buf(kWsGemmPackA, apack_size)
                          .data();
      for (std::size_t blk = blk0; blk < blk1; ++blk) {
        const std::size_t i0 = blk * kMc;
        const std::size_t mb = std::min(kMc, m - i0);
        const std::size_t mstrips = (mb + kMr - 1) / kMr;
        PackA(a, trans_a, i0, mb, k0, kb, apack);
        // j outer / i inner: one L1-resident B strip is reused against the
        // whole L2-resident A block before moving on.
        for (std::size_t js = 0; js < nstrips; ++js) {
          const std::size_t j0 = js * kNr;
          const std::size_t nr = std::min(kNr, n - j0);
          const double* bstrip = bpack + js * kb * kNr;
          for (std::size_t is = 0; is < mstrips; ++is) {
            const std::size_t ibase = i0 + is * kMr;
            const std::size_t mr = std::min(kMr, m - ibase);
            const double* astrip = apack + is * kb * kMr;
            double* ctile = c->RowPtr(ibase) + j0;
            if (mr == kMr && nr == kNr) {
              MicroKernelFull(kb, astrip, bstrip, ctile, n);
            } else {
              MicroKernelEdge(kb, astrip, bstrip, ctile, n, mr, nr);
            }
          }
        }
        if (hook != nullptr && last_panel) (*hook)(i0, i0 + mb);
      }
    });
  }
}

bool UseBlocked(std::size_t m, std::size_t n, std::size_t k) {
  return m * n * k >= kBlockedMinWork;
}

// One score panel: *c = A * B[j0 : j0+jn, :]^T, with the optional row-block
// epilogue fired while rows are cache-hot. Both kernels produce
// panel elements bitwise equal to the corresponding full-GEMM elements (same
// canonical per-element ascending-k chain; tile boundaries only move where
// zero-padded inert lanes sit).
void PanelTransB(const Matrix& a, const Matrix& b, std::size_t j0,
                 std::size_t jn, Matrix* c, const RowBlockHook* hook) {
  c->Resize(a.rows(), jn);
  if (UseBlocked(a.rows(), jn, a.cols())) {
    BlockedGemm(a, /*trans_a=*/false, b, /*trans_b=*/true, c, j0, hook);
  } else {
    NaiveMatMulTransB(a, b, c, j0, hook);
  }
}

}  // namespace

void NaiveMatMulAcc(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckMatMulShapes(a, b, c);
  NaiveMatMul(a, b, c);
}

void NaiveMatMulTransAAcc(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckTransAShapes(a, b, c);
  NaiveMatMulTransA(a, b, c);
}

void NaiveMatMulTransBAcc(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckTransBShapes(a, b, c);
  NaiveMatMulTransB(a, b, c);
}

std::size_t ScoreTileCols() { return ActiveScoreTile(); }

void SetScoreTileCols(std::size_t tile) {
  WR_CHECK_GT(tile, 0u);
  ActiveScoreTile() = tile;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.cols(), b.rows());
  c->Resize(a.rows(), b.cols());
  MatMulAcc(a, b, c);
}

void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.rows(), b.rows());
  c->Resize(a.cols(), b.cols());
  MatMulTransAAcc(a, b, c);
}

void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c) {
  WR_CHECK(c != &a && c != &b);
  WR_CHECK_EQ(a.cols(), b.cols());
  c->Resize(a.rows(), b.rows());
  MatMulTransBAcc(a, b, c);
}

void MatMulAcc(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckMatMulShapes(a, b, c);
  if (UseBlocked(c->rows(), c->cols(), a.cols())) {
    BlockedGemm(a, /*trans_a=*/false, b, /*trans_b=*/false, c);
  } else {
    RowBlockedMatMul(a, b, c);
  }
}

void MatMulTransAAcc(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckTransAShapes(a, b, c);
  if (UseBlocked(c->rows(), c->cols(), a.rows())) {
    BlockedGemm(a, /*trans_a=*/true, b, /*trans_b=*/false, c);
  } else {
    NaiveMatMulTransA(a, b, c);
  }
}

void MatMulTransBAcc(const Matrix& a, const Matrix& b, Matrix* c) {
  CheckTransBShapes(a, b, c);
  if (UseBlocked(c->rows(), c->cols(), a.cols())) {
    BlockedGemm(a, /*trans_a=*/false, b, /*trans_b=*/true, c);
  } else {
    NaiveMatMulTransB(a, b, c);
  }
}

void MatVecInto(const Matrix& a, const std::vector<double>& x,
                std::vector<double>* y) {
  WR_CHECK(y != &x);
  WR_CHECK_EQ(a.cols(), x.size());
  y->assign(a.rows(), 0.0);
  if (a.rows() == 0 || a.cols() == 0) return;
  const double* WR_RESTRICT xp = x.data();
  double* WR_RESTRICT yp = y->data();
  const std::size_t cols = a.cols();
  // Four independent row accumulators for ILP; each row keeps the canonical
  // single-accumulator ascending-k order, so every problem size shares this
  // one path.
  core::ParallelFor(0, a.rows(), core::GrainForWork(cols),
                    [&](std::size_t i0, std::size_t i1) {
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const double* WR_RESTRICT r0 = a.RowPtr(i);
      const double* WR_RESTRICT r1 = a.RowPtr(i + 1);
      const double* WR_RESTRICT r2 = a.RowPtr(i + 2);
      const double* WR_RESTRICT r3 = a.RowPtr(i + 3);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (std::size_t k = 0; k < cols; ++k) {
        const double xk = xp[k];
        s0 += r0[k] * xk;
        s1 += r1[k] * xk;
        s2 += r2[k] * xk;
        s3 += r3[k] * xk;
      }
      yp[i] = s0;
      yp[i + 1] = s1;
      yp[i + 2] = s2;
      yp[i + 3] = s3;
    }
    for (; i < i1; ++i) {
      const double* WR_RESTRICT row = a.RowPtr(i);
      double sum = 0.0;
      for (std::size_t k = 0; k < cols; ++k) sum += row[k] * xp[k];
      yp[i] = sum;
    }
  });
}

// ---------------------------------------------------------------------------
// Streaming scoring layer. The panel lives in the calling thread's workspace
// (slot kWsStreamPanel), so nothing here allocates per call in steady state
// and nesting streaming calls is not supported.
// ---------------------------------------------------------------------------

void StreamMatMulTransBTiles(const Matrix& a, const Matrix& b,
                             std::size_t tile, const ScoreRowsFn& fn) {
  WR_CHECK_EQ(a.cols(), b.cols());
  WR_CHECK_GT(tile, 0u);
  WR_CHECK(fn != nullptr);
  const std::size_t n = b.rows();
  if (a.rows() == 0 || n == 0) return;
  Matrix& panel = ThreadLocalWorkspace().MatRef(kWsStreamPanel);
  for (std::size_t j0 = 0; j0 < n; j0 += tile) {
    const std::size_t jn = std::min(tile, n - j0);
    const RowBlockHook hook = [&](std::size_t i0, std::size_t i1) {
      fn(i0, i1, j0, jn, panel);
    };
    PanelTransB(a, b, j0, jn, &panel, &hook);
  }
}

void StreamMatMulTransB(const Matrix& a, const Matrix& b,
                        const ScoreRowsFn& fn) {
  StreamMatMulTransBTiles(a, b, ScoreTileCols(), fn);
}

void StreamMatMulTransBPanels(const Matrix& a, const Matrix& b,
                              std::size_t tile, const ScorePanelFn& fn) {
  WR_CHECK_EQ(a.cols(), b.cols());
  WR_CHECK_GT(tile, 0u);
  WR_CHECK(fn != nullptr);
  const std::size_t n = b.rows();
  if (a.rows() == 0 || n == 0) return;
  Matrix& panel = ThreadLocalWorkspace().MatRef(kWsStreamPanel);
  for (std::size_t j0 = 0; j0 < n; j0 += tile) {
    const std::size_t jn = std::min(tile, n - j0);
    PanelTransB(a, b, j0, jn, &panel, /*hook=*/nullptr);
    fn(j0, jn, &panel);
  }
}

// ---------------------------------------------------------------------------
// Pre-packed item table: the layout BlockedGemm's PackB(trans_b) builds per
// call, built once. k-panel p (depth k0 = p * kKc, kb rows) starts at
// padded_rows_ * k0 and holds strip s at s * kb * kNr, where element
// (k, j) is column k0 + k of packed row s * kNr + j.
// ---------------------------------------------------------------------------

void PackedItemTable::Pack(const Matrix& items) {
  PackGathered(items, nullptr, items.rows());
}

void PackedItemTable::PackRows(const Matrix& items,
                               const std::vector<std::size_t>& rows) {
  for (std::size_t r : rows) WR_CHECK_LT(r, items.rows());
  PackGathered(items, rows.data(), rows.size());
}

void PackedItemTable::PackGathered(const Matrix& items,
                                   const std::size_t* rows,
                                   std::size_t count) {
  rows_ = count;
  cols_ = items.cols();
  padded_rows_ = (rows_ + kNr - 1) / kNr * kNr;
  strips_.assign(padded_rows_ * cols_, 0.0);  // zero padding past rows_
  for (std::size_t k0 = 0; k0 < cols_; k0 += kKc) {
    const std::size_t kb = std::min(kKc, cols_ - k0);
    double* panel = strips_.data() + padded_rows_ * k0;
    for (std::size_t r = 0; r < rows_; ++r) {
      const double* src =
          items.RowPtr(rows != nullptr ? rows[r] : r) + k0;
      double* dst = panel + (r / kNr) * kb * kNr + r % kNr;
      for (std::size_t k = 0; k < kb; ++k) dst[k * kNr] = src[k];
    }
  }
}

void PackedItemTable::Clear() {
  rows_ = 0;
  cols_ = 0;
  padded_rows_ = 0;
  std::vector<double>().swap(strips_);
}

void StreamPackedMatMulTransB(const Matrix& a, const PackedItemTable& b,
                              const ScoreRowsFn& fn) {
  WR_CHECK_EQ(a.cols(), b.cols());
  WR_CHECK(fn != nullptr);
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t d = a.cols();
  if (m == 0 || n == 0) return;
  // Whole strips per tile, so no strip straddles two tiles.
  const std::size_t tile = (ScoreTileCols() + kNr - 1) / kNr * kNr;
  const double* packed = b.strips_.data();
  const std::size_t ld = b.padded_rows_;
  Matrix& panel = ThreadLocalWorkspace().MatRef(kWsStreamPanel);
  // Row blocks of kMc rows, each scored in groups of up to kSmallRows rows
  // and handed to `fn` while resident. The body is built once per call;
  // the tile loop below only moves j0 / jn.
  constexpr std::size_t kSmallRows = 3;
  const std::size_t nblocks = (m + kMc - 1) / kMc;
  std::size_t j0 = 0;
  std::size_t jn = 0;
  const std::function<void(std::size_t, std::size_t)> body =
      [&](std::size_t blk0, std::size_t blk1) {
        const std::size_t s0 = j0 / kNr;
        for (std::size_t blk = blk0; blk < blk1; ++blk) {
          const std::size_t i0 = blk * kMc;
          const std::size_t i1 = std::min(m, i0 + kMc);
          for (std::size_t i = i0; i < i1; i += kSmallRows) {
            const std::size_t mr = std::min(kSmallRows, i1 - i);
            const double* arows[kSmallRows] = {};
            for (std::size_t r = 0; r < mr; ++r) arows[r] = a.RowPtr(i + r);
            double* c = panel.RowPtr(i);
            if (mr == 1) {
              SmallRowsTile<1>(packed, ld, d, s0, arows, c, jn, jn);
            } else if (mr == 2) {
              SmallRowsTile<2>(packed, ld, d, s0, arows, c, jn, jn);
            } else {
              SmallRowsTile<3>(packed, ld, d, s0, arows, c, jn, jn);
            }
          }
          fn(i0, i1, j0, jn, panel);
        }
      };
  for (j0 = 0; j0 < n; j0 += tile) {
    jn = std::min(tile, n - j0);
    panel.Resize(m, jn);
    core::ParallelFor(0, nblocks, core::GrainForWork(kMc * jn * d), body);
  }
}

void PackedNearestCentroids(const PackedItemTable& points,
                            const Matrix& centroids,
                            std::vector<std::uint32_t>* labels) {
  WR_CHECK_GT(centroids.rows(), 0u);
  WR_CHECK_EQ(centroids.cols(), points.cols());
  WR_CHECK_EQ(labels->size(), points.rows());
  const std::size_t d = points.cols();
  const std::size_t clusters = centroids.rows();
  const std::size_t nstrips = points.padded_rows_ / kNr;
  const double* packed = points.strips_.data();
  std::uint32_t* out = labels->data();
  core::ParallelFor(0, nstrips, core::GrainForWork(kNr * clusters * d),
                    [&](std::size_t s0, std::size_t s1) {
    NearestCentroidStrips(packed, points.padded_rows_, points.rows_, d, s0,
                          s1, centroids.data(), clusters, out);
  });
}

void PackedMinSquaredDistances(const PackedItemTable& points,
                               const double* center, bool reset,
                               std::vector<double>* min_dist) {
  WR_CHECK(center != nullptr);
  WR_CHECK_EQ(min_dist->size(), points.rows());
  const std::size_t d = points.cols();
  const std::size_t nstrips = points.padded_rows_ / kNr;
  const double* packed = points.strips_.data();
  double* out = min_dist->data();
  core::ParallelFor(0, nstrips, core::GrainForWork(kNr * d),
                    [&](std::size_t s0, std::size_t s1) {
    MinDistanceStrips(packed, points.padded_rows_, points.rows_, d, s0, s1,
                      center, reset, out);
  });
}

double RowDotTransB(const Matrix& a, std::size_t i, const Matrix& b,
                    std::size_t j) {
  WR_CHECK_EQ(a.cols(), b.cols());
  WR_CHECK_LT(i, a.rows());
  WR_CHECK_LT(j, b.rows());
  const double* WR_RESTRICT arow = a.RowPtr(i);
  const double* WR_RESTRICT brow = b.RowPtr(j);
  // One accumulator, k ascending, mul-then-add (-ffp-contract=off in this
  // TU): the exact chain both kernels use per element, so the result
  // is bitwise identical to the GEMM's element (i, j).
  double sum = 0.0;
  for (std::size_t k = 0; k < a.cols(); ++k) sum += arow[k] * brow[k];
  return sum;
}

}  // namespace linalg
}  // namespace whitenrec

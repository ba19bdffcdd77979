#ifndef WHITENREC_LINALG_GEMM_H_
#define WHITENREC_LINALG_GEMM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/matrix.h"

namespace whitenrec {
namespace linalg {

// Dense GEMM kernel layer. Two kernels sit behind every MatMul/
// MatMulTransA/MatMulTransB call, chosen by problem size alone:
//
//  * the reference loops (NaiveMatMul*Acc below) — plain triple loops, used
//    for products under 8192 multiply-adds, where packing costs more than
//    it saves;
//  * the blocked kernels — panel-packed, register-tiled, L1/L2
//    cache-blocked (see gemm.cc and DESIGN.md §6.1) — for everything else.
//
// Both accumulate every output element in the SAME canonical order — one
// running accumulator per element, k ascending from 0 — so they are bitwise
// identical to each other at any thread count, and the size dispatch is
// invisible to the deterministic-training guarantee. tests/gemm_test.cc
// holds the blocked path to the reference loops bitwise.

// Reference kernels: C += op(A) * op(B) through the plain loops, whatever
// the problem size. C must already have the output shape. These are the
// oracles the blocked path is tested against (and the baseline that
// bench_micro_kernels times it against); production code calls the
// MatMul*Acc / *Into entry points below instead.
void NaiveMatMulAcc(const Matrix& a, const Matrix& b, Matrix* c);
void NaiveMatMulTransAAcc(const Matrix& a, const Matrix& b, Matrix* c);
void NaiveMatMulTransBAcc(const Matrix& a, const Matrix& b, Matrix* c);

// Destination-reusing entry points: *c is reshaped via Matrix::Resize (so a
// persistent Workspace slot is reused across calls) and overwritten. c must
// not alias a or b.
// C = A * B.
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* c);
// C = A^T * B.
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* c);
// C = A * B^T.
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* c);
// y = A * x.
void MatVecInto(const Matrix& a, const std::vector<double>& x,
                std::vector<double>* y);

// Accumulating variants for gradient sums: C += op(A) * B without the
// intermediate product matrix. The per-element term order is the same
// canonical k-ascending order continued on top of the existing C value.
// C += A * B.
void MatMulAcc(const Matrix& a, const Matrix& b, Matrix* c);
// C += A^T * B.
void MatMulTransAAcc(const Matrix& a, const Matrix& b, Matrix* c);
// C += A * B^T.
void MatMulTransBAcc(const Matrix& a, const Matrix& b, Matrix* c);

// ---------------------------------------------------------------------------
// Streaming (fused-epilogue) scoring layer.
//
// The full-softmax objective and full-catalog ranking both need C = A * B^T
// with B the (num_items, d) item table — a C that is (rows, num_items) and
// dominates peak memory. The entry points below, which back the training
// loss and every factorized ranking path, never materialize that C:
// they walk item tiles of width ScoreTileCols() in canonical ascending order
// and hand each (rows x tile) score panel to the caller while it is still
// cache-resident.
//
// Determinism and parity guarantees (tests/topk_test.cc, tests/loss_test.cc):
//  * Panel elements are computed by the same kernels with the same canonical
//    per-element ascending-k accumulation as the materialized GEMM, so every
//    streamed score is BITWISE identical to the corresponding element of
//    MatMulTransB(a, b) — for any tile width and thread count.
//  * Tiles are visited sequentially in ascending column order, and every
//    output row belongs to exactly one deterministic ParallelFor chunk, so
//    any per-row reduction the caller runs in the epilogue sees its terms in
//    a fixed order regardless of thread count.
// ---------------------------------------------------------------------------

// Item-tile width of the streaming layer (default 256). Any positive width
// produces the same scores and rankings; SetScoreTileCols exists so tests
// can sweep it.
std::size_t ScoreTileCols();
void SetScoreTileCols(std::size_t tile);

// Row-range epilogue invoked from inside the kernel while rows [i0, i1) of
// `panel` are cache-hot. panel is (a.rows() x jn) and holds the FINAL scores
// a[i] . b[j0 + c] for columns c in [0, jn). Invoked from worker threads:
// implementations must touch only per-row state (distinct rows may be
// processed concurrently; one row is never processed twice per tile). The
// chunking of [i0, i1) is deterministic but unspecified — epilogues must not
// depend on it beyond per-row independence.
using ScoreRowsFn =
    std::function<void(std::size_t i0, std::size_t i1, std::size_t j0,
                       std::size_t jn, const Matrix& panel)>;

// Whole-panel epilogue invoked sequentially on the calling thread once the
// (a.rows() x jn) panel for columns [j0, j0 + jn) is complete. The panel is
// mutable so callers can transform scores in place (e.g. into a dlogits
// tile) and feed them straight back into GEMM-accumulate calls.
using ScorePanelFn =
    std::function<void(std::size_t j0, std::size_t jn, Matrix* panel)>;

// Streams C = A * B^T through item tiles, firing `fn` per row block while
// the block is cache-resident. Tile width is ScoreTileCols().
void StreamMatMulTransB(const Matrix& a, const Matrix& b,
                        const ScoreRowsFn& fn);
// Same with an explicit tile width (tests sweep it).
void StreamMatMulTransBTiles(const Matrix& a, const Matrix& b,
                             std::size_t tile, const ScoreRowsFn& fn);

// Streams C = A * B^T delivering each complete panel to `fn` on the calling
// thread. Used by the streaming softmax-CE backward pass, whose per-tile
// work (dlogits -> dH/dV GEMMs) is not row-independent.
void StreamMatMulTransBPanels(const Matrix& a, const Matrix& b,
                              std::size_t tile, const ScorePanelFn& fn);

// ---------------------------------------------------------------------------
// Pre-packed item table.
//
// The entry points above pack B into the blocked kernel's column strips on
// every call, which suits training and eval, whose B changes between calls. A
// serving scorer reuses one frozen item table for every request batch, so it
// packs the table once (Pack, from Scorer::Rebuild) and streams over the
// packed strips. The pack is a copy: a refit that changes the table must
// re-pack it.
//
// StreamPackedMatMulTransB keeps the streaming contract above: every panel
// element is bitwise equal to the same element of MatMulTransB(a, items) and
// tiles arrive in ascending column order. Rows go in groups of up to three
// through a register kernel that reads A in place, with the canonical
// per-element chain (one accumulator, k ascending, mul then add); no pack
// runs per call.
// ---------------------------------------------------------------------------

class PackedItemTable;

// Streams C = A * B^T over a packed B, firing `fn` per row block while the
// block is cache-resident. Tiles are ScoreTileCols() wide, rounded up to a
// whole number of 8-item strips.
void StreamPackedMatMulTransB(const Matrix& a, const PackedItemTable& b,
                              const ScoreRowsFn& fn);

// ---------------------------------------------------------------------------
// Squared Euclidean distances over a packed table (the k-means builder).
//
// k-means packs its points once per fit and then, on every Lloyd pass, asks
// for each point's nearest centroid, and on every k-means++ step for each
// point's distance to one new centre. Every (point, centre) distance is one
// accumulator summed k ascending as `diff = x - y; acc += diff * diff`, mul
// then add (-ffp-contract=off): the expression and order of the scalar loop
// behind retrieval::NearestCentroid, so each distance is bitwise equal to
// it. The kernel interleaves independent chains only (a strip of 8 points
// against a few centres at once). Both entry points split the strips over
// the thread pool; each point's result depends on that point alone, so the
// output is the same at any thread count.
// ---------------------------------------------------------------------------

// (*labels)[i] = the row of `centroids` nearest to packed row i, for every
// row. The running best starts at centroid 0 and moves only on a strict <,
// in ascending centroid order, so ties go to the smaller index and a NaN
// distance never wins. labels must already hold points.rows() entries.
void PackedNearestCentroids(const PackedItemTable& points,
                            const Matrix& centroids,
                            std::vector<std::uint32_t>* labels);

// For every packed row i, with dist the squared distance from row i to
// `center` (points.cols() values): (*min_dist)[i] = dist when `reset`,
// otherwise (*min_dist)[i] = dist only if dist < (*min_dist)[i]. min_dist
// must already hold points.rows() entries.
void PackedMinSquaredDistances(const PackedItemTable& points,
                               const double* center, bool reset,
                               std::vector<double>* min_dist);

class PackedItemTable {
 public:
  // Packs the (num_items, d) table, replacing any previous pack. Storage is
  // one block per k-panel of the blocked kernel, each holding every
  // 8-item column strip of that panel (zero-padded past the last item), so
  // any d works.
  void Pack(const Matrix& items);
  // Same layout over a row subset: packed row i is items row rows[i].
  void PackRows(const Matrix& items, const std::vector<std::size_t>& rows);
  // Drops the pack and its storage.
  void Clear();

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  friend void StreamPackedMatMulTransB(const Matrix& a,
                                       const PackedItemTable& b,
                                       const ScoreRowsFn& fn);
  friend void PackedNearestCentroids(const PackedItemTable& points,
                                     const Matrix& centroids,
                                     std::vector<std::uint32_t>* labels);
  friend void PackedMinSquaredDistances(const PackedItemTable& points,
                                        const double* center, bool reset,
                                        std::vector<double>* min_dist);

  // Packs items rows rows[0 .. count), or rows 0 .. count when rows is null.
  void PackGathered(const Matrix& items, const std::size_t* rows,
                    std::size_t count);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t padded_rows_ = 0;  // rows_ rounded up to whole strips
  std::vector<double> strips_;
};

// Single element of A * B^T: a[i] . b[j], accumulated in the canonical
// ascending-k order inside this translation unit (-ffp-contract=off), so the
// result is bitwise identical to element (i, j) of the materialized or
// streamed GEMM. Used to precompute target scores for streaming rank
// counting.
double RowDotTransB(const Matrix& a, std::size_t i, const Matrix& b,
                    std::size_t j);

}  // namespace linalg
}  // namespace whitenrec

#endif  // WHITENREC_LINALG_GEMM_H_

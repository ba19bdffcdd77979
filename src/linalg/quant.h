#ifndef WHITENREC_LINALG_QUANT_H_
#define WHITENREC_LINALG_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"

namespace whitenrec {
namespace linalg {

// Quantized item-embedding tables for compressed inference (DESIGN.md §12).
//
// The serving/eval item table is a (num_items, d) double matrix that
// dominates per-shard memory at catalog scale. QuantizedItemTable stores it
// as int8 codes with per-row per-64-column-block scales (8.06 bits/value at
// d = 64) or as bf16 (16 bits/value), and the streaming drivers below score
// against it by dequantizing one item tile at a time into a thread-local
// workspace buffer and running the ordinary fused-epilogue GEMM over the
// tile — the dequantize-in-the-tile epilogue on the StreamMatMulTransB path.
//
// Determinism contract (tests/quant_test.cc):
//  * Encoding happens once, at pack time, with an explicit round-to-nearest-
//    even helper — never fenv-dependent rounding — so the codes are a pure
//    function of the input table.
//  * Dequantization is per-element (code * scale in double), so the
//    dequantized tile values are independent of tile width and thread
//    count; the streamed scores then inherit the GEMM layer's canonical
//    ascending-k accumulation and are BITWISE identical at any thread
//    count, tile width, and kernel variant — and to RowDot below, which is
//    what lets the IVF rerank agree with the exact quantized path.

// Item-table representation behind the Scorer seam. kFp32 is the pass-
// through default: score the native double table, behavior bitwise
// unchanged. (The name follows the knob surface — fp32|int8|bf16 — the
// native table is the full-precision baseline.)
enum class ItemQuantKind { kFp32, kInt8, kBf16 };

// Active representation, process-wide; kFp32 until SetItemQuantKind.
ItemQuantKind CurrentItemQuantKind();
void SetItemQuantKind(ItemQuantKind kind);
const char* ItemQuantKindName(ItemQuantKind kind);
// Inverse of ItemQuantKindName: "fp32" | "int8" | "bf16".
Result<ItemQuantKind> ParseItemQuantKind(const std::string& text);

// Round half to even, implemented with explicit arithmetic so the result
// does not depend on the floating-point environment's rounding mode.
double RoundHalfToEven(double x);

// Packed quantized copy of an item table. Pack() encodes; the accessors
// dequantize. A default-constructed (or Clear()ed) table is empty.
class QuantizedItemTable {
 public:
  // Columns per int8 scale block: one scale per row per 64-column block
  // keeps the quantization step local (a single outlier dimension cannot
  // flatten the whole row's resolution) at 1 bit/value of scale overhead.
  static constexpr std::size_t kScaleBlockCols = 64;

  QuantizedItemTable() = default;

  // Encodes `items` under `kind` (must be kInt8 or kBf16; the fp32 pass-
  // through never constructs a table). int8: per row and per 64-col block,
  // scale = max|v| / 127 and code = clamp(RNE(v / scale), -127, 127).
  // bf16: round-to-nearest-even truncation of the value's float32 bits to
  // the upper 16.
  void Pack(const Matrix& items, ItemQuantKind kind);

  void Clear();
  bool empty() const { return rows_ == 0; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  ItemQuantKind kind() const { return kind_; }

  // Bytes of the packed representation (codes + scales), the number the
  // compression bench reports against rows * cols * sizeof(double).
  std::size_t PackedBytes() const;

  // Dequantizes rows [j0, j0 + jn) into *out, reshaped to (jn, cols). Every
  // element is code * scale (int8) or the widened bf16 value — exact double
  // arithmetic, independent of jn and of which tile the row lands in.
  void DequantizeRowsInto(std::size_t j0, std::size_t jn, Matrix* out) const;

  // a[i] . dequant(row item), accumulated in the canonical ascending-k
  // single-accumulator order: bitwise identical to element (i, item) of the
  // streamed quantized GEMM. The IVF rerank hook.
  double RowDot(const Matrix& a, std::size_t i, std::size_t item) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  ItemQuantKind kind_ = ItemQuantKind::kFp32;
  std::vector<std::int8_t> codes_;     // kInt8: rows_ * cols_
  std::vector<double> scales_;         // kInt8: rows_ * blocks-per-row
  std::vector<std::uint16_t> bits_;    // kBf16: rows_ * cols_
};

// Streams C = A * dequant(items)^T through item tiles of width
// ScoreTileCols(), firing `fn` per row block exactly like
// StreamMatMulTransB — same ScoreRowsFn signature, same deterministic
// chunking — so the Scorer epilogues drop in unchanged. Each tile is
// dequantized once into the calling thread's workspace (slot
// kWsStreamBTile) and scored by the ordinary streaming GEMM.
void StreamQuantMatMulTransB(const Matrix& a, const QuantizedItemTable& items,
                             const ScoreRowsFn& fn);
// Same with an explicit tile width (tests sweep it).
void StreamQuantMatMulTransBTiles(const Matrix& a,
                                  const QuantizedItemTable& items,
                                  std::size_t tile, const ScoreRowsFn& fn);

}  // namespace linalg
}  // namespace whitenrec

#endif  // WHITENREC_LINALG_QUANT_H_

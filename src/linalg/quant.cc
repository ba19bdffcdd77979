#include "linalg/quant.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "core/check.h"
#include "linalg/workspace.h"

// Quantized item tables (see quant.h). Everything numeric here is exact or
// explicitly rounded: int8 dequantization is one double multiply per
// element, bf16 widening is bit manipulation, and the dot products reuse the
// GEMM layer's canonical ascending-k single-accumulator chain. This TU
// builds inside whitenrec_linalg with -ffp-contract=off, so a * dq + acc
// lowers to the same two roundings everywhere.

namespace whitenrec {
namespace linalg {

namespace {

ItemQuantKind& ActiveQuantKind() {
  static ItemQuantKind kind = ItemQuantKind::kFp32;
  return kind;
}

// Round-to-nearest-even widening of a double to bf16 bits, via the value's
// float32 representation: add half of the dropped mantissa (plus the tie
// bit) and truncate. Finite inputs only — Pack checks the table first.
std::uint16_t Bf16FromDouble(double v) {
  const float f = static_cast<float>(v);
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  bits += 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>(bits >> 16);
}

double DoubleFromBf16(std::uint16_t h) {
  const std::uint32_t bits = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return static_cast<double>(f);
}

}  // namespace

ItemQuantKind CurrentItemQuantKind() { return ActiveQuantKind(); }

void SetItemQuantKind(ItemQuantKind kind) { ActiveQuantKind() = kind; }

const char* ItemQuantKindName(ItemQuantKind kind) {
  switch (kind) {
    case ItemQuantKind::kFp32:
      return "fp32";
    case ItemQuantKind::kInt8:
      return "int8";
    case ItemQuantKind::kBf16:
      return "bf16";
  }
  return "unknown";
}

Result<ItemQuantKind> ParseItemQuantKind(const std::string& text) {
  for (ItemQuantKind kind :
       {ItemQuantKind::kFp32, ItemQuantKind::kInt8, ItemQuantKind::kBf16}) {
    if (text == ItemQuantKindName(kind)) return kind;
  }
  return Status::InvalidArgument("expected fp32|int8|bf16, got \"" + text +
                                 "\"");
}

double RoundHalfToEven(double x) {
  // Explicit floor arithmetic instead of std::nearbyint: the result must not
  // depend on the ambient fenv rounding mode.
  const double f = std::floor(x);
  const double frac = x - f;
  if (frac < 0.5) return f;
  if (frac > 0.5) return f + 1.0;
  return std::fmod(f, 2.0) == 0.0 ? f : f + 1.0;
}

void QuantizedItemTable::Pack(const Matrix& items, ItemQuantKind kind) {
  WR_CHECK(kind != ItemQuantKind::kFp32);
  // Quantizing a non-finite table would silently encode garbage codes.
  WR_CHECK_FINITE(items);
  Clear();
  rows_ = items.rows();
  cols_ = items.cols();
  kind_ = kind;
  if (rows_ == 0 || cols_ == 0) return;
  if (kind == ItemQuantKind::kBf16) {
    bits_.resize(rows_ * cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
      const double* row = items.RowPtr(r);
      std::uint16_t* out = &bits_[r * cols_];
      for (std::size_t c = 0; c < cols_; ++c) out[c] = Bf16FromDouble(row[c]);
    }
    return;
  }
  const std::size_t blocks = (cols_ + kScaleBlockCols - 1) / kScaleBlockCols;
  codes_.assign(rows_ * cols_, 0);
  scales_.assign(rows_ * blocks, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = items.RowPtr(r);
    std::int8_t* code = &codes_[r * cols_];
    double* scale = &scales_[r * blocks];
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t c0 = b * kScaleBlockCols;
      const std::size_t c1 = std::min(cols_, c0 + kScaleBlockCols);
      double maxabs = 0.0;
      for (std::size_t c = c0; c < c1; ++c) {
        maxabs = std::max(maxabs, std::fabs(row[c]));
      }
      // An all-zero block keeps scale 0 and codes 0: dequant is exactly 0.
      if (maxabs == 0.0) continue;
      const double s = maxabs / 127.0;
      scale[b] = s;
      for (std::size_t c = c0; c < c1; ++c) {
        // maxabs / s can land a hair above 127 after the division rounds;
        // clamp so the code stays in range symmetrically.
        const double q =
            std::clamp(RoundHalfToEven(row[c] / s), -127.0, 127.0);
        code[c] = static_cast<std::int8_t>(q);
      }
    }
  }
}

void QuantizedItemTable::Clear() {
  rows_ = 0;
  cols_ = 0;
  kind_ = ItemQuantKind::kFp32;
  codes_.clear();
  scales_.clear();
  bits_.clear();
}

std::size_t QuantizedItemTable::PackedBytes() const {
  return codes_.size() * sizeof(std::int8_t) +
         scales_.size() * sizeof(double) + bits_.size() * sizeof(std::uint16_t);
}

void QuantizedItemTable::DequantizeRowsInto(std::size_t j0, std::size_t jn,
                                            Matrix* out) const {
  WR_CHECK_LE(j0 + jn, rows_);
  out->Resize(jn, cols_);
  const std::size_t blocks = (cols_ + kScaleBlockCols - 1) / kScaleBlockCols;
  for (std::size_t r = 0; r < jn; ++r) {
    double* dst = out->RowPtr(r);
    if (kind_ == ItemQuantKind::kBf16) {
      const std::uint16_t* src = &bits_[(j0 + r) * cols_];
      for (std::size_t c = 0; c < cols_; ++c) dst[c] = DoubleFromBf16(src[c]);
      continue;
    }
    const std::int8_t* code = &codes_[(j0 + r) * cols_];
    const double* scale = &scales_[(j0 + r) * blocks];
    for (std::size_t c = 0; c < cols_; ++c) {
      // One multiply in double: exact given the code and scale, so the
      // dequantized value never depends on tile geometry.
      dst[c] = static_cast<double>(code[c]) * scale[c / kScaleBlockCols];
    }
  }
}

double QuantizedItemTable::RowDot(const Matrix& a, std::size_t i,
                                  std::size_t item) const {
  WR_CHECK_EQ(a.cols(), cols_);
  WR_CHECK_LT(item, rows_);
  const double* arow = a.RowPtr(i);
  double acc = 0.0;
  if (kind_ == ItemQuantKind::kBf16) {
    const std::uint16_t* src = &bits_[item * cols_];
    for (std::size_t k = 0; k < cols_; ++k) {
      acc += arow[k] * DoubleFromBf16(src[k]);
    }
    return acc;
  }
  const std::size_t blocks = (cols_ + kScaleBlockCols - 1) / kScaleBlockCols;
  const std::int8_t* code = &codes_[item * cols_];
  const double* scale = &scales_[item * blocks];
  for (std::size_t k = 0; k < cols_; ++k) {
    // Same dequant expression as DequantizeRowsInto, then the canonical
    // ascending-k chain: bitwise equal to the streamed panel element.
    acc += arow[k] * (static_cast<double>(code[k]) * scale[k / kScaleBlockCols]);
  }
  return acc;
}

void StreamQuantMatMulTransB(const Matrix& a, const QuantizedItemTable& items,
                             const ScoreRowsFn& fn) {
  StreamQuantMatMulTransBTiles(a, items, ScoreTileCols(), fn);
}

void StreamQuantMatMulTransBTiles(const Matrix& a,
                                  const QuantizedItemTable& items,
                                  std::size_t tile, const ScoreRowsFn& fn) {
  WR_CHECK_GT(tile, 0u);
  WR_CHECK_EQ(a.cols(), items.cols());
  if (a.rows() == 0 || items.rows() == 0) return;
  // Walk item tiles in ascending order, dequantize each into the calling
  // thread's workspace, and let the ordinary streaming GEMM score it with
  // the caller's epilogue. The inner call sees one whole tile (tile == jn),
  // so only the column offset needs remapping; determinism across threads,
  // tile widths and kernel variants is inherited from StreamMatMulTransB's
  // guarantee plus the tile-independence of dequantization. The tile buffer
  // is kWsStreamBTile, disjoint from the panel slot the inner stream uses.
  Matrix& deq = ThreadLocalWorkspace().MatRef(kWsStreamBTile);
  for (std::size_t j0 = 0; j0 < items.rows(); j0 += tile) {
    const std::size_t jn = std::min(tile, items.rows() - j0);
    items.DequantizeRowsInto(j0, jn, &deq);
    StreamMatMulTransBTiles(
        a, deq, jn,
        [&fn, j0](std::size_t i0, std::size_t i1, std::size_t jj0,
                  std::size_t jjn, const Matrix& panel) {
          fn(i0, i1, j0 + jj0, jjn, panel);
        });
  }
}

}  // namespace linalg
}  // namespace whitenrec

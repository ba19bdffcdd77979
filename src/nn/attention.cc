#include "nn/attention.h"

#include <cmath>

#include "core/check.h"
#include "core/parallel.h"
#include "linalg/workspace.h"

namespace whitenrec {
namespace nn {

using linalg::Matrix;

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t dim,
                                               std::size_t num_heads,
                                               linalg::Rng* rng,
                                               std::string name, bool causal)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      causal_(causal),
      wq_(dim, dim, rng, name + ".wq"),
      wk_(dim, dim, rng, name + ".wk"),
      wv_(dim, dim, rng, name + ".wv"),
      wo_(dim, dim, rng, name + ".wo") {
  WR_CHECK_MSG(dim % num_heads == 0, "dim must be divisible by num_heads");
}

Matrix MultiHeadSelfAttention::Forward(const Matrix& x, std::size_t batch,
                                       std::size_t seq_len) {
  WR_CHECK_EQ(x.rows(), batch * seq_len);
  WR_CHECK_EQ(x.cols(), dim_);
  WR_CHECK_FINITE(x);
  batch_ = batch;
  seq_len_ = seq_len;

  wq_.ForwardInto(x, &cached_q_);
  wk_.ForwardInto(x, &cached_k_);
  wv_.ForwardInto(x, &cached_v_);
  if (cached_probs_.size() != batch * num_heads_) {
    cached_probs_.resize(batch * num_heads_);
  }

  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  mixed_.Resize(x.rows(), dim_);  // concatenated head outputs
  Matrix& mixed = mixed_;

  // Parallel over (sequence, head) pairs: pair (b, h) touches only rows of
  // sequence b and the columns of head h, so writes are disjoint and the
  // result is bitwise independent of the thread count.
  core::ParallelFor(0, batch * num_heads_, 1, [&](std::size_t p0,
                                                  std::size_t p1) {
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t b = p / num_heads_;
      const std::size_t h = p % num_heads_;
      const std::size_t base = b * seq_len;
      const std::size_t off = h * head_dim_;
      Matrix& probs = cached_probs_[b * num_heads_ + h];
      probs.Resize(seq_len, seq_len);
      // Masked scores + row softmax: causal attends to positions <= i,
      // bidirectional to every position.
      for (std::size_t i = 0; i < seq_len; ++i) {
        const std::size_t jmax = causal_ ? i : seq_len - 1;
        const double* qi = cached_q_.RowPtr(base + i) + off;
        double max_s = -1e300;
        for (std::size_t j = 0; j <= jmax; ++j) {
          const double* kj = cached_k_.RowPtr(base + j) + off;
          double s = 0.0;
          for (std::size_t c = 0; c < head_dim_; ++c) s += qi[c] * kj[c];
          s *= scale;
          probs(i, j) = s;
          if (s > max_s) max_s = s;
        }
        double sum = 0.0;
        for (std::size_t j = 0; j <= jmax; ++j) {
          probs(i, j) = std::exp(probs(i, j) - max_s);
          sum += probs(i, j);
        }
        const double inv = 1.0 / sum;
        for (std::size_t j = 0; j <= jmax; ++j) probs(i, j) *= inv;
        // Mix values: out_i = sum_j probs_ij * v_j.
        double* out = mixed.RowPtr(base + i) + off;
        for (std::size_t c = 0; c < head_dim_; ++c) out[c] = 0.0;
        for (std::size_t j = 0; j <= jmax; ++j) {
          const double pij = probs(i, j);
          const double* vj = cached_v_.RowPtr(base + j) + off;
          for (std::size_t c = 0; c < head_dim_; ++c) out[c] += pij * vj[c];
        }
      }
    }
  });
  // A softmax overflow or bad V projection shows up here, before the output
  // projection can smear it across every feature.
  WR_CHECK_FINITE(mixed);
  return wo_.Forward(mixed);
}

void AttentionKvCache::Append(const Matrix& k_row, const Matrix& v_row) {
  WR_CHECK_EQ(k_row.rows(), 1u);
  WR_CHECK_EQ(v_row.rows(), 1u);
  const std::size_t dim = k_row.cols();
  if (len == k.rows()) {
    const std::size_t cap = len == 0 ? 8 : 2 * len;
    Matrix grown_k(cap, dim);
    Matrix grown_v(cap, dim);
    for (std::size_t r = 0; r < len; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        grown_k(r, c) = k(r, c);
        grown_v(r, c) = v(r, c);
      }
    }
    k = std::move(grown_k);
    v = std::move(grown_v);
  }
  for (std::size_t c = 0; c < dim; ++c) {
    k(len, c) = k_row(0, c);
    v(len, c) = v_row(0, c);
  }
  ++len;
}

void MultiHeadSelfAttention::ForwardStepInto(const Matrix& x_row,
                                             AttentionKvCache* kv,
                                             Matrix* y) const {
  WR_CHECK(causal_);
  WR_CHECK(kv != nullptr);
  WR_CHECK_EQ(x_row.rows(), 1u);
  WR_CHECK_EQ(x_row.cols(), dim_);
  WR_CHECK_FINITE(x_row);

  // Project the new position. A (1, dim) GEMM accumulates each element in
  // the same canonical ascending-k order as the batched projection, so the
  // appended K/V rows (and q) match the full forward bitwise. Every
  // temporary lives in the thread's workspace, so a warm step allocates
  // nothing beyond the cache's own amortized growth.
  linalg::Workspace& ws = linalg::ThreadLocalWorkspace();
  Matrix& q_row = ws.MatRef(linalg::kWsStepQ);
  Matrix& k_row = ws.MatRef(linalg::kWsStepK);
  Matrix& v_row = ws.MatRef(linalg::kWsStepV);
  wq_.ForwardEvalInto(x_row, &q_row);
  wk_.ForwardEvalInto(x_row, &k_row);
  wv_.ForwardEvalInto(x_row, &v_row);
  kv->Append(k_row, v_row);

  const std::size_t i = kv->len - 1;  // position being appended
  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  Matrix& mixed = ws.Mat(linalg::kWsStepMixed, 1, dim_);
  // Row i of the causal attention, head by head — the same masked-score /
  // softmax / value-mix loops as Forward, reading K/V from the cache. Each
  // head writes probs[0, i] before reading it.
  double* probs = ws.Buf(linalg::kWsStepProbs, i + 1).data();
  for (std::size_t h = 0; h < num_heads_; ++h) {
    const std::size_t off = h * head_dim_;
    const double* qi = q_row.RowPtr(0) + off;
    double max_s = -1e300;
    for (std::size_t j = 0; j <= i; ++j) {
      const double* kj = kv->k.RowPtr(j) + off;
      double s = 0.0;
      for (std::size_t c = 0; c < head_dim_; ++c) s += qi[c] * kj[c];
      s *= scale;
      probs[j] = s;
      if (s > max_s) max_s = s;
    }
    double sum = 0.0;
    for (std::size_t j = 0; j <= i; ++j) {
      probs[j] = std::exp(probs[j] - max_s);
      sum += probs[j];
    }
    const double inv = 1.0 / sum;
    for (std::size_t j = 0; j <= i; ++j) probs[j] *= inv;
    double* out = mixed.RowPtr(0) + off;
    for (std::size_t c = 0; c < head_dim_; ++c) out[c] = 0.0;
    for (std::size_t j = 0; j <= i; ++j) {
      const double pij = probs[j];
      const double* vj = kv->v.RowPtr(j) + off;
      for (std::size_t c = 0; c < head_dim_; ++c) out[c] += pij * vj[c];
    }
  }
  WR_CHECK_FINITE(mixed);
  wo_.ForwardEvalInto(mixed, y);
}

Matrix MultiHeadSelfAttention::Backward(const Matrix& dy) {
  WR_CHECK_EQ(dy.rows(), batch_ * seq_len_);
  WR_CHECK_FINITE(dy);
  wo_.BackwardInto(dy, &dmixed_);
  const Matrix& dmixed = dmixed_;

  dq_.Resize(dy.rows(), dim_);
  dk_.Resize(dy.rows(), dim_);
  dv_.Resize(dy.rows(), dim_);
  Matrix& dq = dq_;
  Matrix& dk = dk_;
  Matrix& dv = dv_;
  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));

  // Mirrors the forward parallelization: (b, h) owns the rows of sequence b
  // restricted to head h's columns in dq/dk/dv, so the scatter-adds below
  // never collide across chunks.
  core::ParallelFor(0, batch_ * num_heads_, 1, [&](std::size_t p0,
                                                   std::size_t p1) {
    std::vector<double> dprob_row;
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t b = p / num_heads_;
      const std::size_t h = p % num_heads_;
      const std::size_t base = b * seq_len_;
      const std::size_t off = h * head_dim_;
      const Matrix& probs = cached_probs_[b * num_heads_ + h];
      for (std::size_t i = 0; i < seq_len_; ++i) {
        const std::size_t jmax = causal_ ? i : seq_len_ - 1;
        const double* dout = dmixed.RowPtr(base + i) + off;
        // dprobs_ij = dout . v_j ; dv_j += probs_ij * dout.
        dprob_row.assign(jmax + 1, 0.0);
        for (std::size_t j = 0; j <= jmax; ++j) {
          const double pij = probs(i, j);
          const double* vj = cached_v_.RowPtr(base + j) + off;
          double* dvj = dv.RowPtr(base + j) + off;
          double dp = 0.0;
          for (std::size_t c = 0; c < head_dim_; ++c) {
            // Causal masking makes each row's extent ragged, and the pass
            // fuses two updates (dp dot + dv scatter) per element; a square
            // GEMM would do 2x the FLOPs and need an unmask/remask pass.
            // whitenrec-lint: allow(hand-rolled-gemm)
            dp += dout[c] * vj[c];
            dvj[c] += pij * dout[c];
          }
          dprob_row[j] = dp;
        }
        // Softmax backward over the (masked) row: a ragged-extent dot, not
        // a matmul.
        double inner = 0.0;
        for (std::size_t j = 0; j <= jmax; ++j)
          inner += dprob_row[j] * probs(i, j);  // whitenrec-lint: allow(hand-rolled-gemm)
        const double* qi = cached_q_.RowPtr(base + i) + off;
        double* dqi = dq.RowPtr(base + i) + off;
        for (std::size_t j = 0; j <= jmax; ++j) {
          const double ds = probs(i, j) * (dprob_row[j] - inner) * scale;
          const double* kj = cached_k_.RowPtr(base + j) + off;
          double* dkj = dk.RowPtr(base + j) + off;
          for (std::size_t c = 0; c < head_dim_; ++c) {
            // Same ragged causal extent as above, fusing the dq and dk
            // rank-1 updates in one sweep.
            // whitenrec-lint: allow(hand-rolled-gemm)
            dqi[c] += ds * kj[c];
            dkj[c] += ds * qi[c];
          }
        }
      }
    }
  });

  // dX accumulates the three projection backwards in-kernel, skipping two
  // full-size temporaries and elementwise adds.
  Matrix dx;
  wq_.BackwardInto(dq, &dx);
  wk_.BackwardAccInto(dk, &dx);
  wv_.BackwardAccInto(dv, &dx);
  WR_CHECK_FINITE(dx);
  return dx;
}

void MultiHeadSelfAttention::CollectParameters(std::vector<Parameter*>* out) {
  wq_.CollectParameters(out);
  wk_.CollectParameters(out);
  wv_.CollectParameters(out);
  wo_.CollectParameters(out);
}

}  // namespace nn
}  // namespace whitenrec

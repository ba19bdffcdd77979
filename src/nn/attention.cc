#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/parallel.h"
#include "linalg/workspace.h"

namespace whitenrec {
namespace nn {

using linalg::Matrix;

namespace {

// One query row of one attention head: scores s_j = (q . k_j) * scale for
// the n keys, a max-shifted softmax over them into probs[0, n), and the
// probability-weighted sum of the values into out[0, head_dim). q, k, v and
// out point at the head's column slice; key/value row j is at k + j * stride
// and v + j * stride. All three forwards call this, so a row they share is
// bitwise the same in each.
void AttendRow(const double* q, const double* k, const double* v,
               std::size_t stride, std::size_t n, std::size_t head_dim,
               double scale, double* probs, double* out) {
  double max_s = -1e300;
  for (std::size_t j = 0; j < n; ++j) {
    const double* kj = k + j * stride;
    double s = 0.0;
    for (std::size_t c = 0; c < head_dim; ++c) s += q[c] * kj[c];
    s *= scale;
    probs[j] = s;
    if (s > max_s) max_s = s;
  }
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    probs[j] = std::exp(probs[j] - max_s);
    sum += probs[j];
  }
  const double inv = 1.0 / sum;
  for (std::size_t j = 0; j < n; ++j) probs[j] *= inv;
  for (std::size_t c = 0; c < head_dim; ++c) out[c] = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double pj = probs[j];
    const double* vj = v + j * stride;
    for (std::size_t c = 0; c < head_dim; ++c) out[c] += pj * vj[c];
  }
}

}  // namespace

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
      // Causal row i attends to positions <= i, bidirectional to every
      // position; row i of probs keeps the probabilities for backward.
      for (std::size_t i = 0; i < seq_len; ++i) {
        const std::size_t n = causal_ ? i + 1 : seq_len;
        AttendRow(cached_q_.RowPtr(base + i) + off,
                  cached_k_.RowPtr(base) + off, cached_v_.RowPtr(base) + off,
                  dim_, n, head_dim_, scale, probs.RowPtr(i),
                  mixed.RowPtr(base + i) + off);
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
  Matrix& q_row = ws.MatRef(linalg::kWsEvalQ);
  Matrix& k_row = ws.MatRef(linalg::kWsEvalK);
  Matrix& v_row = ws.MatRef(linalg::kWsEvalV);
  wq_.ForwardEvalInto(x_row, &q_row);
  wk_.ForwardEvalInto(x_row, &k_row);
  wv_.ForwardEvalInto(x_row, &v_row);
  kv->Append(k_row, v_row);

  const std::size_t i = kv->len - 1;  // position being appended
  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  Matrix& mixed = ws.Mat(linalg::kWsEvalMixed, 1, dim_);
  // Row i of the causal attention, head by head, over the cached K/V rows.
  double* probs = ws.Buf(linalg::kWsEvalProbs, i + 1).data();
  for (std::size_t h = 0; h < num_heads_; ++h) {
    const std::size_t off = h * head_dim_;
    AttendRow(q_row.RowPtr(0) + off, kv->k.RowPtr(0) + off,
              kv->v.RowPtr(0) + off, kv->k.cols(), i + 1, head_dim_, scale,
              probs, mixed.RowPtr(0) + off);
  }
  WR_CHECK_FINITE(mixed);
  wo_.ForwardEvalInto(mixed, y);
}

void GatherLastRowsInto(const Matrix& x,
                        const std::vector<std::size_t>& starts, Matrix* out) {
  WR_CHECK(out != &x);
  WR_CHECK(!starts.empty());
  WR_CHECK_EQ(starts.back(), x.rows());
  const std::size_t num_seqs = starts.size() - 1;
  out->Resize(num_seqs, x.cols());
  for (std::size_t s = 0; s < num_seqs; ++s) {
    WR_CHECK_LT(starts[s], starts[s + 1]);
    const double* src = x.RowPtr(starts[s + 1] - 1);
    double* dst = out->RowPtr(s);
    for (std::size_t c = 0; c < x.cols(); ++c) dst[c] = src[c];
  }
}

void MultiHeadSelfAttention::ForwardPackedInto(
    const Matrix& x, const std::vector<std::size_t>& starts, bool last_only,
    Matrix* y) const {
  WR_CHECK(causal_);
  WR_CHECK(!starts.empty());
  WR_CHECK_EQ(starts.back(), x.rows());
  WR_CHECK_EQ(x.cols(), dim_);
  WR_CHECK_FINITE(x);
  const std::size_t num_seqs = starts.size() - 1;
  std::size_t max_len = 0;
  for (std::size_t s = 0; s < num_seqs; ++s) {
    WR_CHECK_LT(starts[s], starts[s + 1]);
    max_len = std::max(max_len, starts[s + 1] - starts[s]);
  }

  // Every row is a key and a value; only the rows read downstream are
  // queries. A GEMM row is bitwise the same whichever rows share its call
  // (canonical ascending-k accumulation), so projecting the packed rows, or
  // only their last rows, reproduces Forward's rows.
  linalg::Workspace& ws = linalg::ThreadLocalWorkspace();
  Matrix& q = ws.MatRef(linalg::kWsEvalQ);
  Matrix& k = ws.MatRef(linalg::kWsEvalK);
  Matrix& v = ws.MatRef(linalg::kWsEvalV);
  wk_.ForwardEvalInto(x, &k);
  wv_.ForwardEvalInto(x, &v);
  if (last_only) {
    Matrix& query_in = ws.MatRef(linalg::kWsEvalQueryIn);
    GatherLastRowsInto(x, starts, &query_in);
    wq_.ForwardEvalInto(query_in, &q);
  } else {
    wq_.ForwardEvalInto(x, &q);
  }

  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  Matrix& mixed = ws.Mat(linalg::kWsEvalMixed, q.rows(), dim_);
  // Pair (s, h) writes only sequence s's query rows in head h's columns, so
  // chunks never collide and the result is independent of the thread count.
  // Each worker takes its probability row from its own workspace.
  core::ParallelFor(0, num_seqs * num_heads_, 1, [&](std::size_t p0,
                                                     std::size_t p1) {
    double* probs =
        linalg::ThreadLocalWorkspace().Buf(linalg::kWsEvalProbs, max_len)
            .data();
    for (std::size_t p = p0; p < p1; ++p) {
      const std::size_t s = p / num_heads_;
      const std::size_t off = (p % num_heads_) * head_dim_;
      const std::size_t first = starts[s];
      const std::size_t len = starts[s + 1] - first;
      const double* ks = k.RowPtr(first) + off;
      const double* vs = v.RowPtr(first) + off;
      if (last_only) {
        AttendRow(q.RowPtr(s) + off, ks, vs, dim_, len, head_dim_, scale,
                  probs, mixed.RowPtr(s) + off);
        continue;
      }
      for (std::size_t i = 0; i < len; ++i) {
        AttendRow(q.RowPtr(first + i) + off, ks, vs, dim_, i + 1, head_dim_,
                  scale, probs, mixed.RowPtr(first + i) + off);
      }
    }
  });
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

#include "whitening/whiten_encoder.h"

#include <cmath>

#include "nn/tensor.h"

namespace whitenrec {

using linalg::Matrix;

const char* HeadKindName(HeadKind kind) {
  switch (kind) {
    case HeadKind::kLinear: return "Linear";
    case HeadKind::kMlp1: return "MLP-1";
    case HeadKind::kMlp2: return "MLP-2";
    case HeadKind::kMlp3: return "MLP-3";
    case HeadKind::kMoe: return "MoE";
  }
  return "?";
}

const char* EnsembleKindName(EnsembleKind kind) {
  switch (kind) {
    case EnsembleKind::kSum: return "Sum";
    case EnsembleKind::kConcat: return "Concat";
    case EnsembleKind::kAttn: return "Attn";
  }
  return "?";
}

namespace {

std::size_t NumHiddenLayers(HeadKind kind) {
  switch (kind) {
    case HeadKind::kLinear: return 0;
    case HeadKind::kMlp1: return 1;
    case HeadKind::kMlp2: return 2;
    case HeadKind::kMlp3: return 3;
    case HeadKind::kMoe: return 0;
  }
  return 0;
}

// out += diag(probs[:, e]) * expert_out: expert e's gated share of the MoE
// head output, shared by the training and eval forwards.
void AddGatedExpert(const Matrix& probs, std::size_t e,
                    const Matrix& expert_out, Matrix* out) {
  for (std::size_t r = 0; r < out->rows(); ++r) {
    const double g = probs(r, e);
    double* orow = out->RowPtr(r);
    const double* erow = expert_out.RowPtr(r);
    for (std::size_t c = 0; c < out->cols(); ++c) orow[c] += g * erow[c];
  }
}

}  // namespace

ProjectionHead::ProjectionHead(std::size_t in_dim, std::size_t out_dim,
                               HeadKind kind, linalg::Rng* rng,
                               std::size_t num_experts, std::string name)
    : in_dim_(in_dim), out_dim_(out_dim), kind_(kind) {
  if (kind == HeadKind::kMoe) {
    gate_ = std::make_unique<nn::Linear>(in_dim, num_experts, rng,
                                         name + ".gate");
    for (std::size_t e = 0; e < num_experts; ++e) {
      experts_.push_back(std::make_unique<nn::Linear>(
          in_dim, out_dim, rng, name + ".expert" + std::to_string(e)));
    }
    return;
  }
  const std::size_t hidden = NumHiddenLayers(kind);
  // MLP-k: k hidden layers of width out_dim with ReLU, then a final linear.
  std::size_t prev = in_dim;
  for (std::size_t i = 0; i < hidden; ++i) {
    linears_.push_back(std::make_unique<nn::Linear>(
        prev, out_dim, rng, name + ".fc" + std::to_string(i)));
    prev = out_dim;
  }
  linears_.push_back(
      std::make_unique<nn::Linear>(prev, out_dim, rng, name + ".out"));
  relus_.resize(hidden);
}

Matrix ProjectionHead::Forward(const Matrix& x) {
  WR_CHECK_EQ(x.cols(), in_dim_);
  if (kind_ != HeadKind::kMoe) {
    Matrix h = x;
    for (std::size_t i = 0; i < linears_.size(); ++i) {
      h = linears_[i]->Forward(h);
      if (i < relus_.size()) h = relus_[i].Forward(h);
    }
    return h;
  }
  // MoE: softmax-gated sum of linear experts.
  cached_gate_probs_ = gate_->Forward(x);
  nn::RowSoftmaxInPlace(&cached_gate_probs_);
  cached_expert_out_.clear();
  Matrix out(x.rows(), out_dim_);
  for (std::size_t e = 0; e < experts_.size(); ++e) {
    // Each expert Linear caches only its last forward; since all experts see
    // the same input x, per-expert caching remains valid for backward.
    cached_expert_out_.push_back(experts_[e]->Forward(x));
    AddGatedExpert(cached_gate_probs_, e, cached_expert_out_.back(), &out);
  }
  return out;
}

Matrix ProjectionHead::ForwardEval(const Matrix& x) const {
  WR_CHECK_EQ(x.cols(), in_dim_);
  if (kind_ != HeadKind::kMoe) {
    // Ping-pong between two buffers; the last layer writes the result.
    Matrix out;
    Matrix hidden[2];
    const Matrix* h = &x;
    for (std::size_t i = 0; i < linears_.size(); ++i) {
      Matrix* next = i + 1 == linears_.size() ? &out : &hidden[i % 2];
      linears_[i]->ForwardEvalInto(*h, next);
      if (i < relus_.size()) nn::ReluInPlace(next);
      h = next;
    }
    return out;
  }
  Matrix probs;
  gate_->ForwardEvalInto(x, &probs);
  nn::RowSoftmaxInPlace(&probs);
  Matrix out(x.rows(), out_dim_);
  Matrix expert_out;
  for (std::size_t e = 0; e < experts_.size(); ++e) {
    experts_[e]->ForwardEvalInto(x, &expert_out);
    AddGatedExpert(probs, e, expert_out, &out);
  }
  return out;
}

Matrix ProjectionHead::Backward(const Matrix& dy) {
  if (kind_ != HeadKind::kMoe) {
    Matrix d = dy;
    for (std::size_t i = linears_.size(); i-- > 0;) {
      if (i < relus_.size()) d = relus_[i].Backward(d);
      d = linears_[i]->Backward(d);
    }
    return d;
  }
  const std::size_t n = dy.rows();
  const std::size_t num_experts = experts_.size();
  Matrix dx(n, in_dim_);
  Matrix dgate(n, num_experts);
  for (std::size_t e = 0; e < num_experts; ++e) {
    // dExpertOut_e = g_e * dy  (row-scaled); dg_e = <dy_row, expert_out_row>.
    Matrix dexp(n, out_dim_);
    const Matrix& eo = cached_expert_out_[e];
    for (std::size_t r = 0; r < n; ++r) {
      const double g = cached_gate_probs_(r, e);
      const double* dyrow = dy.RowPtr(r);
      const double* erow = eo.RowPtr(r);
      double* drow = dexp.RowPtr(r);
      double dg = 0.0;
      for (std::size_t c = 0; c < out_dim_; ++c) {
        drow[c] = g * dyrow[c];
        // Row-wise dot (sum of a Hadamard product), not a matmul: a GEMM
        // here would compute the full n*n product for its diagonal.
        // whitenrec-lint: allow(hand-rolled-gemm)
        dg += dyrow[c] * erow[c];
      }
      dgate(r, e) = dg;
    }
    dx += experts_[e]->Backward(dexp);
  }
  // Softmax backward on gate probabilities per row.
  Matrix dlogits(n, num_experts);
  for (std::size_t r = 0; r < n; ++r) {
    nn::SoftmaxBackwardRow(cached_gate_probs_.RowPtr(r), dgate.RowPtr(r),
                           num_experts, dlogits.RowPtr(r));
  }
  dx += gate_->Backward(dlogits);
  return dx;
}

void ProjectionHead::CollectParameters(std::vector<nn::Parameter*>* out) {
  for (auto& l : linears_) l->CollectParameters(out);
  if (gate_) gate_->CollectParameters(out);
  for (auto& e : experts_) e->CollectParameters(out);
}

TextFeatureEncoder::TextFeatureEncoder(Matrix features, std::size_t out_dim,
                                       HeadKind head, linalg::Rng* rng,
                                       std::string name)
    : features_(std::move(features)),
      head_(features_.cols(), out_dim, head, rng, 4, name + ".head"),
      name_(std::move(name)) {}

Matrix TextFeatureEncoder::Forward(bool train) {
  return train ? head_.Forward(features_) : head_.ForwardEval(features_);
}

void TextFeatureEncoder::Backward(const Matrix& dv) {
  head_.Backward(dv);  // gradient w.r.t. frozen features is discarded
}

void TextFeatureEncoder::CollectParameters(std::vector<nn::Parameter*>* out) {
  head_.CollectParameters(out);
}

Status TextFeatureEncoder::ReplaceFeatures(Matrix features) {
  if (features.cols() != head_.in_dim()) {
    return Status::InvalidArgument(
        "ReplaceFeatures: feature dim " + std::to_string(features.cols()) +
        " != head input dim " + std::to_string(head_.in_dim()));
  }
  if (features.rows() < 2) {
    return Status::InvalidArgument("ReplaceFeatures: need >= 2 items");
  }
  features_ = std::move(features);
  return Status::OK();
}

WhitenRecPlusEncoder::WhitenRecPlusEncoder(Matrix z_full, Matrix z_relaxed,
                                           std::size_t out_dim,
                                           EnsembleKind ensemble,
                                           HeadKind head, linalg::Rng* rng,
                                           std::string name)
    : z_full_(std::move(z_full)),
      z_relaxed_(std::move(z_relaxed)),
      out_dim_(out_dim),
      ensemble_(ensemble),
      head_(ensemble == EnsembleKind::kConcat ? z_full_.cols() * 2
                                              : z_full_.cols(),
            out_dim, head, rng, 4, name + ".head"),
      name_(std::move(name)) {
  WR_CHECK_EQ(z_full_.rows(), z_relaxed_.rows());
  WR_CHECK_EQ(z_full_.cols(), z_relaxed_.cols());
  if (ensemble == EnsembleKind::kAttn) {
    attn_scorer_ =
        std::make_unique<nn::Linear>(out_dim, 1, rng, name + ".scorer");
  }
}

Matrix WhitenRecPlusEncoder::StackedInput() const {
  const std::size_t n = z_full_.rows();
  Matrix stacked(2 * n, z_full_.cols());
  for (std::size_t r = 0; r < n; ++r) {
    stacked.SetRow(r, z_full_.Row(r));
    stacked.SetRow(n + r, z_relaxed_.Row(r));
  }
  return stacked;
}

Matrix WhitenRecPlusEncoder::Forward(bool train) {
  const std::size_t n = z_full_.rows();
  if (ensemble_ == EnsembleKind::kConcat) {
    Matrix concat(n, z_full_.cols() * 2);
    concat.SetColSlice(0, z_full_);
    concat.SetColSlice(z_full_.cols(), z_relaxed_);
    return train ? head_.Forward(concat) : head_.ForwardEval(concat);
  }
  // Shared head over the row-stacked branches: one forward per step.
  Matrix h = train ? head_.Forward(StackedInput())
                   : head_.ForwardEval(StackedInput());
  Matrix v(n, out_dim_);
  if (ensemble_ == EnsembleKind::kSum) {
    for (std::size_t r = 0; r < n; ++r) {
      const double* top = h.RowPtr(r);
      const double* bot = h.RowPtr(n + r);
      double* vrow = v.RowPtr(r);
      for (std::size_t c = 0; c < out_dim_; ++c) vrow[c] = top[c] + bot[c];
    }
    return v;
  }
  // kAttn: per-item softmax attention over the two branch outputs.
  Matrix scores;  // (2n, 1)
  if (train) {
    scores = attn_scorer_->Forward(h);
  } else {
    attn_scorer_->ForwardEvalInto(h, &scores);
  }
  Matrix alpha(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double s1 = scores(r, 0);
    const double s2 = scores(n + r, 0);
    const double m = std::max(s1, s2);
    const double e1 = std::exp(s1 - m);
    const double e2 = std::exp(s2 - m);
    const double a1 = e1 / (e1 + e2);
    const double a2 = 1.0 - a1;
    alpha(r, 0) = a1;
    alpha(r, 1) = a2;
    const double* top = h.RowPtr(r);
    const double* bot = h.RowPtr(n + r);
    double* vrow = v.RowPtr(r);
    for (std::size_t c = 0; c < out_dim_; ++c) {
      vrow[c] = a1 * top[c] + a2 * bot[c];
    }
  }
  if (train) {
    cached_h_ = std::move(h);
    cached_alpha_ = std::move(alpha);
  }
  return v;
}

void WhitenRecPlusEncoder::Backward(const Matrix& dv) {
  const std::size_t n = z_full_.rows();
  WR_CHECK_EQ(dv.rows(), n);
  if (ensemble_ == EnsembleKind::kConcat) {
    head_.Backward(dv);
    return;
  }
  Matrix dh(2 * n, out_dim_);
  if (ensemble_ == EnsembleKind::kSum) {
    for (std::size_t r = 0; r < n; ++r) {
      dh.SetRow(r, dv.Row(r));
      dh.SetRow(n + r, dv.Row(r));
    }
    head_.Backward(dh);
    return;
  }
  // kAttn backward: V_i = a1 H_top + a2 H_bot with (a1, a2) = softmax(s).
  Matrix dscores(2 * n, 1);
  for (std::size_t r = 0; r < n; ++r) {
    const double a1 = cached_alpha_(r, 0);
    const double a2 = cached_alpha_(r, 1);
    const double* dvrow = dv.RowPtr(r);
    const double* top = cached_h_.RowPtr(r);
    const double* bot = cached_h_.RowPtr(n + r);
    double* dtop = dh.RowPtr(r);
    double* dbot = dh.RowPtr(n + r);
    double da1 = 0.0;
    double da2 = 0.0;
    for (std::size_t c = 0; c < out_dim_; ++c) {
      dtop[c] = a1 * dvrow[c];
      dbot[c] = a2 * dvrow[c];
      da1 += dvrow[c] * top[c];
      da2 += dvrow[c] * bot[c];
    }
    // 2-way softmax backward.
    const double inner = da1 * a1 + da2 * a2;
    dscores(r, 0) = a1 * (da1 - inner);
    dscores(n + r, 0) = a2 * (da2 - inner);
  }
  dh += attn_scorer_->Backward(dscores);
  head_.Backward(dh);
}

void WhitenRecPlusEncoder::CollectParameters(
    std::vector<nn::Parameter*>* out) {
  head_.CollectParameters(out);
  if (attn_scorer_) attn_scorer_->CollectParameters(out);
}

Result<std::unique_ptr<ItemEncoder>> MakeWhitenRecEncoder(
    const Matrix& features, const WhitenRecConfig& config, linalg::Rng* rng) {
  Result<Matrix> z = WhitenMatrix(features, config.full_groups,
                                  config.whitening, config.epsilon,
                                  config.whiten_k);
  if (!z.ok()) return z.status();
  std::unique_ptr<ItemEncoder> enc = std::make_unique<TextFeatureEncoder>(
      std::move(z).ValueOrDie(), config.out_dim, config.head, rng,
      "whitenrec");
  return enc;
}

Result<std::unique_ptr<ItemEncoder>> MakeWhitenRecPlusEncoder(
    const Matrix& features, const WhitenRecConfig& config, linalg::Rng* rng) {
  if (config.whiten_k > 0) {
    // The ensemble stacks/concats the full and relaxed branches, so their
    // column counts must match; truncating only the full branch breaks that
    // and truncating both would defeat the relaxed branch's purpose.
    return Status::InvalidArgument(
        "MakeWhitenRecPlusEncoder: whiten_k truncation is not supported "
        "(branch dims must match); use MakeWhitenRecEncoder");
  }
  Result<Matrix> z_full = WhitenMatrix(features, config.full_groups,
                                       config.whitening, config.epsilon);
  if (!z_full.ok()) return z_full.status();
  // relaxed_groups == 0 denotes the "Raw" branch (no whitening, Fig. 8).
  Matrix z_relaxed;
  if (config.relaxed_groups == 0) {
    z_relaxed = features;
  } else {
    Result<Matrix> zr = WhitenMatrix(features, config.relaxed_groups,
                                     config.whitening, config.epsilon);
    if (!zr.ok()) return zr.status();
    z_relaxed = std::move(zr).ValueOrDie();
  }
  std::unique_ptr<ItemEncoder> enc = std::make_unique<WhitenRecPlusEncoder>(
      std::move(z_full).ValueOrDie(), std::move(z_relaxed), config.out_dim,
      config.ensemble, config.head, rng, "whitenrec+");
  return enc;
}

}  // namespace whitenrec

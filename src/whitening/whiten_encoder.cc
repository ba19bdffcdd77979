#include "whitening/whiten_encoder.h"

#include <algorithm>
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

// [top; bottom]: the layout of the two branches in one shared-head pass.
Matrix StackRows(const Matrix& top, const Matrix& bottom) {
  WR_CHECK_EQ(top.cols(), bottom.cols());
  Matrix stacked(top.rows() + bottom.rows(), top.cols());
  std::copy(top.data(), top.data() + top.size(), stacked.data());
  std::copy(bottom.data(), bottom.data() + bottom.size(),
            stacked.data() + top.size());
  return stacked;
}

}  // namespace

ProjectionHead::ProjectionHead(std::size_t in_dim, std::size_t out_dim,
                               HeadKind kind, linalg::Rng* rng,
                               std::string name)
    : in_dim_(in_dim), out_dim_(out_dim) {
  if (kind == HeadKind::kMoe) {
    moe_ = std::make_unique<GatedMixture<nn::Linear>>(
        in_dim, out_dim, rng, name, [&](std::size_t e) {
          return std::make_unique<nn::Linear>(
              in_dim, out_dim, rng, name + ".expert" + std::to_string(e));
        });
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
  if (moe_) return moe_->Forward(x);
  Matrix h = x;
  for (std::size_t i = 0; i < linears_.size(); ++i) {
    h = linears_[i]->Forward(h);
    if (i < relus_.size()) h = relus_[i].Forward(h);
  }
  return h;
}

Matrix ProjectionHead::ForwardEval(const Matrix& x) const {
  WR_CHECK_EQ(x.cols(), in_dim_);
  if (moe_) return moe_->ForwardEval(x);
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

Matrix ProjectionHead::Backward(const Matrix& dy) {
  if (moe_) return moe_->Backward(dy);
  Matrix d = dy;
  for (std::size_t i = linears_.size(); i-- > 0;) {
    if (i < relus_.size()) d = relus_[i].Backward(d);
    d = linears_[i]->Backward(d);
  }
  return d;
}

void ProjectionHead::CollectParameters(std::vector<nn::Parameter*>* out) {
  for (auto& l : linears_) l->CollectParameters(out);
  if (moe_) moe_->CollectParameters(out);
}

TextFeatureEncoder::TextFeatureEncoder(Matrix features, std::size_t out_dim,
                                       HeadKind head, linalg::Rng* rng,
                                       std::string name)
    : features_(std::move(features)),
      head_(features_.cols(), out_dim, head, rng, name + ".head"),
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

BranchEnsemble::BranchEnsemble(std::size_t branch_dim, std::size_t out_dim,
                               EnsembleKind kind, HeadKind head,
                               linalg::Rng* rng, const std::string& name)
    : kind_(kind),
      head_(kind == EnsembleKind::kConcat ? branch_dim * 2 : branch_dim,
            out_dim, head, rng, name + ".head") {
  if (kind == EnsembleKind::kAttn) {
    attn_scorer_ =
        std::make_unique<nn::Linear>(out_dim, 1, rng, name + ".scorer");
  }
}

Matrix BranchEnsemble::Forward(const Matrix& z1, const Matrix& z2,
                               bool train) {
  WR_CHECK_EQ(z1.rows(), z2.rows());
  const std::size_t n = z1.rows();
  if (kind_ == EnsembleKind::kConcat) {
    Matrix concat(n, z1.cols() + z2.cols());
    concat.SetColSlice(0, z1);
    concat.SetColSlice(z1.cols(), z2);
    return train ? head_.Forward(concat) : head_.ForwardEval(concat);
  }
  // Shared head over the row-stacked branches: one forward per step.
  const Matrix stacked = StackRows(z1, z2);
  Matrix h = train ? head_.Forward(stacked) : head_.ForwardEval(stacked);
  if (kind_ == EnsembleKind::kSum) {
    Matrix v = h.RowSlice(0, n);
    v += h.RowSlice(n, 2 * n);
    return v;
  }
  // kAttn: per-item softmax attention over the two branch outputs.
  const std::size_t d = out_dim();
  Matrix v(n, d);
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
    for (std::size_t c = 0; c < d; ++c) {
      vrow[c] = a1 * top[c] + a2 * bot[c];
    }
  }
  if (train) {
    cached_h_ = std::move(h);
    cached_alpha_ = std::move(alpha);
  }
  return v;
}

void BranchEnsemble::Backward(const Matrix& dv, Matrix* dz1, Matrix* dz2) {
  const std::size_t n = dv.rows();
  const bool concat = kind_ == EnsembleKind::kConcat;
  const Matrix dx =
      concat ? head_.Backward(dv) : head_.Backward(StackedOutputGrad(dv));
  if (dz1 == nullptr) return;
  const std::size_t half = dx.cols() / 2;
  *dz1 = concat ? dx.ColSlice(0, half) : dx.RowSlice(0, n);
  *dz2 = concat ? dx.ColSlice(half, 2 * half) : dx.RowSlice(n, 2 * n);
}

Matrix BranchEnsemble::StackedOutputGrad(const Matrix& dv) {
  if (kind_ == EnsembleKind::kSum) return StackRows(dv, dv);
  // kAttn backward: V_i = a1 H_top + a2 H_bot with (a1, a2) = softmax(s).
  const std::size_t n = dv.rows();
  const std::size_t d = out_dim();
  Matrix dh(2 * n, d);
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
    for (std::size_t c = 0; c < d; ++c) {
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
  return dh;
}

void BranchEnsemble::CollectParameters(std::vector<nn::Parameter*>* out) {
  head_.CollectParameters(out);
  if (attn_scorer_) attn_scorer_->CollectParameters(out);
}

WhitenRecPlusEncoder::WhitenRecPlusEncoder(Matrix z_full, Matrix z_relaxed,
                                           std::size_t out_dim,
                                           EnsembleKind ensemble,
                                           HeadKind head, linalg::Rng* rng,
                                           std::string name)
    : z_full_(std::move(z_full)),
      z_relaxed_(std::move(z_relaxed)),
      ensemble_(z_full_.cols(), out_dim, ensemble, head, rng, name),
      name_(std::move(name)) {
  WR_CHECK_EQ(z_full_.rows(), z_relaxed_.rows());
  WR_CHECK_EQ(z_full_.cols(), z_relaxed_.cols());
}

Matrix WhitenRecPlusEncoder::Forward(bool train) {
  return ensemble_.Forward(z_full_, z_relaxed_, train);
}

void WhitenRecPlusEncoder::Backward(const Matrix& dv) {
  WR_CHECK_EQ(dv.rows(), z_full_.rows());
  ensemble_.Backward(dv);  // the frozen branches take no gradient
}

void WhitenRecPlusEncoder::CollectParameters(
    std::vector<nn::Parameter*>* out) {
  ensemble_.CollectParameters(out);
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

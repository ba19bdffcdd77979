#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "core/check.h"
#include "core/parallel.h"
#include "whitening/whiten_encoder.h"
#include "linalg/gemm.h"

namespace whitenrec {
namespace serve {
namespace {

using linalg::Matrix;

// Quarantined feature rows kept for inspection; the ServeStats counter keeps
// counting past the cap so a poisoning flood is still visible in full.
constexpr std::size_t kQuarantineCap = 256;

// A kExact ladder rung over the service's own exact scorer: it forwards
// every batch, so the rung shares that scorer's packed table instead of
// packing a second copy per refit. Rebuild has nothing to do, because
// RebuildScorers rebuilds the shared scorer before its rungs.
class SharedExactView final : public retrieval::Scorer {
 public:
  explicit SharedExactView(const retrieval::Scorer* base) : base_(base) {
    num_items_ = base->num_items();
  }

  void Rebuild(const Matrix& items) override {
    WR_CHECK_EQ(items.rows(), base_->num_items());
    num_items_ = items.rows();
  }

  void TopKBatch(const Matrix& users,
                 const std::vector<std::vector<std::size_t>>& exclusions,
                 std::vector<linalg::TopKSelector>* selectors) const override {
    base_->TopKBatch(users, exclusions, selectors);
  }

  const char* name() const override { return base_->name(); }

 private:
  const retrieval::Scorer* base_;  // borrowed: the service's scorer_
};

}  // namespace

RecommendService::RecommendService(seqrec::SasRecModel* model,
                                   const ServeConfig& config)
    : model_(model),
      config_(config),
      queue_(AdmissionConfig{config.queue_max}) {
  WR_CHECK(model != nullptr);
  WR_CHECK(config.top_k > 0);
  WR_CHECK(config.max_batch > 0);
  WR_CHECK(config.refit_every > 0);
  item_table_ = model_->EncodeItems(/*train=*/false);
  scorer_ = retrieval::MakeScorer(config.scorer);
  if (!config_.ladder.rungs.empty()) {
    ladder_ = std::make_unique<DegradationLadder>(config_.ladder);
  }
  rung_served_.assign(std::max<std::size_t>(1, config_.ladder.rungs.size()),
                      0);
  RebuildScorers();
}

void RecommendService::RebuildScorers() {
  scorer_->Rebuild(item_table_);
  ++stats_.index_rebuilds;
  rung_scorers_.clear();
  const std::vector<LadderRung>& rungs = config_.ladder.rungs;
  if (rungs.empty()) return;
  bool any_ivf = false;
  for (const LadderRung& rung : rungs) {
    if (rung.kind == RungKind::kIvf) any_ivf = true;
  }
  if (any_ivf) {
    // One deterministic k-means build feeds every IVF rung's view.
    if (shared_ivf_ == nullptr) {
      shared_ivf_ =
          std::make_unique<retrieval::SharedIvfIndex>(config_.scorer);
    }
    shared_ivf_->Rebuild(item_table_);
  }
  for (const LadderRung& rung : rungs) {
    std::unique_ptr<retrieval::Scorer> scorer;
    switch (rung.kind) {
      case RungKind::kExact:
        if (config_.scorer.kind == retrieval::ScorerKind::kExact) {
          scorer = std::make_unique<SharedExactView>(scorer_.get());
        } else {
          scorer = linalg::MakeExactScorer();
        }
        break;
      case RungKind::kIvf:
        scorer = shared_ivf_->MakeView(rung.nprobe);
        break;
      case RungKind::kPopularity:
        scorer = retrieval::MakePopularityScorer(config_.popularity);
        break;
    }
    scorer->Rebuild(item_table_);
    rung_scorers_.push_back(std::move(scorer));
  }
}

bool RecommendService::AppendAndEncode(Session* session, std::size_t item,
                                       Matrix* h_row) const {
  const std::size_t max_len = model_->config().max_len;
  if (session->window.size() == max_len) {
    // Window shift: every remaining position moves down by one, so all
    // cached K/V rows are stale. Drop the oldest item and replay.
    session->window.erase(session->window.begin());
    session->state.Clear();
    session->has_state = false;
  }
  session->window.push_back(item);
  const bool incremental = session->has_state;
  if (!session->has_state) {
    session->state.Clear();
    for (std::size_t t = 0; t + 1 < session->window.size(); ++t) {
      model_->EncodeSequenceStep(item_table_, session->window[t],
                                 &session->state, h_row);
    }
  }
  model_->EncodeSequenceStep(item_table_, item, &session->state, h_row);
  return incremental;
}

void RecommendService::EvictFor(const std::vector<std::uint64_t>& needed) {
  // Sessions the incoming slice will touch (they are about to gain state and
  // must not be evicted from under the batch phase).
  const std::size_t incoming = needed.size();
  if (incoming >= config_.max_cached_sessions) {
    // Cap smaller than one batch: evict everything not in the batch; the
    // batch itself is allowed to exceed the cap transiently.
    for (auto& entry : sessions_) {
      if (entry.second.has_state &&
          std::find(needed.begin(), needed.end(), entry.first) ==
              needed.end()) {
        entry.second.state.Clear();
        entry.second.has_state = false;
        --stateful_sessions_;
        ++stats_.evictions;
      }
    }
    return;
  }
  // Count how many of the needed sessions already hold state; the rest will
  // be created by the batch phase.
  std::size_t already = 0;
  for (std::uint64_t id : needed) {
    const auto it = sessions_.find(id);
    if (it != sessions_.end() && it->second.has_state) ++already;
  }
  const std::size_t after = stateful_sessions_ + (incoming - already);
  if (after <= config_.max_cached_sessions) return;
  std::size_t to_evict = after - config_.max_cached_sessions;

  // LRU among stateful sessions not needed by this slice. The map's
  // iteration order is unspecified, but the victims are chosen by a total
  // order on (last_use, session_id) — last_use is a deterministic request
  // sequence number — so the evicted SET is iteration-order independent.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> candidates;
  candidates.reserve(sessions_.size());
  for (const auto& entry : sessions_) {
    if (!entry.second.has_state) continue;
    if (std::find(needed.begin(), needed.end(), entry.first) != needed.end()) {
      continue;
    }
    candidates.emplace_back(entry.second.last_use, entry.first);
  }
  std::sort(candidates.begin(), candidates.end());
  for (const auto& victim : candidates) {
    if (to_evict == 0) break;
    Session& session = sessions_[victim.second];
    session.state.Clear();
    session.has_state = false;
    --stateful_sessions_;
    ++stats_.evictions;
    --to_evict;
  }
}

void RecommendService::HandleSlice(
    const std::vector<ServeRequest>& requests, std::size_t begin,
    std::size_t end, std::vector<ServeResponse>* responses,
    const retrieval::Scorer* scorer, const retrieval::Scorer* reference,
    std::vector<std::vector<linalg::ScoredItem>>* refs_out) {
  const std::size_t n = end - begin;
  const std::size_t hidden = model_->config().hidden_dim;

  // Serial pre-phase: group the slice's requests by session in first-arrival
  // order and run eviction. Grouping guarantees the parallel phase touches
  // each session from exactly one chunk, in arrival order.
  std::vector<std::uint64_t> order;            // unique session ids
  std::vector<std::vector<std::size_t>> bins;  // request indices per session
  {
    std::unordered_map<std::uint64_t, std::size_t> slot;
    for (std::size_t r = begin; r < end; ++r) {
      const std::uint64_t id = requests[r].session_id;
      WR_CHECK_LT(requests[r].item, item_table_.rows());
      const auto it = slot.find(id);
      if (it == slot.end()) {
        slot.emplace(id, order.size());
        order.push_back(id);
        bins.emplace_back(1, r);
      } else {
        bins[it->second].push_back(r);
      }
    }
  }
  EvictFor(order);
  for (std::uint64_t id : order) {
    sessions_[id];  // materialize entries on the serial path
  }

  // Parallel phase: per-session incremental forwards. Distinct sessions own
  // disjoint state, and sessions_ is not resized here, so chunks race on
  // nothing; within a session requests run in arrival order.
  Matrix users(n, hidden);
  std::vector<std::vector<std::size_t>> exclusions(n);
  std::vector<unsigned char> hit(n, 0);
  std::vector<std::size_t> lens(n, 0);
  core::ParallelFor(
      0, order.size(), 1, [&](std::size_t s0, std::size_t s1) {
        Matrix h_row;
        for (std::size_t s = s0; s < s1; ++s) {
          Session& session = sessions_.find(order[s])->second;
          for (std::size_t r : bins[s]) {
            const std::size_t out = r - begin;
            hit[out] = AppendAndEncode(&session, requests[r].item, &h_row)
                           ? 1
                           : 0;
            std::copy(h_row.RowPtr(0), h_row.RowPtr(0) + hidden,
                      users.RowPtr(out));
            lens[out] = session.window.size();
            exclusions[out] = session.window;
            std::sort(exclusions[out].begin(), exclusions[out].end());
          }
        }
      });

  // Serial post-phase bookkeeping.
  for (std::size_t s = 0; s < order.size(); ++s) {
    Session& session = sessions_.find(order[s])->second;
    if (!session.has_state) {
      session.has_state = true;
      ++stateful_sessions_;
    }
    session.last_use = ++request_seq_;
  }

  // Scoring goes through the Scorer seam (retrieval/scorer.h): exact streams
  // the item table packed at Rebuild into O(K) selectors, with scores
  // bitwise those of the reference GEMM; ivf probes the deterministic IVF
  // index and exact-reranks candidates with the same selectors. Either way
  // the (n, num_items) score matrix never exists and the selected set is
  // feed-order independent (strict total order).
  std::vector<linalg::TopKSelector> selectors;
  selectors.reserve(n);
  for (std::size_t r = 0; r < n; ++r) selectors.emplace_back(config_.top_k);
  scorer->TopKBatch(users, exclusions, &selectors);

  // Undegraded baseline: score the SAME user states through the reference
  // scorer. Session state advanced once above; this second scoring pass is
  // stateless, so serving degraded + recording the baseline cannot drift
  // from serving undegraded.
  if (reference != nullptr && refs_out != nullptr) {
    if (reference == scorer) {
      for (std::size_t r = 0; r < n; ++r) {
        refs_out->push_back(selectors[r].SortedDescending());
      }
    } else {
      std::vector<linalg::TopKSelector> ref_selectors;
      ref_selectors.reserve(n);
      for (std::size_t r = 0; r < n; ++r) {
        ref_selectors.emplace_back(config_.top_k);
      }
      reference->TopKBatch(users, exclusions, &ref_selectors);
      for (std::size_t r = 0; r < n; ++r) {
        refs_out->push_back(ref_selectors[r].SortedDescending());
      }
    }
  }

  for (std::size_t r = 0; r < n; ++r) {
    ServeResponse& response = (*responses)[begin + r];
    response.topk = selectors[r].SortedDescending();
    response.incremental = hit[r] != 0;
    response.session_len = lens[r];
    if (hit[r] != 0) {
      ++stats_.cache_hits;
    } else {
      ++stats_.recomputes;
    }
  }
  stats_.requests += n;
  ++stats_.batches;
}

ServeResponse RecommendService::Handle(const ServeRequest& request) {
  std::vector<ServeRequest> one(1, request);
  std::vector<ServeResponse> responses(1);
  HandleSlice(one, 0, 1, &responses, scorer_.get(), nullptr, nullptr);
  return std::move(responses[0]);
}

std::vector<ServeResponse> RecommendService::HandleBatch(
    const std::vector<ServeRequest>& requests) {
  std::vector<ServeResponse> responses(requests.size());
  for (std::size_t begin = 0; begin < requests.size();
       begin += config_.max_batch) {
    const std::size_t end =
        std::min(requests.size(), begin + config_.max_batch);
    HandleSlice(requests, begin, end, &responses, scorer_.get(), nullptr,
                nullptr);
  }
  return responses;
}

std::size_t RecommendService::current_rung() const {
  return ladder_ == nullptr ? 0 : ladder_->rung();
}

std::uint64_t RecommendService::Enqueue(const ServeRequest& request,
                                        std::vector<ServeOutcome>* outcomes) {
  WR_CHECK(outcomes != nullptr);
  ServeRequest stamped = request;
  if (stamped.deadline_ns == 0 && config_.deadline_ns > 0) {
    stamped.deadline_ns = stamped.arrival_ns + config_.deadline_ns;
  }
  AdmissionQueue::OfferResult offer = queue_.Offer(stamped);
  if (offer.shed.has_value()) {
    ServeOutcome outcome;
    outcome.seq = offer.shed->seq;
    outcome.kind = ServeOutcomeKind::kShedOverflow;
    outcome.status = Status::Unavailable("admission queue full");
    outcome.request = offer.shed->request;
    outcomes->push_back(std::move(outcome));
    ++stats_.queue_sheds;
  }
  return offer.seq;
}

void RecommendService::ServeQueued(
    std::uint64_t now_ns, std::vector<ServeOutcome>* outcomes,
    std::vector<std::vector<linalg::ScoredItem>>* reference) {
  WR_CHECK(outcomes != nullptr);
  // Per-batch deadline check: a request whose deadline has already passed
  // is dropped HERE, before it can touch session state — a shed request
  // leaves the service bitwise as if it had never arrived.
  for (const AdmittedRequest& dropped : queue_.DropOverdue(now_ns)) {
    ServeOutcome outcome;
    outcome.seq = dropped.seq;
    outcome.kind = ServeOutcomeKind::kShedDeadline;
    outcome.status =
        Status::DeadlineExceeded("deadline passed before service");
    outcome.request = dropped.request;
    outcomes->push_back(std::move(outcome));
    ++stats_.deadline_sheds;
  }
  // The ladder observes the post-drop backlog — the work actually waiting.
  std::size_t rung = 0;
  if (ladder_ != nullptr) rung = ladder_->Observe(queue_.size());
  if (queue_.empty()) return;

  std::vector<AdmittedRequest> admitted = queue_.PopBatch(config_.max_batch);
  std::vector<ServeRequest> requests;
  requests.reserve(admitted.size());
  for (const AdmittedRequest& a : admitted) requests.push_back(a.request);

  const retrieval::Scorer* scorer =
      rung_scorers_.empty() ? scorer_.get() : rung_scorers_[rung].get();
  const retrieval::Scorer* ref_scorer = nullptr;
  if (reference != nullptr) {
    ref_scorer = rung_scorers_.empty() ? scorer : rung_scorers_[0].get();
  }
  std::vector<ServeResponse> responses(requests.size());
  HandleSlice(requests, 0, requests.size(), &responses, scorer, ref_scorer,
              reference);
  rung_served_[rung] += requests.size();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ServeOutcome outcome;
    outcome.seq = admitted[i].seq;
    outcome.kind = ServeOutcomeKind::kServed;
    outcome.request = requests[i];
    responses[i].rung = rung;
    outcome.response = std::move(responses[i]);
    outcomes->push_back(std::move(outcome));
  }
}

Status RecommendService::EnableIngest(const Matrix& raw_features,
                                      WhiteningKind kind, double epsilon) {
  auto* encoder = dynamic_cast<TextFeatureEncoder*>(model_->encoder());
  if (encoder == nullptr) {
    return Status::InvalidArgument(
        "ingest requires a TextFeatureEncoder-backed model");
  }
  if (raw_features.rows() != encoder->num_items()) {
    return Status::InvalidArgument("raw feature rows != catalog size");
  }
  if (raw_features.rows() < 2) {
    return Status::InvalidArgument("need >= 2 items to fit whitening");
  }
  // The refit guard reads the spectrum the fit factored; CD and BN never
  // factor one.
  if (kind != WhiteningKind::kZca && kind != WhiteningKind::kPca) {
    return Status::InvalidArgument(
        std::string("ingest refits ZCA or PCA only; ") +
        WhiteningKindName(kind) + " has no eigenbasis for the refit guard");
  }
  whiten_options_ = WhiteningOptions();
  whiten_options_.kind = kind;
  whiten_options_.epsilon = epsilon;
  // A rank-truncated encoder's frozen feature table is narrower than the raw
  // catalog (whiten_k < d); refits must reproduce that width or
  // ReplaceFeatures would reject the new table. The encoder itself records
  // the rank, so ingest needs no extra configuration.
  if (encoder->features().cols() < raw_features.cols()) {
    whiten_options_.rank = encoder->features().cols();
  }
  raw_features_ = raw_features;
  committed_acc_ = IncrementalWhitening(raw_features.cols());
  committed_acc_.Add(raw_features);
  ingest_enabled_ = true;
  return Status::OK();
}

Status RecommendService::ValidateIngestFeature(
    const std::vector<double>& raw_feature) const {
  if (raw_feature.size() != raw_features_.cols()) {
    return Status::InvalidArgument("raw feature dimension mismatch");
  }
  for (double v : raw_feature) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("raw feature has a non-finite value");
    }
    if (config_.ingest_max_abs > 0.0 &&
        std::abs(v) > config_.ingest_max_abs) {
      return Status::InvalidArgument(
          "raw feature magnitude exceeds ingest_max_abs");
    }
  }
  return Status::OK();
}

void RecommendService::Quarantine(const std::vector<double>& raw_feature,
                                  std::string reason) {
  ++stats_.quarantined;
  if (quarantine_.size() < kQuarantineCap) {
    QuarantinedFeature q;
    q.feature = raw_feature;
    q.reason = std::move(reason);
    quarantine_.push_back(std::move(q));
  }
}

Status RecommendService::DropPending(Status cause) {
  // The guard cannot tell WHICH ingested row poisoned the moments, so every
  // pending row is suspect: all of them go to quarantine. Nothing else was
  // written, so truncating the raw catalog back to its committed rows is
  // the whole of the undo.
  ++stats_.refit_failures;
  const std::size_t committed = committed_acc_.count();
  for (std::size_t r = committed; r < raw_features_.rows(); ++r) {
    Quarantine(raw_features_.Row(r), "dropped by refit rollback");
  }
  raw_features_ = raw_features_.RowSlice(0, committed);
  return cause;
}

Status RecommendService::IngestItem(const std::vector<double>& raw_feature) {
  if (!ingest_enabled_) {
    return Status::InvalidArgument("call EnableIngest first");
  }
  // Poisoned-ingest defense: a rejected row never reaches the raw catalog,
  // so the whitening moments, the catalog and the scorer are bitwise
  // unchanged by it; only the quarantine records it.
  Status valid = ValidateIngestFeature(raw_feature);
  if (!valid.ok()) {
    Quarantine(raw_feature, valid.message());
    return valid;
  }
  // Amortized O(d), no catalog copy. The row reaches the whitening moments
  // only when a refit folds the pending tail in.
  raw_features_.AppendRow(raw_feature);
  ++stats_.ingested;
  if (pending_ingests() >= config_.refit_every) return Refit();
  return Status::OK();
}

Status RecommendService::RefitNow() {
  if (!ingest_enabled_) {
    return Status::InvalidArgument("call EnableIngest first");
  }
  if (pending_ingests() == 0) return Status::OK();
  return Refit();
}

Status RecommendService::GuardRefit(const FittedWhitening& fitted) const {
  // Refit guard: a poisoned batch that slipped past the per-row bounds still
  // shows up as a sick covariance (blown condition number or collapsed
  // spectrum). Refuse the refit rather than bake a near-singular transform
  // into the serving path. The fit already factored Sigma + eps I; shifting
  // that spectrum by -eps reads the spectrum of Sigma the thresholds are
  // stated over, so the guard needs no eigensolve of its own.
  // EnableIngest admits only eigenbasis kinds, so the spectrum is there.
  WR_CHECK(!fitted.spectrum.empty());
  const double eps = whiten_options_.epsilon;
  const double max_eigenvalue = fitted.spectrum.front() - eps;
  const double min_eigenvalue = fitted.spectrum.back() - eps;
  // The condition number clamps both ends so it stays finite; the floor
  // check reads the unclamped minimum.
  constexpr double kClamp = 1e-10;
  const double condition = std::max(max_eigenvalue, kClamp) /
                           std::max(min_eigenvalue, kClamp);
  if (config_.refit_max_condition > 0.0 &&
      condition > config_.refit_max_condition) {
    return Status::NumericalError(
        "refit guard: covariance condition number exceeds bound");
  }
  if (config_.refit_eigen_floor > 0.0 &&
      min_eigenvalue < config_.refit_eigen_floor) {
    return Status::NumericalError(
        "refit guard: covariance eigenvalue below floor");
  }
  return Status::OK();
}

Status RecommendService::Refit() {
  auto* encoder = dynamic_cast<TextFeatureEncoder*>(model_->encoder());
  WR_CHECK(encoder != nullptr);  // EnableIngest verified this

  // Every step that can fail runs before the first write, so a failed refit
  // has nothing to undo. The candidate moments are the committed ones plus
  // the pending tail of the raw catalog; Add is a per-row Welford loop, so
  // folding the tail in here is bitwise the same as folding each row in as
  // it arrived.
  const std::size_t committed = committed_acc_.count();
  IncrementalWhitening acc = committed_acc_;
  acc.Add(raw_features_.RowSlice(committed, raw_features_.rows()));
  Result<FittedWhitening> fitted = acc.Fit(whiten_options_);
  if (!fitted.ok()) return DropPending(fitted.status());
  Status guard = GuardRefit(fitted.value());
  if (!guard.ok()) return DropPending(guard);
  if (config_.chaos != nullptr &&
      config_.chaos->Next({ChaosKind::kRefitFailure}) ==
          ChaosKind::kRefitFailure) {
    ++stats_.rollbacks;
    return DropPending(Status::Unavailable(
        "refit dropped by injected failure; serving stays on the last "
        "committed transform"));
  }
  Matrix whitened = ApplyWhitening(fitted.value(), raw_features_);
  // Grow-only: sessions may hold any committed item id, so the new table may
  // add rows but never drop one.
  WR_CHECK_GE(whitened.rows(), encoder->num_items());
  // ReplaceFeatures checks the shape before it assigns: the first write.
  Status replaced = encoder->ReplaceFeatures(std::move(whitened));
  if (!replaced.ok()) return DropPending(replaced);

  // Commit; nothing from here on can fail. The whole item table changed:
  // rebuild it, re-index it, and invalidate every cached session state.
  // Windows are kept — the next request per session replays them against
  // the new table (counted as a recompute, not an error). The scorer rebuild
  // runs on every refit, so the index cadence mirrors the whitening refit
  // cadence and responses stay a pure function of the ingest history.
  item_table_ = model_->EncodeItems(/*train=*/false);
  RebuildScorers();
  for (auto& entry : sessions_) {
    if (entry.second.has_state) {
      entry.second.state.Clear();
      entry.second.has_state = false;
    }
  }
  stateful_sessions_ = 0;
  committed_acc_ = std::move(acc);
  ++table_version_;
  ++stats_.refits;
  return Status::OK();
}

}  // namespace serve
}  // namespace whitenrec

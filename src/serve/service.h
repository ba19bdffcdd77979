#ifndef WHITENREC_SERVE_SERVICE_H_
#define WHITENREC_SERVE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "whitening/incremental_whitening.h"
#include "core/status.h"
#include "whitening/whitening.h"
#include "linalg/matrix.h"
#include "linalg/topk.h"
#include "retrieval/scorer.h"
#include "seqrec/model.h"
#include "serve/admission.h"
#include "serve/chaos.h"
#include "serve/degrade.h"

namespace whitenrec {
namespace serve {

// Serving configuration; Defaults() gives the compiled-in values.
struct ServeConfig {
  // Recommendations returned per request.
  std::size_t top_k = 10;
  // Sessions allowed to hold live transformer K/V state; beyond this the
  // least-recently-used stateful session is evicted (its next request falls
  // back to a full window recompute — a cost, never a correctness, event).
  std::size_t max_cached_sessions = 4096;
  // Requests coalesced into one fused scoring pass, at most.
  std::size_t max_batch = 256;
  // Read by nothing in the library: the service has no batcher of its own.
  // HandleBatch serves the batch its caller cut, in max_batch slices, and
  // ServeQueued pops at most max_batch. Kept only because perfbench sets it.
  std::uint64_t batch_window_ns = 1000000;  // 1 ms
  // Item-ingest path: refit the whitening transform and rebuild the item
  // table after this many ingested items.
  std::size_t refit_every = 32;
  // Top-K scoring backend (exact fused | IVF) and its index knobs. The IVF
  // index is rebuilt deterministically on every ingest refit, so the scorer
  // always indexes the table the model scores against.
  retrieval::ScorerConfig scorer;

  // --- Overload resilience (DESIGN.md §13) --------------------------------
  // Default per-request deadline budget relative to arrival, stamped at
  // Enqueue onto requests that carry none. 0 = no default deadline.
  std::uint64_t deadline_ns = 0;
  // Bound on the admission queue (Enqueue/ServeQueued path only; the direct
  // Handle/HandleBatch calls bypass admission).
  std::size_t queue_max = 1024;
  // Degradation ladder. rungs empty = no ladder: ServeQueued always serves
  // on the primary scorer and labels every response rung 0.
  LadderConfig ladder;
  // Per-item interaction counts backing the ladder's popularity rung (and
  // only that rung); empty counts rank the catalog by item id.
  std::vector<std::size_t> popularity;

  // --- Poisoned-ingest defense (DESIGN.md §13) ----------------------------
  // IngestItem rejects features with any |value| above this bound.
  double ingest_max_abs = 1e6;
  // Refit guard: refuse to refit (and drop the pending ingests) when the
  // candidate covariance's condition number exceeds this, or its smallest
  // eigenvalue falls below refit_eigen_floor. 0 disables either check. Both
  // thresholds apply to the spectrum of Sigma, read as lambda(Sigma + eps I)
  // - eps from the eigenvalues the candidate fit factored; the condition
  // number clamps both ends at 1e-10.
  double refit_max_condition = 1e12;
  double refit_eigen_floor = 0.0;

  // Fault-injection hook (serve/chaos.h), borrowed: consulted once per refit
  // for ChaosKind::kRefitFailure. Null (production, perfbench) injects
  // nothing; the degrade harness and the tests own the injector and must
  // keep it alive as long as the service.
  ChaosInjector* chaos = nullptr;

  static ServeConfig Defaults() { return ServeConfig(); }
};

struct ServeResponse {
  // Top-K next-item recommendations in canonical ranking order
  // (linalg::RanksBefore: score desc, item id asc).
  std::vector<linalg::ScoredItem> topk;
  // True when the session's cached hidden state was extended in place;
  // false when the window had to be replayed (cold session, eviction, or
  // max_len truncation shift). Purely informational: responses are bitwise
  // identical either way.
  bool incremental = false;
  // Items in the session window after this request (<= model max_len).
  std::size_t session_len = 0;
  // Ladder rung that served this response (0 = full quality). Always 0 on
  // the direct Handle/HandleBatch path.
  std::size_t rung = 0;
};

// Terminal disposition of a request on the admission-controlled path.
enum class ServeOutcomeKind {
  kServed,        // response holds a real recommendation list
  kShedOverflow,  // shed by the bounded admission queue (kUnavailable)
  kShedDeadline,  // dropped with its deadline already passed (kDeadlineExceeded)
};

struct ServeOutcome {
  std::uint64_t seq = 0;  // admission sequence number (AdmittedRequest::seq)
  ServeOutcomeKind kind = ServeOutcomeKind::kServed;
  Status status;          // OK iff kind == kServed
  ServeRequest request;   // the request this outcome answers
  ServeResponse response; // meaningful iff kind == kServed
};

// Counters since construction / ResetStats(); all updated on the serial
// control path so reads need no synchronization.
struct ServeStats {
  std::size_t requests = 0;
  std::size_t batches = 0;
  std::size_t cache_hits = 0;   // responses served incrementally
  std::size_t recomputes = 0;   // responses that replayed the window
  std::size_t evictions = 0;    // session states dropped by the LRU cap
  std::size_t ingested = 0;     // items accepted by IngestItem
  std::size_t refits = 0;       // whitening refits + item-table rebuilds
  std::size_t index_rebuilds = 0;  // scorer Rebuild calls (construction+refit)
  std::size_t queue_sheds = 0;     // shed by the bounded admission queue
  std::size_t deadline_sheds = 0;  // dropped overdue before service
  std::size_t quarantined = 0;     // ingest features rejected into quarantine
  std::size_t refit_failures = 0;  // refits dropped before commit, any cause
  std::size_t rollbacks = 0;  // of those, dropped by injected chaos
};

// A rejected ingest feature, kept for offline inspection (capped; the
// counter in ServeStats keeps counting past the cap).
struct QuarantinedFeature {
  std::vector<double> feature;
  std::string reason;
};

// Online recommendation core: holds a trained SASRec model plus its encoded
// item table and answers "session s consumed item i — what next?" requests.
//
// Determinism contract (tests/serving_test.cc): for a fixed model and a
// fixed request trace, responses are bitwise identical whether requests are
// served one at a time or coalesced into micro-batches of any size, at any
// thread count, with any cache capacity. This holds because
//   - per-session state evolves only from that session's own requests, in
//     arrival order (the batch phase parallelizes across sessions, never
//     within one);
//   - the incremental append-one-item forward is bitwise identical to the
//     full window recompute (seqrec::SasRecModel::EncodeSequenceStep);
//   - scoring is the canonical GEMM (per-element ascending-k dot products)
//     streamed through the O(K) TopKSelector, so each request's scores
//     never depend on which other requests share its batch.
//
// Threading: Handle/HandleBatch/IngestItem must be called from one thread
// (the micro-batcher); internally HandleBatch fans out across sessions via
// core::ParallelFor. The model is borrowed, not owned, and must outlive the
// service; the service assumes exclusive use of it while serving.
class RecommendService {
 public:
  RecommendService(seqrec::SasRecModel* model, const ServeConfig& config);

  // Serves one request alone (a batch of one).
  ServeResponse Handle(const ServeRequest& request);

  // Serves a micro-batch: one fused GEMM scoring pass over all coalesced
  // requests. Requests beyond max_batch are processed in successive slices
  // (responses are unaffected — see the determinism contract). responses[i]
  // answers requests[i].
  std::vector<ServeResponse> HandleBatch(
      const std::vector<ServeRequest>& requests);

  // --- Admission control + degradation ladder (DESIGN.md §13) -------------
  // The overload-resilient path: requests are offered to a bounded EDF
  // admission queue and served in deadline order by ServeQueued, which also
  // drives the degradation ladder. Shedding, ladder transitions, and rung
  // labels are pure functions of the (request, now_ns) call sequence —
  // bitwise reproducible at any thread count. Same single-caller threading
  // contract as Handle/HandleBatch.

  // Offers the request to the admission queue, stamping the default
  // deadline (config.deadline_ns past arrival) when the request carries
  // none. When the bounded queue sheds — possibly this very request — the
  // victim is appended to *outcomes with kShedOverflow / kUnavailable.
  // Returns the admission seq assigned to `request`.
  std::uint64_t Enqueue(const ServeRequest& request,
                        std::vector<ServeOutcome>* outcomes);

  // Cuts and serves one batch at virtual time now_ns: drops overdue queued
  // requests (kShedDeadline, never touching session state), feeds the
  // post-drop queue depth to the ladder, then pops up to max_batch requests
  // in EDF order and serves them on the current rung (responses carry the
  // rung label). Outcomes append to *outcomes. When `reference` is non-null
  // each served request ALSO gets its rung-0 (undegraded) top-K appended
  // there, computed from the same forward pass — the per-rung quality
  // baseline; session state still advances exactly once.
  void ServeQueued(
      std::uint64_t now_ns, std::vector<ServeOutcome>* outcomes,
      std::vector<std::vector<linalg::ScoredItem>>* reference = nullptr);

  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t current_rung() const;
  // Responses served per rung index (size = max(1, ladder rungs)).
  const std::vector<std::size_t>& rung_served() const { return rung_served_; }

  // --- Online item ingest --------------------------------------------------
  // Arms the ingest path: `raw_features` are the unwhitened text embeddings
  // the catalog was built from (row r = item r), `kind`/`epsilon` the
  // whitening to refit. Requires the model's encoder to be a
  // TextFeatureEncoder (WhitenRec / SASRec^T style). `kind` must be ZCA or
  // PCA: the refit guard reads the spectrum the fit factors, and CD and BN
  // factor none, so they get kInvalidArgument.
  Status EnableIngest(const linalg::Matrix& raw_features, WhiteningKind kind,
                      double epsilon);

  // Accepts one new item's raw text embedding as a pending row. The item
  // becomes scorable at the next refit (every config.refit_every ingests, or
  // RefitNow()), when the pending rows are folded into a copy of the
  // committed whitening moments, the transform refit, the whole catalog
  // re-whitened, the item table rebuilt through the trained projection
  // head, and every cached session state invalidated (their windows replay
  // against the new table on next use).
  //
  // Poisoned-ingest defense: wrong dimension, non-finite values, and
  // |value| > config.ingest_max_abs are rejected with kInvalidArgument and
  // the row goes to quarantine() instead of the catalog, so the moments,
  // catalog, and scorer are bitwise unaffected by a rejected ingest.
  Status IngestItem(const std::vector<double>& raw_feature);

  // Folds the pending ingests in now.
  //
  // A refit commits or drops (DESIGN.md §13). Every step that can fail runs
  // before the first write, in this order: the fit, the condition-number /
  // eigenvalue-floor guard over the spectrum the fit factored, the one
  // ChaosKind::kRefitFailure decision of config.chaos, and ReplaceFeatures'
  // shape check. A failure there drops the refit: the pending rows go to
  // quarantine and the model, item table, index, and committed moments are
  // bitwise untouched. Past the first write nothing can fail;
  // table_version() advances only on a commit.
  Status RefitNow();

  std::size_t num_items() const { return item_table_.rows(); }
  std::size_t pending_ingests() const {
    return raw_features_.rows() - committed_acc_.count();
  }
  std::size_t cached_sessions() const { return stateful_sessions_; }
  std::uint64_t table_version() const { return table_version_; }
  const std::vector<QuarantinedFeature>& quarantine() const {
    return quarantine_;
  }
  const ServeConfig& config() const { return config_; }
  const ServeStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ServeStats(); }

 private:
  struct Session {
    std::vector<std::size_t> window;  // last <= max_len items, oldest first
    seqrec::SasRecModel::SessionStepState state;
    bool has_state = false;  // false: cold, evicted, or invalidated
    std::uint64_t last_use = 0;  // request sequence number (deterministic)
  };

  // Serves requests[begin, end) as one coalesced scoring pass through
  // `scorer` (the current rung's backend; the primary scorer on the direct
  // path). When `reference` is non-null the same user states are ALSO
  // scored through it and the resulting top-K lists appended to *refs_out —
  // one forward pass, two scoring passes, so degraded responses and their
  // undegraded baselines stay comparable without replaying sessions.
  void HandleSlice(const std::vector<ServeRequest>& requests,
                   std::size_t begin, std::size_t end,
                   std::vector<ServeResponse>* responses,
                   const retrieval::Scorer* scorer,
                   const retrieval::Scorer* reference,
                   std::vector<std::vector<linalg::ScoredItem>>* refs_out);

  // Appends the request item to the session (handling truncation shifts and
  // cold/evicted replay) and writes the last hidden row. Returns true when
  // the append was incremental. Called concurrently for distinct sessions.
  bool AppendAndEncode(Session* session, std::size_t item,
                       linalg::Matrix* h_row) const;

  // Evicts LRU session states until the batch's sessions fit the cap.
  // `needed` lists the sessions the current slice is about to touch.
  void EvictFor(const std::vector<std::uint64_t>& needed);

  Status Refit();
  // The refit guard over a candidate fit's spectrum: kNumericalError when
  // the covariance it implies breaks refit_max_condition or
  // refit_eigen_floor.
  Status GuardRefit(const FittedWhitening& fitted) const;

  // Rebuilds the primary scorer and every ladder rung scorer over the
  // current item_table_ (construction and refit commit).
  void RebuildScorers();

  // Validates an ingest feature against dimension/finiteness/magnitude.
  Status ValidateIngestFeature(const std::vector<double>& raw_feature) const;
  // Records a rejected feature (capped list, uncapped counter).
  void Quarantine(const std::vector<double>& raw_feature, std::string reason);
  // Drops a refit before commit: the pending rows go to quarantine and leave
  // the raw catalog. Returns `cause`.
  Status DropPending(Status cause);

  seqrec::SasRecModel* model_;  // borrowed
  ServeConfig config_;
  linalg::Matrix item_table_;  // (num_items, d) from EncodeItems(false)
  // Top-K backend over item_table_ (borrowed by the scorer; Refit() rebuilds
  // the table and immediately re-calls scorer_->Rebuild on it).
  std::unique_ptr<retrieval::Scorer> scorer_;

  std::unordered_map<std::uint64_t, Session> sessions_;
  std::size_t stateful_sessions_ = 0;
  std::uint64_t request_seq_ = 0;  // logical clock for LRU ordering

  // Admission + degradation state (Enqueue/ServeQueued path).
  AdmissionQueue queue_;
  std::unique_ptr<DegradationLadder> ladder_;  // null = no ladder configured
  // One k-means build shared by every IVF rung (retrieval::SharedIvfIndex);
  // null when no rung needs it.
  std::unique_ptr<retrieval::SharedIvfIndex> shared_ivf_;
  std::vector<std::unique_ptr<retrieval::Scorer>> rung_scorers_;
  std::vector<std::size_t> rung_served_;

  // Ingest state (EnableIngest). committed_acc_ holds the whitening moments
  // of the committed catalog, the first committed_acc_.count() rows of
  // raw_features_; the rows after them are the pending ingests, which reach
  // the moments only in a refit's candidate copy.
  bool ingest_enabled_ = false;
  WhiteningOptions whiten_options_;
  linalg::Matrix raw_features_;
  IncrementalWhitening committed_acc_{1};
  std::uint64_t table_version_ = 0;
  std::vector<QuarantinedFeature> quarantine_;

  ServeStats stats_;
};

}  // namespace serve
}  // namespace whitenrec

#endif  // WHITENREC_SERVE_SERVICE_H_

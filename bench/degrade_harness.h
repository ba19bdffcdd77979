#ifndef WHITENREC_BENCH_DEGRADE_HARNESS_H_
#define WHITENREC_BENCH_DEGRADE_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/traffic.h"
#include "core/status.h"
#include "seqrec/model.h"
#include "serve/service.h"
#include "whitening/whitening.h"

namespace whitenrec {
namespace bench {

// Overload / chaos sweep configuration (bench_degrade, check-degrade).
//
// Unlike the latency harness (bench/serving_harness.h), which times real
// batches, this harness runs ENTIRELY on the virtual clock: batch cost is a
// model (base + per-request, scaled by the serving rung's cost factor, plus
// injected latency spikes; the constants live in degrade_harness.cc and are
// reported under "cost_model"), so availability, deadline misses, ladder
// transitions, and per-rung quality are bitwise reproducible on any machine
// at any thread count — chaos included, because the fault plane draws from
// a serve::ChaosInjector the harness owns and seeds from chaos_seed /
// chaos_rate.
struct DegradeConfig {
  // Offered load at multiplier 1.0; deadline_ns should be set so requests
  // carry deadlines into the admission queue.
  TrafficConfig traffic;
  // Must usually carry a ladder + queue bound; serve.max_batch caps the
  // per-round service batch. serve.chaos is replaced by the harness's own
  // injector.
  serve::ServeConfig serve;
  // The chaos schedule: every decision point faults with probability
  // chaos_rate in [0, 1] (0 = no chaos), drawn from a stream seeded by
  // chaos_seed.
  std::uint64_t chaos_seed = 1;
  double chaos_rate = 0.0;
  // Each sweep point divides the mean interarrival gap by its multiplier
  // (4.0 = 4x overload) and replays a freshly generated trace.
  std::vector<double> load_multipliers = {1.0, 2.0, 4.0};

  // Poisoned-ingest fault stream: every `ingest_every` served requests,
  // offer one synthetic raw feature row to IngestItem;
  // ChaosKind::kCorruptIngest replaces a value with NaN first, exercising
  // the validation + quarantine path (and, via refits, the guard and the
  // refit drop). 0 disables; needs raw_features at RunDegradeHarness.
  // ingest_kind must be ZCA or PCA (RecommendService::EnableIngest).
  std::size_t ingest_every = 0;
  WhiteningKind ingest_kind = WhiteningKind::kZca;
  double ingest_epsilon = 1e-5;
};

// Depth of the per-rung quality measure: NDCG@kDegradeNdcgK of each rung's
// top-K against the undegraded rung-0 top-K.
inline constexpr std::size_t kDegradeNdcgK = 10;

// One load-multiplier sweep point.
struct DegradePoint {
  double load_multiplier = 0.0;
  std::size_t offered = 0;
  std::size_t served = 0;
  std::size_t shed_overflow = 0;  // typed kUnavailable
  std::size_t shed_deadline = 0;  // typed kDeadlineExceeded
  double availability = 0.0;      // served / offered
  double deadline_miss_rate = 0.0;  // served past their deadline / served
  std::uint64_t p50_ns = 0;       // virtual completion - arrival
  std::uint64_t p99_ns = 0;
  std::size_t quarantined = 0;
  std::size_t refit_failures = 0;
  std::size_t rollbacks = 0;
  // Parallel arrays over ladder rungs (size = max(1, ladder rungs)):
  // responses served per rung, and the mean NDCG@k of each rung's responses
  // against the rung-0 (undegraded) top-K from the same forward pass.
  // rung_ndcg is -1 for a rung that served nothing.
  std::vector<std::size_t> rung_served;
  std::vector<double> rung_ndcg;
};

struct DegradeBenchResult {
  DegradeConfig config;
  std::size_t catalog_items = 0;
  std::vector<DegradePoint> points;
};

// Runs the sweep: per load multiplier, a fresh RecommendService is driven by
// a deterministic trace through Enqueue/ServeQueued on a simulated
// single-server virtual clock (arrivals <= now enqueue; one ServeQueued
// round serves a batch whose modeled cost advances the clock). The harness's
// chaos injector is re-seeded at the start of every point, so points are
// independent and individually reproducible. `raw_features` backs the
// optional ingest fault stream (pass nullptr when ingest_every == 0).
DegradeBenchResult RunDegradeHarness(
    seqrec::SasRecModel* model,
    const std::vector<std::vector<std::size_t>>& sequences,
    const linalg::Matrix* raw_features, const DegradeConfig& config);

// Renders the result as the out/BENCH_degrade.json document: the schema's
// one definition.
std::string DegradeBenchJson(const DegradeBenchResult& result);

// The rules a sweep must meet before its report is trusted: a non-empty
// sweep; per point, availability and deadline-miss rate in [0, 1], offered
// == served + shed_overflow + shed_deadline, p50 <= p99, non-empty rung
// arrays of equal length with each NDCG -1 (rung unused) or in [0, 1]; and,
// when min_availability > 0, availability >= min_availability at every
// point (the check-degrade floor).
Status CheckDegradeBench(const DegradeBenchResult& result,
                         double min_availability = 0.0);

}  // namespace bench
}  // namespace whitenrec

#endif  // WHITENREC_BENCH_DEGRADE_HARNESS_H_

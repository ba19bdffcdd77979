#include "bench/degrade_harness.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/check.h"
#include "core/json.h"
#include "eval/metrics.h"
#include "serve/latency_histogram.h"
#include "whitening/whiten_encoder.h"

namespace whitenrec {
namespace bench {

using serve::ChaosKind;
using serve::ServeOutcomeKind;
using serve::ServeRequest;

namespace {

// Virtual service-cost model, in virtual ns: serving a batch of n requests
// costs (base + per_request * n) * rung_cost_factor, plus kChaosSpikeNs when
// ChaosKind::kLatencySpike fires for the batch.
constexpr std::uint64_t kBaseBatchCostNs = 50000;
constexpr std::uint64_t kPerRequestCostNs = 40000;
constexpr std::uint64_t kChaosSpikeNs = 2000000;

double RungCostFactor(const serve::LadderConfig& ladder, std::size_t rung) {
  if (ladder.rungs.empty()) return 1.0;
  WR_CHECK_LT(rung, ladder.rungs.size());
  return ladder.rungs[rung].cost_factor;
}

}  // namespace

DegradeBenchResult RunDegradeHarness(
    seqrec::SasRecModel* model,
    const std::vector<std::vector<std::size_t>>& sequences,
    const linalg::Matrix* raw_features, const DegradeConfig& config) {
  WR_CHECK(model != nullptr);
  WR_CHECK(!config.load_multipliers.empty());
  if (config.ingest_every > 0) WR_CHECK(raw_features != nullptr);
  WR_CHECK(config.chaos_rate >= 0.0 && config.chaos_rate <= 1.0);

  // The harness owns the chaos plane: one injector, lent to each point's
  // service, so the latency spikes and corrupted ingests drawn here and the
  // refit drops drawn inside the service share one schedule.
  serve::ChaosInjector chaos;

  // The ingest stream's committed refits mutate the shared model's encoder
  // (the catalog grows). Snapshot the feature table once so every sweep
  // point starts from the identical model — points stay independent and
  // individually reproducible.
  auto* encoder =
      dynamic_cast<TextFeatureEncoder*>(model->encoder());
  linalg::Matrix pristine_features;
  if (config.ingest_every > 0 && encoder != nullptr) {
    pristine_features = encoder->features();
  }

  DegradeBenchResult result;
  result.config = config;

  const std::size_t num_rungs =
      std::max<std::size_t>(1, config.serve.ladder.rungs.size());

  for (double mult : config.load_multipliers) {
    WR_CHECK(mult > 0.0);
    // Each point replays its own chaos schedule from the same seed, so
    // points are independent: reordering or dropping multipliers never
    // changes another point's numbers.
    chaos.Configure(config.chaos_seed, config.chaos_rate);

    TrafficConfig traffic = config.traffic;
    traffic.mean_interarrival_ns = config.traffic.mean_interarrival_ns / mult;
    const std::vector<TraceRequest> trace = GenerateTrace(sequences, traffic);

    serve::ServeConfig serve_config = config.serve;
    serve_config.chaos = &chaos;
    serve::RecommendService service(model, serve_config);
    result.catalog_items = service.num_items();
    bool ingest_armed = false;
    if (config.ingest_every > 0) {
      ingest_armed = service
                         .EnableIngest(*raw_features, config.ingest_kind,
                                       config.ingest_epsilon)
                         .ok();
    }

    // Simulated single-server loop on the virtual clock: enqueue every
    // arrival at or before `now`, serve one ServeQueued round, advance the
    // clock by the modeled batch cost, repeat. All control decisions read
    // the virtual clock only.
    std::vector<serve::ServeOutcome> outcomes;
    std::vector<std::vector<linalg::ScoredItem>> refs;
    serve::LatencyHistogram hist;
    std::vector<double> ndcg_sum(num_rungs, 0.0);
    std::vector<std::size_t> ndcg_count(num_rungs, 0);
    std::uint64_t now_ns = 0;
    std::size_t next = 0;
    std::size_t ref_cursor = 0;
    std::size_t served = 0;
    std::size_t missed = 0;
    std::size_t batches = 0;
    std::size_t ingest_cursor = 0;
    while (next < trace.size() || service.queue_depth() > 0) {
      if (service.queue_depth() == 0 && next < trace.size() &&
          trace[next].arrival_ns > now_ns) {
        now_ns = trace[next].arrival_ns;  // idle server: jump to next arrival
      }
      while (next < trace.size() && trace[next].arrival_ns <= now_ns) {
        ServeRequest req;
        req.session_id = trace[next].session_id;
        req.item = trace[next].item;
        req.arrival_ns = trace[next].arrival_ns;
        req.deadline_ns = trace[next].deadline_ns;
        service.Enqueue(req, &outcomes);
        ++next;
      }

      const std::size_t before = outcomes.size();
      service.ServeQueued(now_ns, &outcomes, &refs);
      std::size_t n_served = 0;
      std::size_t rung = 0;
      for (std::size_t o = before; o < outcomes.size(); ++o) {
        if (outcomes[o].kind == ServeOutcomeKind::kServed) {
          ++n_served;
          rung = outcomes[o].response.rung;  // one rung per round
        }
      }
      if (n_served == 0) continue;  // everything overdue; clock already set
      ++batches;

      std::uint64_t cost_ns = static_cast<std::uint64_t>(
          static_cast<double>(kBaseBatchCostNs +
                              kPerRequestCostNs * n_served) *
          RungCostFactor(config.serve.ladder, rung));
      if (cost_ns < 1) cost_ns = 1;
      if (chaos.Next({ChaosKind::kLatencySpike}) == ChaosKind::kLatencySpike) {
        cost_ns += kChaosSpikeNs;
      }
      const std::uint64_t completion_ns = now_ns + cost_ns;
      for (std::size_t o = before; o < outcomes.size(); ++o) {
        if (outcomes[o].kind != ServeOutcomeKind::kServed) continue;
        const ServeRequest& req = outcomes[o].request;
        hist.Record(completion_ns - req.arrival_ns);
        ++served;
        if (req.deadline_ns != 0 && completion_ns > req.deadline_ns) {
          ++missed;  // served, but late
          hist.RecordDeadlineMiss();
        }
        WR_CHECK_LT(ref_cursor, refs.size());
        ndcg_sum[rung] += eval::NdcgVsReference(
            outcomes[o].response.topk, refs[ref_cursor], kDegradeNdcgK);
        ++ndcg_count[rung];
        ++ref_cursor;
      }
      now_ns = completion_ns;

      // Poisoned-ingest fault stream: one synthetic row per ingest_every
      // SERVED requests (request-keyed, so the cadence survives batch
      // coalescing under load), sometimes corrupted by the chaos plane
      // before the service ever sees it. The defense (validation,
      // quarantine, guarded refit + rollback) decides whether anything
      // changes; serving continues either way.
      while (ingest_armed && config.ingest_every > 0 &&
             ingest_cursor < served / config.ingest_every) {
        std::vector<double> feature =
            raw_features->Row(ingest_cursor % raw_features->rows());
        ++ingest_cursor;
        if (chaos.Next({ChaosKind::kCorruptIngest}) ==
            ChaosKind::kCorruptIngest) {
          feature[chaos.NextBelow(feature.size())] =
              std::numeric_limits<double>::quiet_NaN();
        }
        (void)service.IngestItem(feature);  // rejection is the defense working
      }
    }

    DegradePoint point;
    point.load_multiplier = mult;
    point.offered = trace.size();
    point.served = served;
    const serve::ServeStats& stats = service.stats();
    point.shed_overflow = stats.queue_sheds;
    point.shed_deadline = stats.deadline_sheds;
    for (std::size_t s = 0; s < point.shed_overflow + point.shed_deadline;
         ++s) {
      hist.RecordShed();
    }
    point.availability =
        point.offered == 0
            ? 1.0
            : static_cast<double>(served) / static_cast<double>(point.offered);
    point.deadline_miss_rate =
        served == 0 ? 0.0
                    : static_cast<double>(missed) / static_cast<double>(served);
    point.p50_ns = hist.Quantile(0.50);
    point.p99_ns = hist.Quantile(0.99);
    point.quarantined = stats.quarantined;
    point.refit_failures = stats.refit_failures;
    point.rollbacks = stats.rollbacks;
    point.rung_served = service.rung_served();
    point.rung_ndcg.assign(num_rungs, -1.0);
    for (std::size_t r = 0; r < num_rungs; ++r) {
      if (ndcg_count[r] > 0) {
        point.rung_ndcg[r] =
            ndcg_sum[r] / static_cast<double>(ndcg_count[r]);
      }
    }
    result.points.push_back(std::move(point));

    // Undo any committed refits before the next point reuses the model. The
    // catalog shrinks back, which no service may do; this point's service,
    // the only thing referencing the grown table, is going away.
    if (config.ingest_every > 0 && encoder != nullptr &&
        service.table_version() > 0) {
      Status restored = encoder->ReplaceFeatures(pristine_features);
      WR_CHECK(restored.ok());
    }
  }
  return result;
}

std::string DegradeBenchJson(const DegradeBenchResult& result) {
  using core::Json;
  const TrafficConfig& t = result.config.traffic;
  Json sweep = Json::Arr();
  for (const DegradePoint& p : result.points) {
    Json rung_served = Json::Arr();
    for (std::size_t n : p.rung_served) rung_served.Push(Json::Uint(n));
    Json rung_ndcg = Json::Arr();
    for (double v : p.rung_ndcg) rung_ndcg.Push(Json::Num(v));
    sweep.Push(Json::Obj()
                   .Set("load_multiplier", Json::Num(p.load_multiplier))
                   .Set("offered", Json::Uint(p.offered))
                   .Set("served", Json::Uint(p.served))
                   .Set("shed_overflow", Json::Uint(p.shed_overflow))
                   .Set("shed_deadline", Json::Uint(p.shed_deadline))
                   .Set("availability", Json::Num(p.availability))
                   .Set("deadline_miss_rate", Json::Num(p.deadline_miss_rate))
                   .Set("p50_ns", Json::Uint(p.p50_ns))
                   .Set("p99_ns", Json::Uint(p.p99_ns))
                   .Set("quarantined", Json::Uint(p.quarantined))
                   .Set("refit_failures", Json::Uint(p.refit_failures))
                   .Set("rollbacks", Json::Uint(p.rollbacks))
                   .Set("rung_served", std::move(rung_served))
                   .Set("rung_ndcg", std::move(rung_ndcg)));
  }
  return Json::Obj()
             .Set("bench", Json::Str("degrade"))
             .Set("catalog_items", Json::Uint(result.catalog_items))
             .Set("ndcg_k", Json::Uint(kDegradeNdcgK))
             .Set("chaos",
                  Json::Obj()
                      .Set("seed", Json::Uint(result.config.chaos_seed))
                      .Set("rate", Json::Num(result.config.chaos_rate)))
             .Set("cost_model",
                  Json::Obj()
                      .Set("base_batch_cost_ns", Json::Uint(kBaseBatchCostNs))
                      .Set("per_request_cost_ns", Json::Uint(kPerRequestCostNs))
                      .Set("chaos_spike_ns", Json::Uint(kChaosSpikeNs)))
             .Set("traffic",
                  Json::Obj()
                      .Set("num_sessions", Json::Uint(t.num_sessions))
                      .Set("num_requests", Json::Uint(t.num_requests))
                      .Set("zipf_exponent", Json::Num(t.zipf_exponent))
                      .Set("mean_interarrival_ns",
                           Json::Num(t.mean_interarrival_ns))
                      .Set("deadline_ns", Json::Uint(t.deadline_ns))
                      .Set("seed", Json::Uint(t.seed)))
             .Set("sweep", std::move(sweep))
             .Dump() +
         "\n";
}

Status CheckDegradeBench(const DegradeBenchResult& result,
                         double min_availability) {
  if (result.points.empty()) {
    return Status::InvalidArgument("degrade sweep must be non-empty");
  }
  // Negated range tests (!(lo <= x && x <= hi)) so a NaN fails them too.
  for (const DegradePoint& p : result.points) {
    if (!(p.availability >= 0.0 && p.availability <= 1.0) ||
        !(p.deadline_miss_rate >= 0.0 && p.deadline_miss_rate <= 1.0)) {
      return Status::InvalidArgument(
          "availability and deadline_miss_rate must lie in [0, 1]");
    }
    if (p.offered != p.served + p.shed_overflow + p.shed_deadline) {
      return Status::InvalidArgument(
          "offered must equal served + shed_overflow + shed_deadline");
    }
    if (p.p50_ns > p.p99_ns) {
      return Status::InvalidArgument("p50_ns must be <= p99_ns");
    }
    if (min_availability > 0.0 && p.availability < min_availability) {
      return Status::InvalidArgument(
          "availability below the required floor");
    }
    if (p.rung_served.empty() || p.rung_served.size() != p.rung_ndcg.size()) {
      return Status::InvalidArgument(
          "rung arrays must be non-empty and of equal length");
    }
    for (double v : p.rung_ndcg) {
      if (v != -1.0 && !(v >= 0.0 && v <= 1.0)) {
        return Status::InvalidArgument(
            "rung_ndcg entries must be -1 (unused) or in [0, 1]");
      }
    }
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace whitenrec

#include "bench/serving_harness.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/check.h"
#include "core/json.h"
#include "core/parallel.h"
#include "serve/latency_histogram.h"

namespace whitenrec {
namespace bench {

using serve::LatencyHistogram;
using serve::ServeRequest;

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One micro-batch cut from the trace: requests plus the virtual time the
// batcher releases it (window close, or the last arrival when flushed by
// size / when coalescing is off).
struct PlannedBatch {
  std::vector<ServeRequest> requests;
  std::vector<std::uint64_t> arrivals_ns;
  std::uint64_t release_ns = 0;
};

std::vector<PlannedBatch> PlanBatches(const std::vector<TraceRequest>& trace,
                                      std::uint64_t window_ns,
                                      std::size_t max_batch) {
  std::vector<PlannedBatch> batches;
  for (std::size_t i = 0; i < trace.size();) {
    PlannedBatch batch;
    if (window_ns == 0) {
      // Coalescing off: every request ships alone at its arrival.
      batch.requests.push_back(
          ServeRequest{trace[i].session_id, trace[i].item});
      batch.arrivals_ns.push_back(trace[i].arrival_ns);
      batch.release_ns = trace[i].arrival_ns;
      ++i;
    } else {
      const std::uint64_t window = trace[i].arrival_ns / window_ns;
      while (i < trace.size() && trace[i].arrival_ns / window_ns == window &&
             batch.requests.size() < max_batch) {
        batch.requests.push_back(
            ServeRequest{trace[i].session_id, trace[i].item});
        batch.arrivals_ns.push_back(trace[i].arrival_ns);
        ++i;
      }
      const std::uint64_t window_close = (window + 1) * window_ns;
      batch.release_ns = batch.requests.size() == max_batch
                             ? batch.arrivals_ns.back()
                             : window_close;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace

ServingBenchResult RunServingHarness(
    seqrec::SasRecModel* model,
    const std::vector<std::vector<std::size_t>>& sequences,
    const HarnessConfig& config) {
  WR_CHECK(model != nullptr);
  WR_CHECK(!config.batch_windows_ns.empty());
  WR_CHECK(!config.thread_counts.empty());

  const std::vector<TraceRequest> trace =
      GenerateTrace(sequences, config.traffic);

  ServingBenchResult result;
  result.config = config;
  result.hidden_dim = model->config().hidden_dim;

  const std::size_t saved_threads = core::NumThreads();
  for (std::size_t threads : config.thread_counts) {
    core::SetNumThreads(threads);
    for (std::uint64_t window_ns : config.batch_windows_ns) {
      serve::ServeConfig serve_config = config.serve;
      serve_config.batch_window_ns = window_ns;
      serve::RecommendService service(model, serve_config);
      result.catalog_items = service.num_items();

      const std::vector<PlannedBatch> batches =
          PlanBatches(trace, window_ns, serve_config.max_batch);

      LatencyHistogram latencies;
      std::uint64_t busy_ns = 0;
      std::uint64_t server_free_ns = 0;
      for (const PlannedBatch& batch : batches) {
        const std::uint64_t t0 = NowNs();
        const std::vector<serve::ServeResponse> responses =
            service.HandleBatch(batch.requests);
        const std::uint64_t duration_ns = NowNs() - t0;
        busy_ns += duration_ns;
        WR_CHECK_EQ(responses.size(), batch.requests.size());

        // Simulated single-server queue on the virtual clock: the batch
        // starts when its window closes AND the server is free; every
        // request in it completes together.
        const std::uint64_t start_ns =
            std::max(batch.release_ns, server_free_ns);
        const std::uint64_t completion_ns = start_ns + duration_ns;
        server_free_ns = completion_ns;
        LatencyHistogram batch_hist;
        for (std::uint64_t arrival_ns : batch.arrivals_ns) {
          batch_hist.Record(completion_ns - arrival_ns);
        }
        latencies.Merge(batch_hist);
      }

      SweepPoint point;
      point.batch_window_ns = window_ns;
      point.threads = threads;
      point.service_seconds = static_cast<double>(busy_ns) * 1e-9;
      point.qps = point.service_seconds > 0.0
                      ? static_cast<double>(trace.size()) /
                            point.service_seconds
                      : 0.0;
      point.p50_ns = latencies.Quantile(0.50);
      point.p99_ns = latencies.Quantile(0.99);
      point.p999_ns = latencies.Quantile(0.999);
      point.mean_ns = latencies.Mean();
      point.num_batches = batches.size();
      point.mean_batch_size =
          batches.empty() ? 0.0
                          : static_cast<double>(trace.size()) /
                                static_cast<double>(batches.size());
      const serve::ServeStats& stats = service.stats();
      point.cache_hit_rate =
          stats.requests == 0
              ? 0.0
              : static_cast<double>(stats.cache_hits) /
                    static_cast<double>(stats.requests);
      result.points.push_back(point);
    }
  }
  core::SetNumThreads(saved_threads);
  return result;
}

std::string ServingBenchJson(const ServingBenchResult& result) {
  using core::Json;
  const TrafficConfig& t = result.config.traffic;
  Json sweep = Json::Arr();
  for (const SweepPoint& p : result.points) {
    sweep.Push(Json::Obj()
                   .Set("batch_window_ns", Json::Uint(p.batch_window_ns))
                   .Set("threads", Json::Uint(p.threads))
                   .Set("qps", Json::Num(p.qps))
                   .Set("p50_ns", Json::Uint(p.p50_ns))
                   .Set("p99_ns", Json::Uint(p.p99_ns))
                   .Set("p999_ns", Json::Uint(p.p999_ns))
                   .Set("mean_ns", Json::Num(p.mean_ns))
                   .Set("num_batches", Json::Uint(p.num_batches))
                   .Set("mean_batch_size", Json::Num(p.mean_batch_size))
                   .Set("cache_hit_rate", Json::Num(p.cache_hit_rate))
                   .Set("service_seconds", Json::Num(p.service_seconds)));
  }
  return Json::Obj()
             .Set("bench", Json::Str("serving"))
             .Set("catalog_items", Json::Uint(result.catalog_items))
             .Set("hidden_dim", Json::Uint(result.hidden_dim))
             .Set("top_k", Json::Uint(result.config.serve.top_k))
             .Set("traffic",
                  Json::Obj()
                      .Set("num_sessions", Json::Uint(t.num_sessions))
                      .Set("num_requests", Json::Uint(t.num_requests))
                      .Set("zipf_exponent", Json::Num(t.zipf_exponent))
                      .Set("mean_interarrival_ns",
                           Json::Num(t.mean_interarrival_ns))
                      .Set("seed", Json::Uint(t.seed)))
             .Set("sweep", std::move(sweep))
             .Dump() +
         "\n";
}

Status CheckServingBench(const ServingBenchResult& result) {
  if (result.points.empty()) {
    return Status::InvalidArgument("serving sweep must be non-empty");
  }
  for (const SweepPoint& p : result.points) {
    if (!(p.p50_ns <= p.p99_ns && p.p99_ns <= p.p999_ns)) {
      return Status::InvalidArgument(
          "latency percentiles must be non-decreasing (p50 <= p99 <= p999)");
    }
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace whitenrec

#ifndef WHITENREC_BENCH_SERVING_HARNESS_H_
#define WHITENREC_BENCH_SERVING_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/traffic.h"
#include "core/status.h"
#include "seqrec/model.h"
#include "serve/service.h"

namespace whitenrec {
namespace bench {

// One (batch window, thread count) sweep point of the serving benchmark.
struct SweepPoint {
  std::uint64_t batch_window_ns = 0;
  std::size_t threads = 0;
  double qps = 0.0;  // requests / total service-busy seconds
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  double mean_ns = 0.0;
  std::size_t num_batches = 0;
  double mean_batch_size = 0.0;
  double cache_hit_rate = 0.0;
  double service_seconds = 0.0;  // wall time spent inside HandleBatch
};

struct HarnessConfig {
  TrafficConfig traffic;
  serve::ServeConfig serve;  // batch_window_ns is overridden per sweep point
  std::vector<std::uint64_t> batch_windows_ns = {0, 100000, 1000000};
  std::vector<std::size_t> thread_counts = {1};
};

struct ServingBenchResult {
  HarnessConfig config;
  std::size_t catalog_items = 0;
  std::size_t hidden_dim = 0;
  std::vector<SweepPoint> points;
};

// Replays a deterministic synthetic trace through a RecommendService at
// every (window, threads) combination, micro-batching requests by virtual
// arrival window (a batch flushes when its window closes or it reaches
// max_batch). Latency accounting uses a simulated single-server queue:
//   start      = max(window close, server free)   [virtual ns]
//   completion = start + measured batch duration  [real ns]
//   latency    = completion - arrival
// so queueing delay from the batching window and from server busy time both
// show up in the percentiles while the service cost itself is measured.
// Responses are discarded after a checksum — the determinism tests, not the
// harness, assert bitwise equality. Per-batch latencies are recorded into
// per-batch histograms merged in order (exercising Merge on the hot path).
ServingBenchResult RunServingHarness(
    seqrec::SasRecModel* model,
    const std::vector<std::vector<std::size_t>>& sequences,
    const HarnessConfig& config);

// Renders the result as the out/BENCH_serving.json document: the schema's
// one definition.
std::string ServingBenchJson(const ServingBenchResult& result);

// The rules a sweep must meet before its report is trusted: a non-empty
// sweep, and p50 <= p99 <= p999 at every point.
Status CheckServingBench(const ServingBenchResult& result);

}  // namespace bench
}  // namespace whitenrec

#endif  // WHITENREC_BENCH_SERVING_HARNESS_H_

// Serving benchmark: trains a WhitenRec model, then drives the online
// serving core (serve/) with deterministic synthetic traffic across a
// sweep of micro-batch windows and thread counts, exercises the item-ingest
// refit path, and writes out/BENCH_serving.json (read back and parsed by
// bench::WriteArtifact; the sweep must pass bench::CheckServingBench).
//
// Knobs: --threads, WHITENREC_THREADS, WHITENREC_SCALE, WHITENREC_EPOCHS,
// WHITENREC_OUT_DIR and WHITENREC_SERVE_REQUESTS (trace length, default
// 4096 * scale). The service runs at ServeConfig::Defaults().

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/artifact.h"
#include "bench/serving_harness.h"
#include "bench_common.h"
#include "seqrec/baselines.h"

namespace whitenrec {
namespace {

int Run(int argc, char** argv) {
  const std::size_t threads = bench::ApplyThreadsFlag(argc, argv);
  const double scale = bench::EnvScale();

  data::GeneratedData data = bench::LoadDataset(data::ToysProfile(scale));
  const data::Split split = data::LeaveOneOutSplit(data.dataset);
  const seqrec::SasRecConfig model_config = bench::DefaultModelConfig();
  WhitenRecConfig wconfig;
  wconfig.out_dim = model_config.hidden_dim;

  std::printf("[train] WhitenRec for serving ...\n");
  auto rec = seqrec::MakeWhitenRec(data.dataset, model_config, wconfig);
  rec->Fit(split, bench::DefaultTrainConfig());
  seqrec::SasRecModel* model = rec->model();

  // Exercise the online ingest path before the sweep: stream in a handful of
  // new items (perturbed copies of real embeddings) and force a refit so the
  // served catalog includes them.
  serve::ServeConfig serve_config = serve::ServeConfig::Defaults();
  serve::RecommendService ingest_service(model, serve_config);
  const std::size_t before_items = ingest_service.num_items();
  Status armed = ingest_service.EnableIngest(data.dataset.text_embeddings,
                                             wconfig.whitening,
                                             wconfig.epsilon);
  std::size_t ingested = 0;
  if (armed.ok()) {
    linalg::Rng rng(1234);
    const std::size_t d = data.dataset.text_embeddings.cols();
    for (std::size_t i = 0; i < 8; ++i) {
      std::vector<double> feature =
          data.dataset.text_embeddings.Row(i % before_items);
      for (std::size_t c = 0; c < d; ++c) feature[c] += rng.Gaussian() * 0.01;
      if (!ingest_service.IngestItem(feature).ok()) break;
      ++ingested;
    }
    if (!ingest_service.RefitNow().ok()) {
      std::fprintf(stderr, "[serve] refit failed\n");
      return 1;
    }
  } else {
    std::fprintf(stderr, "[serve] ingest disabled: %s\n",
                 armed.message().c_str());
  }
  std::printf("[serve] catalog %zu -> %zu items after ingesting %zu\n",
              before_items, ingest_service.num_items(), ingested);

  bench::HarnessConfig harness;
  harness.serve = serve_config;
  harness.traffic.num_sessions = data.dataset.sequences.size();
  harness.traffic.num_requests = core::EnvSize(
      "WHITENREC_SERVE_REQUESTS", static_cast<std::size_t>(4096 * scale));
  harness.batch_windows_ns = {0, 100000, 1000000, 10000000};
  harness.thread_counts = {1, threads};
  if (threads == 1) harness.thread_counts = {1};

  std::printf("[serve] sweeping %zu windows x %zu thread counts over %zu "
              "requests ...\n",
              harness.batch_windows_ns.size(), harness.thread_counts.size(),
              harness.traffic.num_requests);
  const bench::ServingBenchResult result =
      bench::RunServingHarness(model, data.dataset.sequences, harness);

  for (const bench::SweepPoint& p : result.points) {
    std::printf(
        "[serve] window=%9lluns threads=%zu qps=%10.1f p50=%8lluns "
        "p99=%8lluns p999=%8lluns hit=%.3f batch=%.1f\n",
        static_cast<unsigned long long>(p.batch_window_ns), p.threads, p.qps,
        static_cast<unsigned long long>(p.p50_ns),
        static_cast<unsigned long long>(p.p99_ns),
        static_cast<unsigned long long>(p.p999_ns), p.cache_hit_rate,
        p.mean_batch_size);
  }

  Status s = bench::WriteArtifact(bench::OutPath("BENCH_serving.json"),
                                  bench::ServingBenchJson(result));
  if (s.ok()) s = bench::CheckServingBench(result);
  return bench::ExitCode("BENCH_serving.json", s);
}

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) { return whitenrec::Run(argc, argv); }

// Degradation benchmark: trains a WhitenRec model, then drives the
// overload-resilient serving path (admission queue + degradation ladder +
// poisoned-ingest fault stream) across load multipliers on the virtual
// clock, with the chaos plane injecting latency spikes, corrupted ingest
// rows, and refit failures. Writes out/BENCH_degrade.json (read back and
// parsed by bench::WriteArtifact); the sweep must pass
// bench::CheckDegradeBench, including the availability floor at every load
// point.
//
// Knobs: --threads, WHITENREC_THREADS, WHITENREC_SCALE, WHITENREC_EPOCHS,
// WHITENREC_OUT_DIR, WHITENREC_DEGRADE_REQUESTS (trace length, default
// 2048 * scale), and the WHITENREC_CHAOS_{SEED,RATE} pair (default here:
// seed 42, rate 0.25 — the acceptance operating point).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/artifact.h"
#include "bench/degrade_harness.h"
#include "bench_common.h"
#include "seqrec/baselines.h"

namespace whitenrec {
namespace {

int Run(int argc, char** argv) {
  bench::ApplyThreadsFlag(argc, argv);
  const double scale = bench::EnvScale();

  data::GeneratedData data = bench::LoadDataset(data::ToysProfile(scale));
  const data::Split split = data::LeaveOneOutSplit(data.dataset);
  const seqrec::SasRecConfig model_config = bench::DefaultModelConfig();
  WhitenRecConfig wconfig;
  wconfig.out_dim = model_config.hidden_dim;

  std::printf("[train] WhitenRec for degradation sweep ...\n");
  auto rec = seqrec::MakeWhitenRec(data.dataset, model_config, wconfig);
  rec->Fit(split, bench::DefaultTrainConfig());
  seqrec::SasRecModel* model = rec->model();

  bench::DegradeConfig config;
  // The acceptance operating point is seed 42 at 25% chaos; either knob
  // overrides its half.
  config.chaos_seed = core::EnvU64("WHITENREC_CHAOS_SEED", 42);
  config.chaos_rate = core::EnvDouble("WHITENREC_CHAOS_RATE", 0.25, 0.0, 1.0);
  config.traffic.num_sessions = data.dataset.sequences.size();
  config.traffic.num_requests = core::EnvSize(
      "WHITENREC_DEGRADE_REQUESTS", static_cast<std::size_t>(2048 * scale));
  config.traffic.mean_interarrival_ns = 100000;  // 10k rps offered at 1x
  config.traffic.deadline_ns = 20000000;         // 20 ms per request
  config.serve.max_batch = 64;
  config.serve.queue_max = 256;
  // Refit often enough that the sweep also exercises the refit guard (and,
  // under chaos, the refit drop) even at the short check-degrade trace
  // length, where only ~a dozen rows survive the corrupt-ingest chaos.
  config.serve.refit_every = 8;
  Result<std::vector<serve::LadderRung>> rungs =
      serve::ParseLadderSpec("exact,ivf:8,ivf:2,popularity");
  config.serve.ladder.rungs = std::move(rungs).ValueOrDie();
  // Popularity counts from the training sequences back the bottom rung.
  std::vector<std::size_t> popularity(data.dataset.num_items, 0);
  for (const std::vector<std::size_t>& seq : data.dataset.sequences) {
    for (std::size_t item : seq) ++popularity[item];
  }
  config.serve.popularity = std::move(popularity);
  config.load_multipliers = {1.0, 2.0, 4.0};
  config.ingest_every = 64;
  config.ingest_kind = wconfig.whitening;
  config.ingest_epsilon = wconfig.epsilon;

  std::printf("[degrade] sweeping %zu load multipliers over %zu requests "
              "(chaos rate %.2f) ...\n",
              config.load_multipliers.size(), config.traffic.num_requests,
              config.chaos_rate);
  const bench::DegradeBenchResult result = bench::RunDegradeHarness(
      model, data.dataset.sequences, &data.dataset.text_embeddings, config);

  for (const bench::DegradePoint& p : result.points) {
    std::printf(
        "[degrade] load=%.1fx offered=%zu served=%zu shed=%zu+%zu "
        "avail=%.4f miss=%.4f p99=%lluns quarantined=%zu rollbacks=%zu\n",
        p.load_multiplier, p.offered, p.served, p.shed_overflow,
        p.shed_deadline, p.availability, p.deadline_miss_rate,
        static_cast<unsigned long long>(p.p99_ns), p.quarantined, p.rollbacks);
    for (std::size_t r = 0; r < p.rung_served.size(); ++r) {
      std::printf("[degrade]   rung %zu (%s): served=%zu ndcg@%zu=%.4f\n", r,
                  serve::RungKindName(config.serve.ladder.rungs[r].kind),
                  p.rung_served[r], bench::kDegradeNdcgK, p.rung_ndcg[r]);
    }
  }

  // The acceptance floor: >= 99% availability at every load point, the 4x
  // overload one included.
  Status s = bench::WriteArtifact(bench::OutPath("BENCH_degrade.json"),
                                  bench::DegradeBenchJson(result));
  if (s.ok()) s = bench::CheckDegradeBench(result, /*min_availability=*/0.99);
  return bench::ExitCode("BENCH_degrade.json", s);
}

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) { return whitenrec::Run(argc, argv); }

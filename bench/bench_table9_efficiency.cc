// Reproduces paper Table IX: efficiency on the Tools dataset — parameter
// counts and seconds per epoch for UniSRec, WhitenRec and WhitenRec+ in
// their text-only (T) and text+ID (T+ID) variants. Each model is timed
// twice: once single-threaded and once at the configured worker count
// (`--threads N`, default WHITENREC_THREADS), so the table doubles as a
// thread-scaling report for the training hot path.

#include <functional>
#include <memory>

#include "bench/artifact.h"
#include "bench_common.h"
#include "core/json.h"
#include "core/parallel.h"
#include "seqrec/baselines.h"
#include "seqrec/trainer.h"

int main(int argc, char** argv) {
  using namespace whitenrec;
  const std::size_t threads = bench::ApplyThreadsFlag(argc, argv);
  const data::GeneratedData gen =
      bench::LoadDataset(data::ToolsProfile(bench::EnvScale()));
  const data::Dataset& ds = gen.dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);
  const seqrec::SasRecConfig mc = bench::DefaultModelConfig();
  seqrec::TrainConfig tc = bench::DefaultTrainConfig();
  tc.epochs = 3;  // timing only needs a few epochs
  tc.patience = 100;

  std::printf("\n=== Table IX - Efficiency (Tools), %zu worker thread(s) ===\n",
              threads);
  std::printf("%-22s%12s%14s%14s%10s\n", "model", "#params", "s/epoch(1T)",
              "s/epoch(NT)", "speedup");
  WhitenRecConfig wc;
  using core::Json;
  Json rows = Json::Arr();
  // Each model is fitted fresh at one thread, then at `threads`; the pool
  // ends each call back at `threads`, the setting the flag asked for.
  auto run = [&](const std::function<
                 std::unique_ptr<seqrec::TrainableRecommender>()>& factory) {
    core::SetNumThreads(1);
    const double s1 = factory()->Fit(split, tc).avg_epoch_seconds;
    core::SetNumThreads(threads);
    auto recn = factory();
    const double sn = recn->Fit(split, tc).avg_epoch_seconds;
    std::printf("%-22s%12zu%14.3f%14.3f%9.2fx\n", recn->name().c_str(),
                recn->NumParameters(), s1, sn, sn > 0.0 ? s1 / sn : 0.0);
    rows.Push(Json::Obj()
                  .Set("model", Json::Str(recn->name()))
                  .Set("params", Json::Uint(recn->NumParameters()))
                  .Set("sec_per_epoch_1t", Json::Num(s1))
                  .Set("sec_per_epoch_nt", Json::Num(sn))
                  .Set("speedup", Json::Num(sn > 0.0 ? s1 / sn : 0.0)));
  };
  run([&] { return seqrec::MakeUniSRec(ds, mc, /*with_id=*/false); });
  run([&] { return seqrec::MakeUniSRec(ds, mc, /*with_id=*/true); });
  run([&] { return seqrec::MakeWhitenRec(ds, mc, wc, /*with_id=*/false); });
  run([&] { return seqrec::MakeWhitenRec(ds, mc, wc, /*with_id=*/true); });
  run([&] { return seqrec::MakeWhitenRecPlus(ds, mc, wc, /*with_id=*/false); });
  run([&] { return seqrec::MakeWhitenRecPlus(ds, mc, wc, /*with_id=*/true); });

  Json doc = Json::Obj();
  doc.Set("bench", Json::Str("table9_efficiency"));
  doc.Set("dataset", Json::Str("Tools"));
  doc.Set("scale", Json::Num(bench::EnvScale()));
  doc.Set("epochs", Json::Uint(tc.epochs));
  doc.Set("threads", Json::Uint(threads));
  doc.Set("rows", std::move(rows));
  return bench::ExitCode(
      "BENCH_efficiency.json",
      bench::WriteArtifact(bench::OutPath("BENCH_efficiency.json"),
                           doc.Dump() + "\n"));
}

// Reproduces paper Table IX: efficiency on the Tools dataset — parameter
// counts and seconds per epoch for UniSRec, WhitenRec and WhitenRec+ in
// their text-only (T) and text+ID (T+ID) variants. Each model is timed
// twice: once single-threaded and once at the configured worker count
// (`--threads N`, default WHITENREC_THREADS), so the table doubles as a
// thread-scaling report for the training hot path.

#include "bench_common.h"
#include "bench_json.h"
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
  bench::Json rows = bench::Json::Arr();
  auto run = [&](auto factory) {
    seqrec::TrainConfig serial = tc;
    serial.num_threads = 1;
    seqrec::TrainConfig parallel = tc;
    parallel.num_threads = threads;
    auto rec1 = factory();
    const double s1 = rec1->Fit(split, serial).avg_epoch_seconds;
    auto recn = factory();
    const double sn = recn->Fit(split, parallel).avg_epoch_seconds;
    std::printf("%-22s%12zu%14.3f%14.3f%9.2fx\n", recn->name().c_str(),
                recn->NumParameters(), s1, sn, sn > 0.0 ? s1 / sn : 0.0);
    rows.Push(bench::Json::Obj()
                  .Set("model", bench::Json::Str(recn->name()))
                  .Set("params",
                       bench::Json::Int(
                           static_cast<long long>(recn->NumParameters())))
                  .Set("sec_per_epoch_1t", bench::Json::Num(s1))
                  .Set("sec_per_epoch_nt", bench::Json::Num(sn))
                  .Set("speedup", bench::Json::Num(sn > 0.0 ? s1 / sn : 0.0)));
  };
  run([&] { return seqrec::MakeUniSRec(ds, mc, /*with_id=*/false); });
  run([&] { return seqrec::MakeUniSRec(ds, mc, /*with_id=*/true); });
  run([&] { return seqrec::MakeWhitenRec(ds, mc, wc, /*with_id=*/false); });
  run([&] { return seqrec::MakeWhitenRec(ds, mc, wc, /*with_id=*/true); });
  run([&] { return seqrec::MakeWhitenRecPlus(ds, mc, wc, /*with_id=*/false); });
  run([&] { return seqrec::MakeWhitenRecPlus(ds, mc, wc, /*with_id=*/true); });

  bench::Json doc = bench::Json::Obj();
  doc.Set("bench", bench::Json::Str("table9_efficiency"));
  doc.Set("dataset", bench::Json::Str("Tools"));
  doc.Set("scale", bench::Json::Num(bench::EnvScale()));
  doc.Set("epochs", bench::Json::Int(static_cast<long long>(tc.epochs)));
  doc.Set("threads", bench::Json::Int(static_cast<long long>(threads)));
  doc.Set("rows", std::move(rows));
  bench::WriteJsonFile("BENCH_efficiency.json", doc);
  return 0;
}

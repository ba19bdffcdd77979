// Reproduces paper Table III: warm-start comparison of all models on the
// four dataset profiles (R@20, R@50, N@20, N@50). Models: GRCN, BM3,
// SASRec^ID, CL4SRec, SASRec^T, SASRec^{T+ID}, S3-Rec, FDSA, UniSRec^T,
// UniSRec^{T+ID}, VQRec, WhitenRec, WhitenRec+.

#include <memory>

#include "bench_common.h"
#include "seqrec/baselines.h"
#include "seqrec/general_rec.h"

namespace whitenrec {
namespace {

void RunDataset(const data::DatasetProfile& profile) {
  const data::GeneratedData gen = bench::LoadDataset(profile);
  const data::Dataset& ds = gen.dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);
  const seqrec::SasRecConfig mc = bench::DefaultModelConfig();
  const seqrec::TrainConfig tc = bench::DefaultTrainConfig();

  bench::PrintHeader("Table III - " + profile.name,
                     {"R@20", "R@50", "N@20", "N@50"});

  auto report = [&](const std::string& name, const seqrec::EvalResult& r) {
    bench::PrintRow(name, {r.recall20, r.recall50, r.ndcg20, r.ndcg50});
  };

  auto run = [&](std::unique_ptr<seqrec::TrainableRecommender> rec) {
    report(rec->name(), bench::FitAndEvaluate(rec.get(), split, tc, mc.max_len));
  };
  // General recommenders with text features.
  run(seqrec::MakeGrcn(ds, mc.hidden_dim));
  run(seqrec::MakeBm3(ds, mc.hidden_dim));
  // Sequential models.
  WhitenRecConfig wc;
  run(seqrec::MakeSasRecId(ds, mc));
  run(seqrec::MakeCl4SRec(ds, mc));
  run(seqrec::MakeSasRecText(ds, mc));
  run(seqrec::MakeSasRecTextId(ds, mc));
  run(seqrec::MakeS3Rec(ds, mc));
  run(seqrec::MakeFdsa(ds, mc));
  run(seqrec::MakeUniSRec(ds, mc, /*with_id=*/false));
  run(seqrec::MakeUniSRec(ds, mc, /*with_id=*/true));
  run(seqrec::MakeVqRec(ds, mc));
  run(seqrec::MakeWhitenRec(ds, mc, wc));
  run(seqrec::MakeWhitenRecPlus(ds, mc, wc));
}

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) {
  whitenrec::bench::ApplyThreadsFlag(argc, argv);
  const double scale = whitenrec::bench::EnvScale();
  for (const auto& profile : whitenrec::data::AllProfiles(scale)) {
    whitenrec::RunDataset(profile);
  }
  return 0;
}

// Extension beyond the paper's tables: pits whitened-text models against
// the other ID-based sequence-encoder families from the paper's related
// work — RNNs (GRU4Rec) and bidirectional Transformers (BERT4Rec) — to show
// the "are ID embeddings necessary?" conclusion is not an artifact of the
// SASRec backbone choice.

#include <memory>

#include "bench_common.h"
#include "seqrec/baselines.h"
#include "seqrec/classic_baselines.h"
#include "seqrec/extended_baselines.h"

namespace whitenrec {
namespace {

void RunDataset(const data::DatasetProfile& profile) {
  const data::GeneratedData gen = bench::LoadDataset(profile);
  const data::Dataset& ds = gen.dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);
  const seqrec::SasRecConfig mc = bench::DefaultModelConfig();
  const seqrec::TrainConfig tc = bench::DefaultTrainConfig();

  bench::PrintHeader("Extension - " + profile.name + " (encoder families)",
                     {"R@20", "N@20", "R@50", "N@50"});
  auto report = [&](const std::string& name, const seqrec::EvalResult& r) {
    bench::PrintRow(name, {r.recall20, r.ndcg20, r.recall50, r.ndcg50});
  };

  auto run = [&](std::unique_ptr<seqrec::TrainableRecommender> rec) {
    report(rec->name(), bench::FitAndEvaluate(rec.get(), split, tc, mc.max_len));
  };
  run(seqrec::MakeFpmc(ds, mc.hidden_dim));
  run(seqrec::MakeCaser(ds, mc));
  run(seqrec::MakeGru4Rec(ds, mc));
  run(seqrec::MakeBert4Rec(ds, mc));
  run(seqrec::MakeSasRecId(ds, mc));
  WhitenRecConfig wc;
  run(seqrec::MakeWhitenRecPlus(ds, mc, wc));
}

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) {
  whitenrec::bench::ApplyThreadsFlag(argc, argv);
  const double scale = whitenrec::bench::EnvScale();
  whitenrec::RunDataset(whitenrec::data::ArtsProfile(scale));
  whitenrec::RunDataset(whitenrec::data::FoodProfile(scale));
  return 0;
}

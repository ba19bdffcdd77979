// Model zoo: trains every recommender in the library briefly on one small
// profile and prints a comparison table — a smoke-testable tour of the
// public model factories (ID / text / whitened / ensembles / baselines).

#include <cstdio>
#include <memory>

#include "data/generator.h"
#include "data/split.h"
#include "seqrec/baselines.h"
#include "seqrec/general_rec.h"

int main() {
  using namespace whitenrec;

  data::DatasetProfile profile = data::ArtsProfile(0.5);
  const data::GeneratedData gen = data::GenerateDataset(profile);
  const data::Dataset& ds = gen.dataset;
  const data::Split split = data::LeaveOneOutSplit(ds);

  seqrec::SasRecConfig mc;
  mc.hidden_dim = 32;
  mc.max_len = 12;
  seqrec::TrainConfig tc;
  tc.epochs = 6;

  std::printf("%-20s%10s%10s%12s\n", "model", "R@20", "N@20", "#params");

  // Every model's Fit runs the same training loop; one generic path serves
  // them all.
  auto run = [&](std::unique_ptr<seqrec::TrainableRecommender> rec) {
    rec->Fit(split, tc);
    const seqrec::EvalResult r = seqrec::EvaluateRanking(
        rec.get(), split.test, split.train, mc.max_len);
    std::printf("%-20s%10.4f%10.4f%12zu\n", rec->name().c_str(), r.recall20,
                r.ndcg20, rec->NumParameters());
  };

  WhitenRecConfig wc;
  run(seqrec::MakeSasRecId(ds, mc));
  run(seqrec::MakeSasRecText(ds, mc));
  run(seqrec::MakeSasRecTextId(ds, mc));
  run(seqrec::MakeCl4SRec(ds, mc));
  run(seqrec::MakeS3Rec(ds, mc));
  run(seqrec::MakeUniSRec(ds, mc, false));
  run(seqrec::MakeVqRec(ds, mc));
  run(seqrec::MakeWhitenRec(ds, mc, wc));
  run(seqrec::MakeWhitenRecPlus(ds, mc, wc));
  run(seqrec::MakeFdsa(ds, mc));
  run(seqrec::MakeGrcn(ds, mc.hidden_dim));
  run(seqrec::MakeBm3(ds, mc.hidden_dim));
  return 0;
}

#ifndef WHITENREC_TESTS_ALL_MODELS_H_
#define WHITENREC_TESTS_ALL_MODELS_H_

// Every model factory of the library, by name, for the suites that sweep
// all seventeen models through the one TrainableRecommender interface.

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "seqrec/baselines.h"
#include "seqrec/classic_baselines.h"
#include "seqrec/extended_baselines.h"
#include "seqrec/general_rec.h"
#include "seqrec/trainer.h"
#include "whitening/whiten_encoder.h"

namespace whitenrec {

struct ModelFactory {
  std::string name;
  std::function<std::unique_ptr<seqrec::TrainableRecommender>(
      const data::Dataset&)>
      make;
};

inline void PrintTo(const ModelFactory& factory, std::ostream* os) {
  *os << factory.name;
}

// The 17 factories built at `config`; FPMC, GRCN and BM3 take its
// hidden_dim as their factor size.
inline std::vector<ModelFactory> AllModelFactories(
    const seqrec::SasRecConfig& config) {
  using Dataset = data::Dataset;
  const std::size_t dim = config.hidden_dim;
  return {
      {"SasRecId",
       [config](const Dataset& ds) { return seqrec::MakeSasRecId(ds, config); }},
      {"SasRecText",
       [config](const Dataset& ds) {
         return seqrec::MakeSasRecText(ds, config);
       }},
      {"SasRecTextId",
       [config](const Dataset& ds) {
         return seqrec::MakeSasRecTextId(ds, config);
       }},
      {"WhitenRec",
       [config](const Dataset& ds) {
         return seqrec::MakeWhitenRec(ds, config, WhitenRecConfig());
       }},
      {"WhitenRecPlus",
       [config](const Dataset& ds) {
         return seqrec::MakeWhitenRecPlus(ds, config, WhitenRecConfig());
       }},
      {"UniSRec",
       [config](const Dataset& ds) {
         return seqrec::MakeUniSRec(ds, config, /*with_id=*/false);
       }},
      {"UniSRecTextId",
       [config](const Dataset& ds) {
         return seqrec::MakeUniSRec(ds, config, /*with_id=*/true);
       }},
      {"Cl4SRec",
       [config](const Dataset& ds) { return seqrec::MakeCl4SRec(ds, config); }},
      {"S3Rec",
       [config](const Dataset& ds) { return seqrec::MakeS3Rec(ds, config); }},
      {"VqRec",
       [config](const Dataset& ds) { return seqrec::MakeVqRec(ds, config); }},
      {"Fdsa",
       [config](const Dataset& ds) { return seqrec::MakeFdsa(ds, config); }},
      {"Gru4Rec",
       [config](const Dataset& ds) { return seqrec::MakeGru4Rec(ds, config); }},
      {"Bert4Rec",
       [config](const Dataset& ds) {
         return seqrec::MakeBert4Rec(ds, config);
       }},
      {"Fpmc", [dim](const Dataset& ds) { return seqrec::MakeFpmc(ds, dim); }},
      {"Caser",
       [config](const Dataset& ds) { return seqrec::MakeCaser(ds, config); }},
      {"Grcn", [dim](const Dataset& ds) { return seqrec::MakeGrcn(ds, dim); }},
      {"Bm3", [dim](const Dataset& ds) { return seqrec::MakeBm3(ds, dim); }},
  };
}

}  // namespace whitenrec

#endif  // WHITENREC_TESTS_ALL_MODELS_H_

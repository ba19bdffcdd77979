// Configurable experiment runner: train any model in the library on any
// dataset profile (or a dataset loaded from TSV files) from the command
// line, evaluate with full ranking, and optionally checkpoint the result.
//
//   experiment_cli --dataset=arts --model=whitenrec+ --epochs=12
//   experiment_cli --dataset=food --model=sasrec_id --hidden=32 --scale=1.5
//   experiment_cli --data-prefix=/path/ds --model=whitenrec --groups=8
//   experiment_cli --dataset=tools --model=whitenrec+ --cold
//
// `--help` lists the 17 model names (the kModels table below).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/parallel.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/split.h"
#include "nn/serialize.h"
#include "seqrec/baselines.h"
#include "seqrec/classic_baselines.h"
#include "seqrec/extended_baselines.h"
#include "seqrec/general_rec.h"

namespace {

using namespace whitenrec;

// Minimal --key=value parser.
std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      // Move-assign a temporary: GCC 12 reports a spurious -Wrestrict on the
      // inlined operator=(const char*) path here.
      args[arg] = std::string("1");
    } else {
      args[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
  return args;
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

// Strict flag parsing (core/env.h): a malformed value exits naming the flag
// instead of silently becoming 0 or a wrapped integer.
template <typename T>
T Flag(const std::map<std::string, std::string>& args, const std::string& key,
       const std::string& fallback,
       Result<T> (*parse)(const std::string&)) {
  return core::OrExit(("--" + key).c_str(), parse(Get(args, key, fallback)));
}

double DoubleFlag(const std::map<std::string, std::string>& args,
                  const std::string& key, const std::string& fallback) {
  return core::OrExit(("--" + key).c_str(),
                      core::ParseDouble(Get(args, key, fallback), 0.0, 1000.0));
}

std::size_t ChoiceFlag(const std::map<std::string, std::string>& args,
                       const std::string& key,
                       const std::vector<std::string>& choices) {
  return core::OrExit(("--" + key).c_str(),
                      core::ParseChoice(Get(args, key, choices[0]), choices));
}

// Every model the runner trains, by --model name; the first is the default.
// FPMC, GRCN and BM3 take --hidden as their factor size, and only the two
// WhitenRec models read --groups and --whitening.
struct ModelArgs {
  const data::Dataset& ds;
  const seqrec::SasRecConfig& mc;
  const WhitenRecConfig& wc;
};
using Model = std::unique_ptr<seqrec::TrainableRecommender>;

struct ModelEntry {
  const char* name;
  Model (*make)(const ModelArgs&);
};

const ModelEntry kModels[] = {
    {"whitenrec+",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeWhitenRecPlus(a.ds, a.mc, a.wc);
     }},
    {"whitenrec",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeWhitenRec(a.ds, a.mc, a.wc);
     }},
    {"sasrec_id",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeSasRecId(a.ds, a.mc);
     }},
    {"sasrec_t",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeSasRecText(a.ds, a.mc);
     }},
    {"sasrec_tid",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeSasRecTextId(a.ds, a.mc);
     }},
    {"cl4srec",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeCl4SRec(a.ds, a.mc);
     }},
    {"s3rec",
     [](const ModelArgs& a) -> Model { return seqrec::MakeS3Rec(a.ds, a.mc); }},
    {"unisrec",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeUniSRec(a.ds, a.mc, /*with_id=*/false);
     }},
    {"unisrec_tid",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeUniSRec(a.ds, a.mc, /*with_id=*/true);
     }},
    {"vqrec",
     [](const ModelArgs& a) -> Model { return seqrec::MakeVqRec(a.ds, a.mc); }},
    {"fdsa",
     [](const ModelArgs& a) -> Model { return seqrec::MakeFdsa(a.ds, a.mc); }},
    {"gru4rec",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeGru4Rec(a.ds, a.mc);
     }},
    {"bert4rec",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeBert4Rec(a.ds, a.mc);
     }},
    {"fpmc",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeFpmc(a.ds, a.mc.hidden_dim);
     }},
    {"caser",
     [](const ModelArgs& a) -> Model { return seqrec::MakeCaser(a.ds, a.mc); }},
    {"grcn",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeGrcn(a.ds, a.mc.hidden_dim);
     }},
    {"bm3",
     [](const ModelArgs& a) -> Model {
       return seqrec::MakeBm3(a.ds, a.mc.hidden_dim);
     }},
};

std::vector<std::string> ModelNames() {
  std::vector<std::string> names;
  for (const ModelEntry& entry : kModels) names.emplace_back(entry.name);
  return names;
}

void PrintEval(const char* split_name, const seqrec::EvalResult& r) {
  std::printf("%s (%zu instances): R@20 %.4f  N@20 %.4f  R@50 %.4f  N@50 "
              "%.4f\n",
              split_name, r.count, r.recall20, r.ndcg20, r.recall50, r.ndcg50);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  const std::vector<std::string> model_names = ModelNames();
  if (args.count("help")) {
    std::printf(
        "usage: experiment_cli [--dataset=arts|toys|tools|food] "
        "[--data-prefix=PATH]\n"
        "  [--model=NAME] [--epochs=N] [--scale=F] [--hidden=N] "
        "[--groups=N]\n"
        "  [--whitening=zca|pca|cd|bn] [--lr=F] [--cold] [--seed=N]\n"
        "  [--threads=N] [--save-checkpoint=PATH] [--export-data=PREFIX]\n"
        "  [--checkpoint-dir=DIR] [--checkpoint-every=N] [--resume]\n"
        "models (default first):\n ");
    for (const std::string& name : model_names) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
    return 0;
  }
  // Checked before any dataset is generated or loaded.
  const ModelEntry& model = kModels[ChoiceFlag(args, "model", model_names)];

  // --- Threads -----------------------------------------------------------
  // Worker threads for the parallel kernels; 0 = hardware concurrency.
  // Results are bitwise identical at any setting (see DESIGN.md).
  if (args.count("threads")) {
    core::SetNumThreads(Flag(args, "threads", "1", core::ParseSize));
  }
  std::printf("worker threads: %zu\n", core::NumThreads());

  // --- Dataset -----------------------------------------------------------
  data::Dataset dataset;
  const std::string data_prefix = Get(args, "data-prefix", "");
  if (!data_prefix.empty()) {
    auto loaded = data::LoadDataset(data_prefix);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load dataset: %s\n",
                   loaded.status().message().c_str());
      return 1;
    }
    dataset = std::move(loaded).ValueOrDie();
  } else {
    const std::size_t name =
        ChoiceFlag(args, "dataset", {"arts", "toys", "tools", "food"});
    const double scale = DoubleFlag(args, "scale", "1.0");
    data::DatasetProfile profile =
        name == 1   ? data::ToysProfile(scale)
        : name == 2 ? data::ToolsProfile(scale)
        : name == 3 ? data::FoodProfile(scale)
                    : data::ArtsProfile(scale);
    dataset = data::GenerateDataset(profile).dataset;
  }
  const data::DatasetStats stats = data::ComputeStats(dataset);
  std::printf("dataset %s: %zu users, %zu items, %zu interactions\n",
              dataset.name.c_str(), stats.num_users, stats.num_items,
              stats.num_interactions);

  const std::string export_prefix = Get(args, "export-data", "");
  if (!export_prefix.empty()) {
    const Status st = data::SaveDataset(dataset, export_prefix);
    if (!st.ok()) {
      std::fprintf(stderr, "export failed: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("dataset exported to %s.{meta,sequences,items}\n",
                export_prefix.c_str());
  }

  // --- Split -------------------------------------------------------------
  data::Split split;
  if (args.count("cold")) {
    linalg::Rng rng(Flag(args, "seed", "9", core::ParseU64));
    split = data::ColdStartSplit(dataset, 0.15, &rng).split;
    std::printf("cold-start split: %zu cold test instances\n",
                split.test.size());
  } else {
    split = data::LeaveOneOutSplit(dataset);
  }

  // --- Model -------------------------------------------------------------
  seqrec::SasRecConfig mc;
  mc.hidden_dim = Flag(args, "hidden", "32", core::ParseSize);
  mc.seed = Flag(args, "seed", "42", core::ParseU64);
  seqrec::TrainConfig tc;
  tc.epochs = Flag(args, "epochs", "12", core::ParseSize);
  tc.learning_rate = DoubleFlag(args, "lr", "1e-3");
  tc.verbose = args.count("verbose") > 0;
  // Crash-safe checkpoint/resume (DESIGN.md §8): full-state generations in
  // --checkpoint-dir; --resume continues from the newest loadable one.
  tc.checkpoint_dir = Get(args, "checkpoint-dir", "");
  if (args.count("checkpoint-every")) {
    tc.checkpoint_every = Flag(args, "checkpoint-every", "1", core::ParseSize);
  }
  tc.resume = args.count("resume") > 0;

  WhitenRecConfig wc;
  wc.relaxed_groups = Flag(args, "groups", "4", core::ParseSize);
  const std::size_t wname =
      ChoiceFlag(args, "whitening", {"zca", "pca", "cd", "bn"});
  wc.whitening = wname == 1   ? WhiteningKind::kPca
                 : wname == 2 ? WhiteningKind::kCholesky
                 : wname == 3 ? WhiteningKind::kBatchNorm
                              : WhiteningKind::kZca;

  std::unique_ptr<seqrec::TrainableRecommender> rec =
      model.make(ModelArgs{dataset, mc, wc});
  // Every model trains through the same loop (seqrec::TrainRecommender), so
  // --checkpoint-dir, --resume and --verbose apply to each of them.
  rec->Fit(split, tc);

  // --- Evaluate ----------------------------------------------------------
  std::printf("\nmodel: %s\n", rec->name().c_str());
  if (!split.valid.empty()) {
    PrintEval("valid", seqrec::EvaluateRanking(rec.get(), split.valid,
                                               split.train, mc.max_len));
  }
  if (!split.test.empty()) {
    PrintEval("test ", seqrec::EvaluateRanking(rec.get(), split.test,
                                               split.train, mc.max_len));
  }

  // Every model's learned state is its Parameters(); nn::LoadParameters
  // restores them into a model built with the same flags.
  const std::string ckpt = Get(args, "save-checkpoint", "");
  if (!ckpt.empty()) {
    const Status st = nn::SaveParameters(ckpt, rec->Parameters());
    if (!st.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("checkpoint written to %s\n", ckpt.c_str());
  }
  return 0;
}

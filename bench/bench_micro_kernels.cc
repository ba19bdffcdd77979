// Micro-benchmarks (google-benchmark) for the computational kernels behind
// the paper's complexity analysis (Sec. IV-E): dense matmul (naive vs the
// blocked kernels of linalg/gemm.cc), symmetric eigendecomposition,
// whitening fits of each kind, group whitening, flow whitening, one
// SASRec training step, the exact scorer at serving batch sizes and the IVF
// index's k-means fit. These quantify the claim that the whitening
// transforms are cheap, precomputable preprocessing. Besides the console
// table, results are written to <out>/BENCH_kernels.json (GFLOP/s, thread
// count and kernel label per run) for machine consumption.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/artifact.h"
#include "core/json.h"
#include "core/parallel.h"
#include "data/generator.h"
#include "data/split.h"
#include "linalg/eigen.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "linalg/scorer.h"
#include "linalg/topk.h"
#include "linalg/workspace.h"
#include "retrieval/kmeans.h"
#include "seqrec/baselines.h"
#include "whitening/flow_whitening.h"
#include "whitening/whitening.h"

namespace whitenrec {
namespace {

void BM_MatMul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Rng rng(1);
  const linalg::Matrix a = rng.GaussianMatrix(n, n, 1.0);
  const linalg::Matrix b = rng.GaussianMatrix(n, n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

// Head-to-head of the reference loops (NaiveMatMulAcc) against the
// production MatMulInto, which runs the blocked kernels at this size, on the
// 512^3 product (the target: blocked >= 3x naive single-thread). items/s
// counts multiply-adds, so GFLOP/s = 2 * items/s / 1e9.
void BM_GemmVariant(benchmark::State& state) {
  const bool naive = state.range(0) == 0;
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const std::size_t threads = static_cast<std::size_t>(state.range(2));
  const std::size_t saved_threads = core::NumThreads();
  core::SetNumThreads(threads);
  linalg::Rng rng(1);
  const linalg::Matrix a = rng.GaussianMatrix(n, n, 1.0);
  const linalg::Matrix b = rng.GaussianMatrix(n, n, 1.0);
  linalg::Matrix c;
  for (auto _ : state) {
    if (naive) {
      c.Resize(n, n);
      linalg::NaiveMatMulAcc(a, b, &c);
    } else {
      linalg::MatMulInto(a, b, &c);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * n));
  state.counters["threads"] = static_cast<double>(threads);
  state.SetLabel(naive ? "naive" : "blocked");
  core::SetNumThreads(saved_threads);
}
BENCHMARK(BM_GemmVariant)
    ->Args({0, 512, 1})
    ->Args({1, 512, 1})
    ->Args({0, 512, 4})
    ->Args({1, 512, 4})
    ->Unit(benchmark::kMillisecond);

// Thread scaling of the parallel GEMM on a 512x512x512 product. items/s is
// multiply-add throughput, directly comparable across the thread counts.
void BM_MatMulThreads(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  const std::size_t saved = core::NumThreads();
  core::SetNumThreads(threads);
  linalg::Rng rng(1);
  const linalg::Matrix a = rng.GaussianMatrix(n, n, 1.0);
  const linalg::Matrix b = rng.GaussianMatrix(n, n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * n));
  state.SetLabel(std::to_string(threads) + " thread(s)");
  core::SetNumThreads(saved);
}
BENCHMARK(BM_MatMulThreads)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4})
    ->Unit(benchmark::kMillisecond);

// Top-20 recommendation scoring of a user batch against the catalog,
// materialized (full (rows, num_items) score matrix in a workspace slot,
// then partial_sort per row — the oracle the tests hold the streaming path
// to) vs fused (streaming score panels feeding bounded top-K selectors, the
// production path). Both produce identical lists; the contrast is time and
// — via the peak_workspace_bytes counter — scratch high-water mark.
void BM_ScoringVariant(benchmark::State& state) {
  const bool materialized = state.range(0) == 0;
  const std::size_t num_items = static_cast<std::size_t>(state.range(1));
  const std::size_t rows = 64;
  const std::size_t d = 64;
  const std::size_t k = 20;
  linalg::Rng rng(7);
  const linalg::Matrix users = rng.GaussianMatrix(rows, d, 1.0);
  const linalg::Matrix items = rng.GaussianMatrix(num_items, d, 1.0);
  linalg::Workspace::ResetAllWorkspaces();
  if (materialized) {
    // The score matrix lives in a workspace slot so the peak counter sees
    // it.
    linalg::Workspace ws;
    linalg::Matrix& scores = ws.MatRef(0);
    for (auto _ : state) {
      linalg::MatMulTransBInto(users, items, &scores);
      for (std::size_t r = 0; r < rows; ++r) {
        benchmark::DoNotOptimize(
            linalg::SelectTopK(scores.RowPtr(r), num_items, k));
      }
    }
    state.counters["peak_workspace_bytes"] =
        static_cast<double>(linalg::Workspace::GlobalPeakBytes());
  } else {
    std::vector<linalg::TopKSelector> selectors;
    selectors.reserve(rows);
    for (std::size_t r = 0; r < rows; ++r) selectors.emplace_back(k);
    for (auto _ : state) {
      for (std::size_t r = 0; r < rows; ++r) selectors[r].Reset();
      linalg::StreamMatMulTransB(
          users, items,
          [&](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t jn,
              const linalg::Matrix& panel) {
            for (std::size_t i = i0; i < i1; ++i) {
              selectors[i].PushTile(panel.RowPtr(i), j0, jn);
            }
          });
      benchmark::DoNotOptimize(selectors.data());
    }
    state.counters["peak_workspace_bytes"] =
        static_cast<double>(linalg::Workspace::GlobalPeakBytes());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(rows * num_items * d));
  state.SetLabel(materialized ? "materialized" : "fused");
}
BENCHMARK(BM_ScoringVariant)
    ->Args({0, 4096})
    ->Args({1, 4096})
    ->Args({0, 16384})
    ->Args({1, 16384})
    ->Unit(benchmark::kMillisecond);

void BM_SymmetricEigen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Rng rng(2);
  const linalg::Matrix a = rng.GaussianMatrix(n, n, 1.0);
  linalg::Matrix sym = linalg::Add(a, linalg::Transpose(a));
  sym *= 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SymmetricEigen(sym));
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(16)->Arg(32)->Arg(64);

void BM_WhiteningFit(benchmark::State& state) {
  const auto kind = static_cast<WhiteningKind>(state.range(0));
  linalg::Rng rng(3);
  const linalg::Matrix x = rng.GaussianMatrix(400, 64, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FitWhitening(x, kind));
  }
  state.SetLabel(WhiteningKindName(kind));
}
BENCHMARK(BM_WhiteningFit)
    ->Arg(static_cast<int>(WhiteningKind::kZca))
    ->Arg(static_cast<int>(WhiteningKind::kPca))
    ->Arg(static_cast<int>(WhiteningKind::kCholesky))
    ->Arg(static_cast<int>(WhiteningKind::kBatchNorm));

void BM_GroupWhiten(benchmark::State& state) {
  const std::size_t groups = static_cast<std::size_t>(state.range(0));
  linalg::Rng rng(4);
  const linalg::Matrix x = rng.GaussianMatrix(400, 64, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WhitenMatrix(x, groups, WhiteningKind::kZca));
  }
}
BENCHMARK(BM_GroupWhiten)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_FlowWhitenFit(benchmark::State& state) {
  linalg::Rng rng(5);
  const linalg::Matrix x = rng.GaussianMatrix(300, 32, 1.0);
  for (auto _ : state) {
    FlowWhitening flow;
    benchmark::DoNotOptimize(flow.Fit(x, 2));
  }
}
BENCHMARK(BM_FlowWhitenFit);

void BM_SasRecTrainStep(benchmark::State& state) {
  data::DatasetProfile profile = data::ArtsProfile(0.5);
  profile.plm.calibration_iters = 15;
  const data::GeneratedData gen = data::GenerateDataset(profile);
  const data::Split split = data::LeaveOneOutSplit(gen.dataset);
  seqrec::SasRecConfig mc;
  mc.hidden_dim = 32;
  mc.max_len = 12;
  WhitenRecConfig wc;
  auto rec = seqrec::MakeWhitenRecPlus(gen.dataset, mc, wc);
  linalg::Rng rng(6);
  const auto batches = data::MakeTrainBatches(split.train, mc.max_len, 128,
                                              &rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rec->model()->TrainStep(batches[i++ % batches.size()]));
  }
}
BENCHMARK(BM_SasRecTrainStep);

// One 256-instance ScoreFactors batch at perfbench's shape (Toys at scale 1,
// WhitenRec with a ZCA + MLP-2 head, d = 32, 2 blocks, 2 heads, L = 12, one
// thread): the item-table eval plus the last-position sequence forward that
// every validation and test batch pays before ranking.
void BM_SasRecEvalBatch(benchmark::State& state) {
  const std::size_t saved = core::NumThreads();
  core::SetNumThreads(1);
  const data::GeneratedData gen =
      data::GenerateDataset(data::ToysProfile(1.0));
  const data::Split split = data::LeaveOneOutSplit(gen.dataset);
  seqrec::SasRecConfig mc;
  mc.hidden_dim = 32;
  mc.num_blocks = 2;
  mc.num_heads = 2;
  mc.ffn_hidden = 64;
  mc.max_len = 12;
  auto rec = seqrec::MakeWhitenRec(gen.dataset, mc, WhitenRecConfig());
  const data::Batch batch =
      data::MakeEvalBatches(split.test, mc.max_len, 256)[0];
  linalg::Matrix users;
  linalg::Matrix items;
  for (auto _ : state) {
    rec->model()->ScoreFactors(batch, &users, &items);
    benchmark::DoNotOptimize(users.data());
    benchmark::DoNotOptimize(items.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.batch_size));
  core::SetNumThreads(saved);
}
BENCHMARK(BM_SasRecEvalBatch);

// The exact scorer at serving batch sizes: `rows` users against a 6000-item,
// d = 32 table packed once at Rebuild, top-10 per row with an 11-item
// history excluded — the serve_catalog shape. gflops counts the scoring
// GEMM's 2 * rows * items * d flops per call (the top-K epilogue is timed
// but not counted), so it tracks the kernel rate outside perfbench.
void BM_ExactScorerSmallBatch(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t num_items = 6000;
  const std::size_t d = 32;
  const std::size_t k = 10;
  const std::size_t saved = core::NumThreads();
  core::SetNumThreads(1);
  linalg::Rng rng(5);
  const linalg::Matrix users = rng.GaussianMatrix(rows, d, 1.0);
  const linalg::Matrix items = rng.GaussianMatrix(num_items, d, 1.0);
  std::vector<std::vector<std::size_t>> exclusions(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t t = 0; t < 11; ++t) {
      exclusions[r].push_back(rng.UniformInt(num_items));
    }
    std::sort(exclusions[r].begin(), exclusions[r].end());
  }
  const std::unique_ptr<linalg::Scorer> scorer = linalg::MakeExactScorer();
  scorer->Rebuild(items);
  std::vector<linalg::TopKSelector> selectors(rows, linalg::TopKSelector(k));
  for (auto _ : state) {
    for (linalg::TopKSelector& sel : selectors) sel.Reset();
    scorer->TopKBatch(users, exclusions, &selectors);
    benchmark::DoNotOptimize(selectors.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      2e-9 * static_cast<double>(rows * num_items * d),
      benchmark::Counter::kIsIterationInvariantRate);
  core::SetNumThreads(saved);
}
BENCHMARK(BM_ExactScorerSmallBatch)->Arg(1)->Arg(2)->Arg(3)->Arg(8);

// The IVF index build's k-means at the serve_ingest shape: 5000 x 32
// points, 71 clusters, 8 Lloyd iterations, one thread, reported in ms.
// gflops counts the distance arithmetic, 3 * n * clusters * d flops (sub,
// mul, add) per pass over the points, with iterations + 2 passes per fit:
// the k-means++ seeding (one distance per point per centre, so one pass in
// all), the Lloyd assignments and the final labeling. The O(n * d)
// centroid update is timed but not counted.
void BM_KMeansFit(benchmark::State& state) {
  const std::size_t n = 5000;
  const std::size_t d = 32;
  retrieval::KMeansConfig config;
  config.clusters = 71;
  config.iterations = 8;
  const std::size_t saved = core::NumThreads();
  core::SetNumThreads(1);
  linalg::Rng rng(9);
  const linalg::Matrix points = rng.GaussianMatrix(n, d, 1.0);
  for (auto _ : state) {
    retrieval::KMeansResult result = retrieval::FitKMeans(points, config);
    benchmark::DoNotOptimize(result.assignment.data());
  }
  state.counters["gflops"] = benchmark::Counter(
      3e-9 * static_cast<double>(n * config.clusters * d *
                                 (config.iterations + 2)),
      benchmark::Counter::kIsIterationInvariantRate);
  core::SetNumThreads(saved);
}
BENCHMARK(BM_KMeansFit)->Unit(benchmark::kMillisecond);

// Console output plus a flat JSON record per run. GFLOP/s is derived from
// the items/s counter (items are multiply-adds, i.e. 2 flops each).
class KernelJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    using core::Json;
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      Json rec = Json::Obj();
      rec.Set("name", Json::Str(run.benchmark_name()));
      rec.Set("real_time", Json::Num(run.GetAdjustedRealTime()));
      rec.Set("time_unit",
              Json::Str(benchmark::GetTimeUnitString(run.time_unit)));
      rec.Set("iterations", Json::Int(run.iterations));
      if (!run.report_label.empty()) {
        rec.Set("label", Json::Str(run.report_label));
      }
      for (const auto& [name, counter] : run.counters) {
        rec.Set(name, Json::Num(counter.value));
        if (name == "items_per_second") {
          rec.Set("gflops", Json::Num(2.0 * counter.value / 1e9));
        }
      }
      records_.Push(std::move(rec));
    }
  }

  Status WriteJson() {
    using core::Json;
    Json doc = Json::Obj();
    doc.Set("bench", Json::Str("micro_kernels"));
    doc.Set("default_threads", Json::Uint(core::NumThreads()));
    doc.Set("runs", std::move(records_));
    return bench::WriteArtifact(bench::OutPath("BENCH_kernels.json"),
                                doc.Dump() + "\n");
  }

 private:
  core::Json records_ = core::Json::Arr();
};

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  whitenrec::KernelJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return whitenrec::bench::ExitCode("BENCH_kernels.json", reporter.WriteJson());
}

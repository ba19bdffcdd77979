// Reproduces paper Fig. 3: t-SNE of item text embeddings (Arts) under
// different whitening settings — raw, G=1, G=4, G=32. Writes the 2-D
// coordinates (with category labels) to fig3_<setting>.csv in the bench
// output directory (out/ by default, WHITENREC_OUT_DIR to override) and
// prints cluster-structure summaries: the ratio of mean
// intra-category to inter-category distances (lower = manifold preserved)
// and the dispersion of points around the global centroid (higher = more
// uniform spread).

#include <cmath>
#include <sstream>

#include "analysis/tsne.h"
#include "bench/artifact.h"
#include "bench_common.h"
#include "whitening/whitening.h"

namespace whitenrec {
namespace {

struct ClusterStats {
  double intra_over_inter;
  double dispersion;
};

ClusterStats Summarize(const linalg::Matrix& y,
                       const std::vector<std::size_t>& categories) {
  double intra = 0.0, inter = 0.0;
  std::size_t n_intra = 0, n_inter = 0;
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = i + 1; j < y.rows(); ++j) {
      const double dx = y(i, 0) - y(j, 0);
      const double dy = y(i, 1) - y(j, 1);
      const double d = std::sqrt(dx * dx + dy * dy);
      if (categories[i] == categories[j]) {
        intra += d;
        ++n_intra;
      } else {
        inter += d;
        ++n_inter;
      }
    }
  }
  ClusterStats s;
  s.intra_over_inter = (intra / static_cast<double>(n_intra)) /
                       (inter / static_cast<double>(n_inter));
  double cx = 0.0, cy = 0.0;
  for (std::size_t i = 0; i < y.rows(); ++i) {
    cx += y(i, 0);
    cy += y(i, 1);
  }
  cx /= static_cast<double>(y.rows());
  cy /= static_cast<double>(y.rows());
  double disp = 0.0;
  for (std::size_t i = 0; i < y.rows(); ++i) {
    const double dx = y(i, 0) - cx;
    const double dy = y(i, 1) - cy;
    disp += std::sqrt(dx * dx + dy * dy);
  }
  s.dispersion = disp / static_cast<double>(y.rows());
  return s;
}

std::string Csv(const linalg::Matrix& y,
                const std::vector<std::size_t>& categories) {
  std::ostringstream out;
  out << "x,y,category\n";
  for (std::size_t i = 0; i < y.rows(); ++i) {
    out << y(i, 0) << ',' << y(i, 1) << ',' << categories[i] << '\n';
  }
  return out.str();
}

}  // namespace
}  // namespace whitenrec

int main(int argc, char** argv) {
  whitenrec::bench::ApplyThreadsFlag(argc, argv);
  using namespace whitenrec;
  const data::GeneratedData gen =
      bench::LoadDataset(data::ArtsProfile(bench::EnvScale()));
  const linalg::Matrix& x = gen.dataset.text_embeddings;
  const std::vector<std::size_t>& categories = gen.dataset.item_category;

  analysis::TsneConfig config;
  config.iterations = 250;

  std::printf("\n=== Fig. 3 - t-SNE of item text embeddings (Arts) ===\n");
  std::printf("%-10s%18s%14s\n", "setting", "intra/inter dist", "dispersion");

  struct Setting {
    const char* name;
    std::size_t groups;  // 0 = raw
  };
  for (const Setting& s : {Setting{"raw", 0}, Setting{"G=1", 1},
                           Setting{"G=4", 4}, Setting{"G=32", 32}}) {
    linalg::Matrix features = x;
    if (s.groups > 0) {
      auto z = WhitenMatrix(x, s.groups, WhiteningKind::kZca);
      WR_CHECK(z.ok());
      features = std::move(z).ValueOrDie();
    }
    const linalg::Matrix y = analysis::Tsne(features, config);
    const ClusterStats stats = Summarize(y, categories);
    std::printf("%-10s%18.4f%14.4f\n", s.name, stats.intra_over_inter,
                stats.dispersion);
    const std::string file = std::string("fig3_") + s.name + ".csv";
    const Status wrote =
        bench::WriteArtifact(bench::OutPath(file), Csv(y, categories));
    if (!wrote.ok()) return bench::ExitCode(file, wrote);
  }
  std::printf(
      "\ncoordinates written to %s/fig3_*.csv.\n", bench::OutDir().c_str());
  std::printf(
      "reading the numbers: dispersion reproduces the paper's uniformity "
      "story\n(full whitening spreads the cloud most evenly). The "
      "intra/inter ratio\ndiffers mechanically from the paper: in SimPLM the "
      "category manifold is\nhidden *under* high-variance corpus noise, so "
      "whitening unmasks clusters\n(ratio drops); in real BERT space the "
      "manifold occupies the dominant\ndirections, so whitening compresses "
      "it. See EXPERIMENTS.md.\n");
  return 0;
}

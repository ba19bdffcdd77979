#include "workloads.h"

namespace perfbench {

namespace {

using whitenrec::linalg::ItemQuantKind;
using whitenrec::retrieval::ScorerKind;

// Why each workload exists is recorded in README.md and BENCHMARK.json.
// Sizes were chosen on a 4-vCPU VM so that a run at --seconds 45 takes about
// 45 s in 36 rounds, the serving catalogs' item tables fit a core's 2 MB
// L2 (larger ones measured the neighbours' cache traffic), and the server
// stays busy for a third of the virtual time or less even when the host runs
// slow.
const Workload kWorkloads[] = {
    {
        "serve_catalog",
        /*train_scale=*/1.0, /*epochs_per_10s=*/8,
        /*catalog_items=*/6000, ScorerKind::kExact, /*ivf_nprobe=*/8,
        ItemQuantKind::kFp32, /*max_cached_sessions=*/64, /*max_batch=*/64,
        /*sessions=*/300, /*zipf_exponent=*/1.0, /*requests_per_s=*/300.0,
        /*requests_per_10s=*/8000,
        /*refit_every=*/4, /*refits_per_10s=*/8, /*refits_block_reads=*/false,
        /*min_recall10=*/1.0, /*train_fingerprint=*/0x0bbd0242a73358a8ull,
        /*catalog_fingerprint=*/0xea9c85377938d240ull,
    },
    {
        "serve_ingest",
        /*train_scale=*/1.0, /*epochs_per_10s=*/8,
        /*catalog_items=*/5000, ScorerKind::kIvf, /*ivf_nprobe=*/8,
        ItemQuantKind::kInt8, /*max_cached_sessions=*/4096, /*max_batch=*/64,
        /*sessions=*/500, /*zipf_exponent=*/1.0, /*requests_per_s=*/400.0,
        /*requests_per_10s=*/10000,
        /*refit_every=*/4, /*refits_per_10s=*/16, /*refits_block_reads=*/true,
        /*min_recall10=*/0.75, /*train_fingerprint=*/0x0bbd0242a73358a8ull,
        /*catalog_fingerprint=*/0x14d8b8ec6ed2c5c7ull,
    },
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench

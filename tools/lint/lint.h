#ifndef WHITENREC_TOOLS_LINT_LINT_H_
#define WHITENREC_TOOLS_LINT_LINT_H_

#include <string>
#include <vector>

// Determinism / reproducibility linter for the whitenrec tree. The repo's
// bitwise-reproducibility guarantee (DESIGN.md §6) rests on invariants that
// the compiler cannot enforce: all parallelism goes through core/parallel,
// all randomness through linalg/rng, no float accumulation in hash-order,
// and all matmuls through the canonical-order kernels in linalg/gemm. This
// linter turns those conventions into hard errors so they survive future
// PRs. Rules operate on comment- and string-scrubbed source text, so code
// inside literals or comments never trips them.
//
// A finding on line N can be suppressed by putting
//   // whitenrec-lint: allow(<rule>)
// on line N or on line N-1.

namespace whitenrec {
namespace lint {

struct Finding {
  std::string file;  // repo-relative path with '/' separators
  std::size_t line;  // 1-based
  std::string rule;  // e.g. "raw-thread"
  std::string message;
};

// Rule names (used in findings and allow() suppressions):
//   raw-thread        std::thread/std::async/std::jthread/OpenMP outside
//                     src/core/parallel.*
//   raw-rng           rand()/srand()/std::random_device/time-based seeding
//                     outside src/linalg/rng.{h,cc}
//   unordered-float   range-for over an unordered_{map,set} accumulating
//                     into a float/double (hash order is not deterministic)
//   hand-rolled-gemm  triple-nested loop with a multiply-accumulate over the
//                     innermost index outside src/linalg/gemm.cc
//   stdout-in-library printf/std::cout/puts to stdout from src/ (library
//                     output goes through return values or stderr)
//   raw-io            std::ofstream/std::fstream/fopen/POSIX write-mode open
//                     in src/ outside src/core/faultfs.cc. Persistent state
//                     must go through core/faultfs (AtomicWriteFile /
//                     ReadFileToString) so atomic replace, checked errors,
//                     and fault injection cover every write path.
//   include-guard     header guard not WHITENREC_<PATH>_H_ (src/ prefix
//                     dropped; tests/ bench/ examples/ kept)
//   full-logits       Matrix allocation in src/ with num_items as a column
//                     (non-leading) dimension — a (rows, num_items) score or
//                     logits buffer. The streaming layer (linalg/gemm.h)
//                     exists so hot paths never materialize these; every
//                     model scores through it. A buffer that must exist
//                     (the k-means builder's per-item assignment) carries
//                     a whitenrec-lint: allow(full-logits) annotation.
//                     Checked call shapes: `Matrix x(r, ..num_items..)`,
//                     `Matrix(r, ..num_items..)`, `.Resize(r, ..)`,
//                     `.Mat(slot, r, ..)`. A leading num_items dimension
//                     (the (num_items, d) item table) is fine.

// Lints a single file. `path` must be the repo-relative path; `contents`
// the full file text. Findings come back in line order.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& contents);

// Walks src/ tests/ bench/ examples/ under `root` (skipping anything else,
// e.g. build/), linting every .h/.hpp/.cc/.cpp file. Findings are sorted by
// path then line.
std::vector<Finding> LintTree(const std::string& root);

// Replaces string literals, char literals, and comments with spaces while
// preserving line structure. Exposed for tests. Delegates to the shared
// token scanner in tools/analyze/tokenize.h, so the linter and the cross-TU
// analyzer agree byte-for-byte on literal boundaries — including the
// prefixed raw strings (u8R"(...)" etc.) the old per-character state
// machine mis-lexed as ordinary strings.
std::string ScrubSource(const std::string& contents);

}  // namespace lint
}  // namespace whitenrec

#endif  // WHITENREC_TOOLS_LINT_LINT_H_

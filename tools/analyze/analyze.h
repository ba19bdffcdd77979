#ifndef WHITENREC_TOOLS_ANALYZE_ANALYZE_H_
#define WHITENREC_TOOLS_ANALYZE_ANALYZE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/status.h"

// Cross-TU static analyzer for the whitenrec tree (DESIGN.md §11). Where
// tools/lint checks one file at a time, the passes here need the whole tree
// at once: the include graph, the set of every WHITENREC_* env read, the
// registry that documents them. Three passes:
//
//   layering  the module DAG must respect the layer order
//                 core < linalg < {nn, data, text} < whitening <
//                 {seqrec, eval, analysis} < retrieval < serve
//             (a file may include same-or-lower-rank modules only), and the
//             file-level include graph must be acyclic.
//               rules: upward-include, include-cycle
//   knobs     every WHITENREC_* env knob read in src/ bench/ tests/ must be
//             declared in tools/analyze/knobs.def, documented in README.md,
//             and actually read somewhere; the only getenv that may read a
//             WHITENREC_* name is src/core/env.cc's strict parser, and no
//             other src/ file includes core/env.h (only mains read knobs).
//               rules: unregistered-knob, dead-knob, undocumented-knob,
//                      bare-getenv, library-env
//   hotalloc  no Matrix / std::vector construction inside ParallelFor /
//             Stream(Quant)MatMulTransB* lambdas or RowBlockHook /
//             ScoreRowsFn / ScorePanelFn bodies — per-iteration allocation in the hot
//             kernels belongs in the linalg::Workspace arena or hoisted out.
//               rule: hot-alloc
//
// A finding on line N is suppressed by `whitenrec-analyze: allow(<rule>)`
// (or the equivalent whitenrec-lint spelling) on line N or N-1; knobs.def
// registry findings honor the same comment inside knobs.def.
//
// Passes operate on an abstract SourceTree (path + contents pairs) so tests
// can fabricate trees with seeded violations without touching the disk.

namespace whitenrec {
namespace analyze {

struct SourceFile {
  std::string path;      // repo-relative, '/' separators, e.g. "src/nn/gru.cc"
  std::string contents;  // full file text
};

struct SourceTree {
  std::vector<SourceFile> files;
};

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string pass;      // "layering" | "knobs" | "hotalloc"
  std::string rule;
  std::string message;
};

// Extra non-C++ inputs consumed by the knobs pass.
struct TreeInputs {
  std::string knobs_def;  // contents of tools/analyze/knobs.def
  std::string readme;     // contents of README.md
};

// One registry entry parsed from knobs.def; exposed for tests.
struct KnobDecl {
  std::string name;      // WHITENREC_*
  std::string type;      // size | u64 | double | enum | string | flag | cmake
  std::string owner;     // declaring file, informational
  std::size_t line = 0;  // 1-based line in knobs.def
};

// Parses knobs.def. Malformed lines come back as findings against
// `def_path` (rule "knob-registry-syntax") rather than being dropped.
std::vector<KnobDecl> ParseKnobsDef(const std::string& text,
                                    const std::string& def_path,
                                    std::vector<Finding>* findings);

// The individual passes. Each returns findings sorted by (file, line).
std::vector<Finding> CheckLayering(const SourceTree& tree);
std::vector<Finding> CheckKnobs(const SourceTree& tree,
                                const TreeInputs& inputs);
std::vector<Finding> CheckHotAlloc(const SourceTree& tree);

struct AnalyzeResult {
  std::size_t files_scanned = 0;
  std::vector<Finding> findings;  // all passes, sorted by (file, line)
};

// Runs every pass over the tree.
AnalyzeResult AnalyzeTree(const SourceTree& tree, const TreeInputs& inputs);

// Loads src/ tests/ bench/ examples/ (.h/.hpp/.cc/.cpp) under `root` into a
// SourceTree, sorted by path.
SourceTree LoadTree(const std::string& root);

// ANALYZE.json: serializes `result` (schema "whitenrec.analyze.v1").
std::string ReportJson(const AnalyzeResult& result);

// Validates a serialized report against the schema: required keys, finding
// shape, rule vocabulary, and clean <=> zero findings. The analyze binary
// self-checks its own output through this before writing it.
Status ValidateAnalyzeReport(const std::string& json);

}  // namespace analyze
}  // namespace whitenrec

#endif  // WHITENREC_TOOLS_ANALYZE_ANALYZE_H_

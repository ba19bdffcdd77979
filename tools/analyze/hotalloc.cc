#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "tools/analyze/analyze.h"
#include "tools/analyze/source_util.h"
#include "tools/analyze/tokenize.h"

// Hot-path allocation pass. The kernels' inner loops run once per worker
// chunk / score tile, so a Matrix or std::vector constructed inside them
// turns into O(chunks) heap traffic that the linalg::Workspace arena exists
// to absorb (DESIGN.md §4). The pass finds lambda bodies in hot positions —
// arguments of core::ParallelFor and the Stream(Quant|Packed)MatMulTransB
// family, and initializers of RowBlockHook / ScoreRowsFn / ScorePanelFn
// callbacks — and flags Matrix / std::vector constructions inside them
// (rule hot-alloc). The packed distance kernels behind k-means run once per
// Lloyd pass and once per k-means++ centre and take no lambda, so for them
// the pass scans the body of their definition instead: a Matrix or
// std::vector built there is per-call heap traffic on the index build.
//
// A declared reference path carries a `whitenrec-analyze: allow(hot-alloc)`
// annotation stating why the allocation is intended; everything else either
// hoists the buffer or takes it from the Workspace arena. Scope: src/ only — tests and benches
// construct scratch wherever convenient.

namespace whitenrec {
namespace analyze {
namespace {

const std::set<std::string>& HotCallees() {
  static const std::set<std::string> kCallees = {
      "ParallelFor",           "ParallelReduceSum",
      "StreamMatMulTransB",    "StreamMatMulTransBTiles",
      "StreamMatMulTransBPanels", "StreamQuantMatMulTransB",
      "StreamQuantMatMulTransBTiles", "StreamPackedMatMulTransB"};
  return kCallees;
}

// Hot kernels without a lambda argument: the body of their definition is
// the hot region.
const std::set<std::string>& HotDefinitions() {
  static const std::set<std::string> kDefinitions = {
      "PackedNearestCentroids", "PackedMinSquaredDistances"};
  return kDefinitions;
}

const std::set<std::string>& HotCallbackTypes() {
  static const std::set<std::string> kTypes = {"RowBlockHook", "ScoreRowsFn",
                                               "ScorePanelFn"};
  return kTypes;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

// Finds the index of the token matching `open` ("(" or "{" or "[") starting
// at `at` (which must hold the opener), or tokens.size() on imbalance.
std::size_t MatchForward(const std::vector<Token>& tokens, std::size_t at,
                         const char* open, const char* close) {
  int depth = 0;
  for (std::size_t i = at; i < tokens.size(); ++i) {
    if (IsPunct(tokens[i], open)) ++depth;
    if (IsPunct(tokens[i], close) && --depth == 0) return i;
  }
  return tokens.size();
}

// Template-argument matcher starting at a '<' token. Maximal munch lexes the
// closer of nested template lists as one ">>" token, so angle depth must
// treat it as two closers (the same disambiguation real C++ parsers do).
std::size_t MatchAngle(const std::vector<Token>& tokens, std::size_t at) {
  int depth = 0;
  for (std::size_t i = at; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokKind::kPunct) continue;
    if (t.text == "<") {
      ++depth;
    } else if (t.text == ">") {
      if (--depth == 0) return i;
    } else if (t.text == ">>") {
      depth -= 2;
      if (depth <= 0) return i;
    } else if (t.text == ";") {
      return tokens.size();  // statement ended: was a comparison, not a type
    }
  }
  return tokens.size();
}

// Given `at` pointing at the '[' of a lambda introducer, returns the token
// range [body_open, body_close] of its brace body, or (0, 0) when no body
// follows (e.g. a plain subscript expression).
std::pair<std::size_t, std::size_t> LambdaBody(
    const std::vector<Token>& tokens, std::size_t at) {
  const std::size_t intro_end = MatchForward(tokens, at, "[", "]");
  if (intro_end >= tokens.size()) return {0, 0};
  std::size_t i = intro_end + 1;
  if (i < tokens.size() && IsPunct(tokens[i], "(")) {
    i = MatchForward(tokens, i, "(", ")");
    if (i >= tokens.size()) return {0, 0};
    ++i;
  }
  // Skip specifiers/trailing return type up to the body brace; give up
  // quickly so `arr[idx] + 1` never scans far.
  for (std::size_t guard = 0; guard < 16 && i < tokens.size(); ++guard, ++i) {
    if (IsPunct(tokens[i], "{")) {
      const std::size_t close = MatchForward(tokens, i, "{", "}");
      if (close >= tokens.size()) return {0, 0};
      return {i, close};
    }
    if (IsPunct(tokens[i], ";") || IsPunct(tokens[i], ")") ||
        IsPunct(tokens[i], ",") || IsPunct(tokens[i], "=")) {
      return {0, 0};  // not a lambda after all
    }
  }
  return {0, 0};
}

// Scans a lambda body token range for allocation patterns:
//   Matrix <ident> ( | { | =        construction of a dense matrix
//   vector < ... > <ident> ( | {    sized/filled vector construction
// Parameters (`const Matrix& m`) and default-constructed empties
// (`std::vector<T> v;`) don't match; the latter allocate nothing until
// filled, and flagging them would outlaw the reserve-and-reuse idiom the
// kernels actually want.
void ScanBody(const SourceFile& file, const std::vector<Token>& tokens,
              std::size_t begin, std::size_t end,
              const std::vector<std::string>& raw_lines,
              const std::string& context, std::vector<Finding>* findings) {
  for (std::size_t i = begin; i + 2 <= end; ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokKind::kIdent) continue;
    std::size_t decl_ident = 0;
    if (t.text == "Matrix" && tokens[i + 1].kind == TokKind::kIdent) {
      decl_ident = i + 1;
    } else if (t.text == "vector" && IsPunct(tokens[i + 1], "<")) {
      const std::size_t close = MatchAngle(tokens, i + 1);
      if (close < end && close + 1 < tokens.size() &&
          tokens[close + 1].kind == TokKind::kIdent) {
        decl_ident = close + 1;
      }
    }
    if (decl_ident == 0 || decl_ident + 1 >= tokens.size()) continue;
    const Token& after = tokens[decl_ident + 1];
    if (!IsPunct(after, "(") && !IsPunct(after, "{") && !IsPunct(after, "=")) {
      continue;
    }
    ReportFinding(raw_lines, file.path, t.line, "hotalloc", "hot-alloc",
                  "allocates a " + t.text + " inside " + context +
                      "; per-chunk construction in a hot kernel belongs in "
                      "the linalg::Workspace arena or hoisted outside the "
                      "parallel region (reference paths may annotate "
                      "whitenrec-analyze: allow(hot-alloc))",
                  findings);
    // Jump past the declarator: a nested vector<vector<..>> type would
    // otherwise re-match on the inner `vector` and double-report.
    i = decl_ident;
  }
}

}  // namespace

std::vector<Finding> CheckHotAlloc(const SourceTree& tree) {
  std::vector<Finding> findings;
  for (const SourceFile& file : tree.files) {
    if (file.path.rfind("src/", 0) != 0) continue;
    const std::vector<Token> tokens = Tokenize(file.contents);
    const std::vector<std::string> raw_lines = SplitLines(file.contents);
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokKind::kIdent) continue;
      if (HotDefinitions().count(t.text) && i + 1 < tokens.size() &&
          IsPunct(tokens[i + 1], "(")) {
        // A definition (parameter list then body) is scanned whole, lambdas
        // inside included, so skip past it rather than report twice. Calls
        // and declarations have no body.
        const std::size_t params_end = MatchForward(tokens, i + 1, "(", ")");
        if (params_end + 1 >= tokens.size() ||
            !IsPunct(tokens[params_end + 1], "{")) {
          continue;
        }
        const std::size_t close =
            MatchForward(tokens, params_end + 1, "{", "}");
        if (close >= tokens.size()) continue;
        ScanBody(file, tokens, params_end + 1, close, raw_lines,
                 "the hot kernel " + t.text, &findings);
        i = close;
      } else if (HotCallees().count(t.text) && i + 1 < tokens.size() &&
                 IsPunct(tokens[i + 1], "(")) {
        // Hot call: every lambda in its argument list is a hot region.
        const std::size_t call_end = MatchForward(tokens, i + 1, "(", ")");
        for (std::size_t j = i + 2; j < call_end; ++j) {
          if (!IsPunct(tokens[j], "[")) continue;
          const auto [open, close] = LambdaBody(tokens, j);
          if (open == 0) continue;
          ScanBody(file, tokens, open, close, raw_lines,
                   "a " + t.text + " lambda", &findings);
          j = close;
        }
      } else if (HotCallbackTypes().count(t.text) && i + 2 < tokens.size() &&
                 tokens[i + 1].kind == TokKind::kIdent &&
                 IsPunct(tokens[i + 2], "=")) {
        // `RowBlockHook hook = [...] {...}`: the callback body runs inside
        // the kernel epilogue, same hot contract as a direct lambda arg.
        std::size_t j = i + 3;
        if (j < tokens.size() && IsPunct(tokens[j], "[")) {
          const auto [open, close] = LambdaBody(tokens, j);
          if (open != 0) {
            ScanBody(file, tokens, open, close, raw_lines,
                     "a " + t.text + " callback", &findings);
          }
        }
      }
    }
  }
  SortFindings(&findings);
  return findings;
}

}  // namespace analyze
}  // namespace whitenrec

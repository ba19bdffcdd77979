#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/analyze.h"
#include "tools/analyze/source_util.h"
#include "tools/analyze/tokenize.h"

// Env-knob registry pass. Every WHITENREC_* environment variable the tree
// reads must be (a) declared in tools/analyze/knobs.def, (b) documented in
// README.md, and (c) actually read somewhere. Reads go through one strict
// parser: (d) the only getenv that may read a WHITENREC_* name is the one
// in src/core/env.cc (rule bare-getenv), and (e) no library file includes
// core/env.h (rule library-env), so the library takes its configuration by
// value and only mains read the environment — a set but malformed knob
// exits naming it instead of silently running with a default.
//
// A "read site" is a string literal matching ^WHITENREC_[A-Z0-9_]+$ passed
// as the first argument of a read accessor: std::getenv or one of the
// core/env readers (EnvText / EnvSize / EnvU64 / EnvDouble). type=cmake
// entries are build options (-DWHITENREC_*) that never appear as read
// sites and are exempt from (c).

namespace whitenrec {
namespace analyze {
namespace {

constexpr char kEnvSource[] = "src/core/env.cc";

const std::set<std::string>& ReadAccessors() {
  static const std::set<std::string> kAccessors = {
      "getenv", "EnvText", "EnvSize", "EnvU64", "EnvDouble"};
  return kAccessors;
}

struct KnobSite {
  std::string file;
  std::size_t line = 0;
  std::string name;      // WHITENREC_*
  std::string accessor;  // identifier the literal was an argument of
};

bool IsKnobName(const std::string& value) {
  static const std::regex kName(R"(^WHITENREC_[A-Z0-9_]+$)");
  return std::regex_match(value, kName);
}

// Extracts read sites from one file: literal "WHITENREC_X" in the first-
// argument position of a call, i.e. token pattern `ident ( "WHITENREC_X"`.
// Literals in error messages or comparisons don't match the pattern (they
// follow a comma or operator) and exact-name matching drops embedded
// mentions like "invalid WHITENREC_ITEM_QUANT value '%s'".
std::vector<KnobSite> ExtractSites(const std::vector<Token>& tokens,
                                   const std::string& path) {
  std::vector<KnobSite> sites;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kString) continue;
    const std::string value = StringValue(tokens[i]);
    if (!IsKnobName(value)) continue;
    if (tokens[i - 1].kind != TokKind::kPunct || tokens[i - 1].text != "(") {
      continue;
    }
    if (tokens[i - 2].kind != TokKind::kIdent) continue;
    sites.push_back(KnobSite{path, tokens[i].line, value, tokens[i - 2].text});
  }
  return sites;
}

// Rules (d) and (e) over one file's tokens. A getenv whose argument is not a
// string literal may read any name, so only a literal non-WHITENREC_*
// argument is exempt from bare-getenv.
void CheckEnvReads(const SourceFile& file, const std::vector<Token>& tokens,
                   std::vector<Finding>* findings) {
  if (file.path == kEnvSource) return;
  const std::vector<std::string> raw = SplitLines(file.contents);
  const bool library = file.path.rfind("src/", 0) == 0 &&
                       file.path != "src/core/env.h";
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    const Token& t = tokens[i];
    const Token& next = tokens[i + 1];
    const Token& arg = tokens[i + 2];
    if (t.kind == TokKind::kIdent && t.text == "getenv" &&
        next.kind == TokKind::kPunct && next.text == "(" &&
        !(arg.kind == TokKind::kString && !IsKnobName(StringValue(arg)))) {
      ReportFinding(raw, file.path, t.line, "knobs", "bare-getenv",
                    "getenv outside " + std::string(kEnvSource) +
                        "; read WHITENREC_* knobs in a main through "
                        "core/env.h (EnvText/EnvSize/EnvU64/EnvDouble)",
                    findings);
    }
    if (library && t.kind == TokKind::kPunct && t.text == "#" &&
        next.kind == TokKind::kIdent && next.text == "include" &&
        arg.kind == TokKind::kString && StringValue(arg) == "core/env.h") {
      ReportFinding(raw, file.path, t.line, "knobs", "library-env",
                    "library file includes core/env.h; take the value as a "
                    "config field or setter argument and read the knob in "
                    "the main",
                    findings);
    }
  }
}

}  // namespace

std::vector<KnobDecl> ParseKnobsDef(const std::string& text,
                                    const std::string& def_path,
                                    std::vector<Finding>* findings) {
  static const std::set<std::string> kTypes = {
      "size", "u64", "double", "enum", "string", "flag", "cmake"};
  std::vector<KnobDecl> decls;
  const std::vector<std::string> lines = SplitLines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ss(line);
    std::string head;
    if (!(ss >> head)) continue;  // blank or comment-only
    KnobDecl decl;
    decl.line = i + 1;
    std::string error;
    if (head != "knob") {
      error = "expected 'knob', got '" + head + "'";
    } else if (!(ss >> decl.name) || !IsKnobName(decl.name)) {
      error = "knob name must match WHITENREC_[A-Z0-9_]+";
    } else {
      std::string attr;
      while (ss >> attr) {
        if (attr.rfind("type=", 0) == 0) {
          decl.type = attr.substr(5);
        } else if (attr.rfind("owner=", 0) == 0) {
          decl.owner = attr.substr(6);
        } else {
          error = "unknown attribute '" + attr + "'";
          break;
        }
      }
      if (error.empty() && !kTypes.count(decl.type)) {
        error = "knob '" + decl.name + "' needs type=" +
                "size|u64|double|enum|string|flag|cmake";
      }
    }
    if (!error.empty()) {
      if (findings != nullptr) {
        ReportFinding(lines, def_path, i + 1, "knobs", "knob-registry-syntax",
                      "knobs.def: " + error, findings);
      }
      continue;
    }
    decls.push_back(decl);
  }
  return decls;
}

std::vector<Finding> CheckKnobs(const SourceTree& tree,
                                const TreeInputs& inputs) {
  const std::string def_path = "tools/analyze/knobs.def";
  std::vector<Finding> findings;
  const std::vector<KnobDecl> decls =
      ParseKnobsDef(inputs.knobs_def, def_path, &findings);
  std::map<std::string, const KnobDecl*> registry;
  const std::vector<std::string> def_lines = SplitLines(inputs.knobs_def);
  for (const KnobDecl& decl : decls) {
    if (registry.count(decl.name)) {
      ReportFinding(def_lines, def_path, decl.line, "knobs",
                    "knob-registry-syntax",
                    "duplicate registry entry for " + decl.name, &findings);
      continue;
    }
    registry[decl.name] = &decl;
  }

  // Pass over the tree: collect read sites, check registration and the
  // env-read rules as we go.
  std::set<std::string> knobs_read;
  for (const SourceFile& file : tree.files) {
    const std::vector<Token> tokens = Tokenize(file.contents);
    CheckEnvReads(file, tokens, &findings);
    const std::vector<KnobSite> sites = ExtractSites(tokens, file.path);
    if (sites.empty()) continue;
    const std::vector<std::string> raw = SplitLines(file.contents);
    for (const KnobSite& site : sites) {
      if (!ReadAccessors().count(site.accessor)) continue;  // e.g. setenv
      knobs_read.insert(site.name);
      if (registry.count(site.name)) continue;
      ReportFinding(raw, site.file, site.line, "knobs", "unregistered-knob",
                    site.name + " is read here but not declared in " +
                        def_path + "; add `knob " + site.name +
                        " type=... owner=" + site.file + "`",
                    &findings);
    }
  }

  // Registry-side checks: dead entries and documentation drift, anchored at
  // the registry line so the fix is one edit away.
  for (const KnobDecl& decl : decls) {
    if (!registry.count(decl.name) || registry[decl.name] != &decl) {
      continue;  // duplicate already reported
    }
    if (decl.type != "cmake" && !knobs_read.count(decl.name)) {
      ReportFinding(def_lines, def_path, decl.line, "knobs", "dead-knob",
                    decl.name + " is registered but never read in "
                        "src/ bench/ tests/ examples/; delete the entry (and "
                        "its README row) or wire the knob up",
                    &findings);
    }
    static const std::regex kWord(R"([A-Z0-9_]+)");
    bool documented = false;
    for (auto it = std::sregex_iterator(inputs.readme.begin(),
                                        inputs.readme.end(), kWord);
         it != std::sregex_iterator(); ++it) {
      if (it->str() == decl.name) {
        documented = true;
        break;
      }
    }
    if (!documented) {
      ReportFinding(def_lines, def_path, decl.line, "knobs",
                    "undocumented-knob",
                    decl.name + " is registered but not documented in "
                        "README.md; add it to the knob tables",
                    &findings);
    }
  }

  // README-side check: every WHITENREC_* the README documents must exist in
  // the registry (otherwise the docs describe a knob nothing reads). Header
  // guards and table prose are filtered by the same exact-name rule.
  static const std::regex kDocKnob(R"(WHITENREC_[A-Z0-9_]+)");
  const std::vector<std::string> readme_lines = SplitLines(inputs.readme);
  std::set<std::string> reported_doc;
  for (std::size_t i = 0; i < readme_lines.size(); ++i) {
    for (auto it = std::sregex_iterator(readme_lines[i].begin(),
                                        readme_lines[i].end(), kDocKnob);
         it != std::sregex_iterator(); ++it) {
      const std::string name = it->str();
      if (registry.count(name) || reported_doc.count(name)) continue;
      reported_doc.insert(name);
      ReportFinding(readme_lines, "README.md", i + 1, "knobs",
                    "unregistered-knob",
                    name + " is documented in README.md but missing from " +
                        def_path + "; register it or drop the stale row",
                    &findings);
    }
  }

  SortFindings(&findings);
  return findings;
}

}  // namespace analyze
}  // namespace whitenrec

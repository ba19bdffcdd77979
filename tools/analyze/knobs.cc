#include <algorithm>
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
// README.md, (c) actually read somewhere, and (d) parsed strictly: the
// repo-wide contract (README "Environment knobs") is that a SET but
// MALFORMED value aborts loudly instead of silently running with a default —
// a reproducibility tool that quietly ignores WHITENREC_THREADS=abc has
// already lied about its configuration.
//
// A "read site" is a string literal matching ^WHITENREC_[A-Z0-9_]+$ passed
// as the first argument of a read accessor: std::getenv or one of the strict
// helper wrappers (EnvSize / EnvU64 / EnvSizeOr / EnvDouble / EnvFlag). The
// helpers embody the strict contract; a bare getenv of a numeric or enum
// knob must show its own strtoX-plus-abort handling within the site's
// vicinity (kParseWindow lines) or use a *OrDie parser. type=string knobs
// accept any value, and type=cmake entries are build options (-DWHITENREC_*)
// that never appear as getenv sites; both are exempt from (d), cmake also
// from (c).

namespace whitenrec {
namespace analyze {
namespace {

constexpr std::size_t kParseWindow = 14;  // lines scanned after a bare getenv

const std::set<std::string>& ReadAccessors() {
  static const std::set<std::string> kAccessors = {
      "getenv", "EnvSize", "EnvU64", "EnvSizeOr", "EnvDouble", "EnvFlag"};
  return kAccessors;
}

bool IsNumericType(const std::string& type) {
  return type == "size" || type == "u64" || type == "double";
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
std::vector<KnobSite> ExtractSites(const SourceFile& file) {
  std::vector<KnobSite> sites;
  const std::vector<Token> tokens = Tokenize(file.contents);
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kString) continue;
    const std::string value = StringValue(tokens[i]);
    if (!IsKnobName(value)) continue;
    if (tokens[i - 1].kind != TokKind::kPunct || tokens[i - 1].text != "(") {
      continue;
    }
    if (tokens[i - 2].kind != TokKind::kIdent) continue;
    sites.push_back(
        KnobSite{file.path, tokens[i].line, value, tokens[i - 2].text});
  }
  return sites;
}

// True when the scrubbed lines [site_line, site_line + kParseWindow] show
// strict handling: either delegation to an abort-on-malformed parser
// (...OrDie) or an explicit strtoX parse paired with a loud rejection.
bool StrictParseNearby(const std::vector<std::string>& scrubbed,
                       std::size_t site_line, bool numeric) {
  std::string window;
  const std::size_t last =
      std::min(scrubbed.size(), site_line + kParseWindow);
  for (std::size_t l = site_line; l <= last && l >= 1; ++l) {
    window += scrubbed[l - 1];
    window.push_back('\n');
  }
  if (window.find("OrDie") != std::string::npos) return true;
  const bool rejects_loudly = window.find("abort") != std::string::npos ||
                              window.find("exit") != std::string::npos ||
                              window.find("WR_CHECK") != std::string::npos;
  if (!numeric) return rejects_loudly;  // enum: string compare + abort
  const bool real_parse = window.find("strto") != std::string::npos;
  return real_parse && rejects_loudly;
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

  // Pass over the tree: collect read sites, check registration and strict
  // parsing as we go.
  std::set<std::string> knobs_read;
  for (const SourceFile& file : tree.files) {
    const std::vector<KnobSite> sites = ExtractSites(file);
    if (sites.empty()) continue;
    const std::vector<std::string> raw = SplitLines(file.contents);
    const std::vector<std::string> scrubbed =
        SplitLines(ScrubSource(file.contents));
    const bool strict_scope = file.path.rfind("src/", 0) == 0 ||
                              file.path.rfind("bench/", 0) == 0;
    for (const KnobSite& site : sites) {
      if (!ReadAccessors().count(site.accessor)) continue;  // e.g. ScopedEnv
      knobs_read.insert(site.name);
      const auto it = registry.find(site.name);
      if (it == registry.end()) {
        ReportFinding(raw, site.file, site.line, "knobs", "unregistered-knob",
                      site.name + " is read here but not declared in " +
                          def_path + "; add `knob " + site.name +
                          " type=... owner=" + site.file + "`",
                      &findings);
        continue;
      }
      const std::string& type = it->second->type;
      if (strict_scope && site.accessor == "getenv" && type != "string" &&
          type != "flag" && type != "cmake" &&
          !StrictParseNearby(scrubbed, site.line, IsNumericType(type))) {
        ReportFinding(
            raw, site.file, site.line, "knobs", "lax-knob-parse",
            site.name + " (type=" + type + ") is read via bare getenv " +
                "without visible strict parsing; a set-but-malformed value "
                "must abort loudly — use the EnvSize/EnvU64 helper pattern "
                "(strtoX + end-pointer check + abort), not atoi/atol "
                "fallbacks",
            &findings);
      }
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

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "core/json.h"
#include "tools/analyze/analyze.h"

// ANALYZE.json writer + schema validator. The writer builds the document
// with core::Json and the validator reads it back through core::ParseJson —
// the writer and reader every JSON artifact in the tree uses — so the
// analyze binary can refuse to emit a report it could not itself parse.

namespace whitenrec {
namespace analyze {
namespace {

const char kSchema[] = "whitenrec.analyze.v1";

const std::set<std::string>& KnownPasses() {
  static const std::set<std::string> kPasses = {"layering", "knobs",
                                                "hotalloc"};
  return kPasses;
}

const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      "upward-include", "include-cycle",     "unregistered-knob",
      "dead-knob",      "undocumented-knob", "bare-getenv",
      "library-env",    "knob-registry-syntax", "hot-alloc"};
  return kRules;
}

Status Invalid(const std::string& what) {
  return Status::InvalidArgument("ANALYZE.json: " + what);
}

}  // namespace

std::string ReportJson(const AnalyzeResult& result) {
  using core::Json;
  Json passes = Json::Arr();
  for (const char* pass : {"layering", "knobs", "hotalloc"}) {
    passes.Push(Json::Str(pass));
  }
  Json findings = Json::Arr();
  for (const Finding& f : result.findings) {
    findings.Push(Json::Obj()
                      .Set("file", Json::Str(f.file))
                      .Set("line", Json::Uint(f.line))
                      .Set("pass", Json::Str(f.pass))
                      .Set("rule", Json::Str(f.rule))
                      .Set("message", Json::Str(f.message)));
  }
  return Json::Obj()
             .Set("schema", Json::Str(kSchema))
             .Set("files_scanned", Json::Uint(result.files_scanned))
             .Set("passes", std::move(passes))
             .Set("findings", std::move(findings))
             .Set("clean", Json::Bool(result.findings.empty()))
             .Dump() +
         "\n";
}

Status ValidateAnalyzeReport(const std::string& json) {
  core::JsonValue doc;
  Status parsed = core::ParseJson(json, &doc);
  if (!parsed.ok()) return parsed;
  if (doc.kind != core::JsonValue::Kind::kObject) {
    return Invalid("top level must be an object");
  }
  const auto schema = doc.object.find("schema");
  if (schema == doc.object.end() ||
      schema->second.kind != core::JsonValue::Kind::kString ||
      schema->second.str != kSchema) {
    return Invalid(std::string("schema must be \"") + kSchema + "\"");
  }
  const auto files = doc.object.find("files_scanned");
  if (files == doc.object.end() ||
      files->second.kind != core::JsonValue::Kind::kNumber ||
      files->second.number < 1.0 ||
      files->second.number != std::floor(files->second.number)) {
    return Invalid("files_scanned must be a positive integer");
  }
  const auto passes = doc.object.find("passes");
  if (passes == doc.object.end() ||
      passes->second.kind != core::JsonValue::Kind::kArray) {
    return Invalid("passes must be an array");
  }
  std::set<std::string> declared;
  for (const core::JsonValue& p : passes->second.array) {
    if (p.kind != core::JsonValue::Kind::kString ||
        !KnownPasses().count(p.str)) {
      return Invalid("passes entries must be layering|knobs|hotalloc");
    }
    declared.insert(p.str);
  }
  if (declared.size() != KnownPasses().size()) {
    return Invalid("passes must list every pass exactly once");
  }
  const auto findings = doc.object.find("findings");
  if (findings == doc.object.end() ||
      findings->second.kind != core::JsonValue::Kind::kArray) {
    return Invalid("findings must be an array");
  }
  for (const core::JsonValue& f : findings->second.array) {
    if (f.kind != core::JsonValue::Kind::kObject) {
      return Invalid("finding entries must be objects");
    }
    const auto file = f.object.find("file");
    if (file == f.object.end() ||
        file->second.kind != core::JsonValue::Kind::kString ||
        file->second.str.empty()) {
      return Invalid("finding.file must be a non-empty string");
    }
    const auto line = f.object.find("line");
    if (line == f.object.end() ||
        line->second.kind != core::JsonValue::Kind::kNumber ||
        line->second.number < 1.0 ||
        line->second.number != std::floor(line->second.number)) {
      return Invalid("finding.line must be a positive integer");
    }
    const auto pass = f.object.find("pass");
    if (pass == f.object.end() ||
        pass->second.kind != core::JsonValue::Kind::kString ||
        !KnownPasses().count(pass->second.str)) {
      return Invalid("finding.pass must name a known pass");
    }
    const auto rule = f.object.find("rule");
    if (rule == f.object.end() ||
        rule->second.kind != core::JsonValue::Kind::kString ||
        !KnownRules().count(rule->second.str)) {
      return Invalid("finding.rule must name a known rule");
    }
    const auto message = f.object.find("message");
    if (message == f.object.end() ||
        message->second.kind != core::JsonValue::Kind::kString ||
        message->second.str.empty()) {
      return Invalid("finding.message must be a non-empty string");
    }
  }
  const auto clean = doc.object.find("clean");
  if (clean == doc.object.end() ||
      clean->second.kind != core::JsonValue::Kind::kBool) {
    return Invalid("clean must be a boolean");
  }
  if (clean->second.boolean != findings->second.array.empty()) {
    return Invalid("clean must equal (findings == [])");
  }
  return Status::OK();
}

}  // namespace analyze
}  // namespace whitenrec

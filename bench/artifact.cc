#include "bench/artifact.h"

#include <cstdio>
#include <cstdlib>

#include "core/env.h"
#include "core/faultfs.h"
#include "core/json.h"

namespace whitenrec {
namespace bench {

const std::string& OutDir() {
  static const std::string dir = [] {
    const char* env = core::EnvText("WHITENREC_OUT_DIR");
    std::string d = env != nullptr ? env : "out";
    const Status made = core::EnsureDirectory(d);
    if (!made.ok()) {
      std::fprintf(stderr, "bench: %s\n", made.message().c_str());
      std::exit(EXIT_FAILURE);
    }
    return d;
  }();
  return dir;
}

std::string OutPath(const std::string& file) { return OutDir() + "/" + file; }

Status WriteArtifact(const std::string& path, const std::string& text) {
  Status s = core::AtomicWriteFile(path, text);
  if (!s.ok()) return s;
  Result<std::string> readback = core::ReadFileToString(path);
  if (!readback.ok()) return readback.status();
  if (readback.value() != text) {
    return Status::DataLoss(path + ": bytes read back differ from the "
                                   "bytes written");
  }
  if (path.ends_with(".json")) {
    core::JsonValue doc;
    s = core::ParseJson(readback.value(), &doc);
    if (!s.ok()) return Status::InvalidArgument(path + ": " + s.message());
  }
  std::printf("[out] %s\n", path.c_str());
  return Status::OK();
}

int ExitCode(const std::string& what, const Status& status) {
  if (status.ok()) return 0;
  std::fprintf(stderr, "%s: %s\n", what.c_str(), status.message().c_str());
  return 1;
}

}  // namespace bench
}  // namespace whitenrec

#ifndef WHITENREC_BENCH_ARTIFACT_H_
#define WHITENREC_BENCH_ARTIFACT_H_

// Bench artifacts. Every bench main writes its CSV/JSON outputs under one
// directory — `out/` by default, overridable with WHITENREC_OUT_DIR — which
// is gitignored so result files never end up committed next to the
// sources. JSON documents are built with core::Json (core/json.h).

#include <string>

#include "core/status.h"

namespace whitenrec {
namespace bench {

// Output directory for bench artifacts; created on first use (a failure to
// create it exits the process).
const std::string& OutDir();

// <OutDir()>/<file>.
std::string OutPath(const std::string& file);

// The one write path for bench artifacts: replaces `path` with `text`
// through core::AtomicWriteFile, reads the file back, and returns an error
// unless the bytes match and, for a `.json` path, the text parses
// (core::ParseJson). Prints the path on success.
Status WriteArtifact(const std::string& path, const std::string& text);

// A main's exit code for `status`: 0 when ok; otherwise prints
// "<what>: <message>" on stderr and returns 1.
int ExitCode(const std::string& what, const Status& status);

}  // namespace bench
}  // namespace whitenrec

#endif  // WHITENREC_BENCH_ARTIFACT_H_

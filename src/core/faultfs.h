#ifndef WHITENREC_CORE_FAULTFS_H_
#define WHITENREC_CORE_FAULTFS_H_

#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"

namespace whitenrec {
namespace core {

// Checked filesystem primitives with deterministic fault injection.
//
// Every durable write in src/ goes through this layer (enforced by the
// raw-io lint rule, tools/lint) so that crash consistency is a testable
// property instead of an aspiration: the injector simulates the failure
// modes a real machine exhibits around a kill -9 or a flaky disk — short
// writes, torn renames, EIO, and silent bit-flips — from a seeded PRNG, so
// a failing fault schedule is reproducible from its seed alone.
//
// The injector starts disabled (seed 1, rate 0). Configure sets the
// probability in [0, 1] that any single I/O operation faults; test mains
// take it from WHITENREC_FAULT_SEED / WHITENREC_FAULT_RATE.
//
// Transient faults (EIO, short write, torn rename) are retried internally
// with a bounded, deterministic backoff schedule; bit-flips complete
// "successfully" and are only caught by the checksums in nn/serialize.h.

enum class FaultKind {
  kNone = 0,
  kShortWrite,   // only a prefix of the payload reaches the temp file
  kTornRename,   // destination left holding a prefix of the new payload
  kEio,          // the operation fails outright with an I/O error
  kBitFlip,      // one bit of the payload is silently corrupted
};

struct FaultStats {
  std::uint64_t operations = 0;  // injection decisions taken
  std::uint64_t short_writes = 0;
  std::uint64_t torn_renames = 0;
  std::uint64_t eio = 0;
  std::uint64_t bit_flips = 0;

  std::uint64_t injected() const {
    return short_writes + torn_renames + eio + bit_flips;
  }
};

// Process-global fault injector. Deterministic: the decision sequence is a
// pure function of (seed, rate, operation order). Thread-safe; the
// checkpoint paths that consult it are single-threaded, so determinism is
// not at the mercy of thread scheduling.
class FaultInjector {
 public:
  static FaultInjector& Global();

  // Sets the schedule: rate must be finite and is clamped to [0, 1];
  // rate <= 0 disables injection. Resets the schedule and the counters.
  void Configure(std::uint64_t seed, double rate);

  double rate() const;
  std::uint64_t seed() const;
  FaultStats stats() const;

  // Draws the fault decision for the next operation, restricted to the
  // kinds that operation supports. Returns kNone when disabled or when the
  // per-operation coin flip passes.
  FaultKind Next(std::initializer_list<FaultKind> allowed);
  // Deterministic value draw in [0, n) for fault parameterization (which
  // bit to flip, where to truncate).
  std::uint64_t NextBelow(std::uint64_t n);

 private:
  FaultInjector() = default;

  mutable std::mutex mu_;
  std::uint64_t seed_ = 1;
  double rate_ = 0.0;
  std::uint64_t state_ = 0;  // SplitMix64 stream
  FaultStats stats_;
};

// RAII override of the global injector configuration; restores the previous
// (seed, rate) on destruction. Lets individual tests run fault-free setup
// while the surrounding binary sweeps WHITENREC_FAULT_RATE.
class ScopedFaultConfig {
 public:
  ScopedFaultConfig(std::uint64_t seed, double rate);
  ~ScopedFaultConfig();
  ScopedFaultConfig(const ScopedFaultConfig&) = delete;
  ScopedFaultConfig& operator=(const ScopedFaultConfig&) = delete;

 private:
  std::uint64_t prev_seed_;
  double prev_rate_;
};

// Reads the whole file into a string. Injected EIO is retried with the
// deterministic backoff; a persistent failure (or a genuinely missing /
// unreadable file) returns kIOError.
Result<std::string> ReadFileToString(const std::string& path);

// Atomically replaces `path` with `bytes`: writes `path`.tmp, fsyncs it,
// renames it over `path`, fsyncs the parent directory. On success the
// destination holds either the old content or the full new payload — never
// a partial new payload — except under an injected torn-rename fault that
// exhausts the retry budget (the simulated mid-replace crash the checkpoint
// loader must survive). Single-writer per path by contract: the temp name
// is deterministic.
Status AtomicWriteFile(const std::string& path, const std::string& bytes);

// Deletes `path`; missing files are not an error.
Status RemoveFileIfExists(const std::string& path);

// mkdir -p equivalent.
Status EnsureDirectory(const std::string& path);

// Regular-file names (not paths) in `dir`, sorted ascending.
Result<std::vector<std::string>> ListDirectory(const std::string& dir);

bool FileExists(const std::string& path);

}  // namespace core
}  // namespace whitenrec

#endif  // WHITENREC_CORE_FAULTFS_H_

#ifndef WHITENREC_SERVE_DEGRADE_H_
#define WHITENREC_SERVE_DEGRADE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/status.h"

namespace whitenrec {
namespace serve {

// One rung of the degradation ladder: which Scorer backend answers requests
// while the service sits on this rung. Rung 0 is full quality; higher rungs
// trade recommendation quality for service time.
enum class RungKind { kExact, kIvf, kPopularity };

const char* RungKindName(RungKind kind);

struct LadderRung {
  RungKind kind = RungKind::kExact;
  // kIvf only: probed clusters per query (>= 1). Lower = cheaper.
  std::size_t nprobe = 0;
  // Relative virtual service cost vs. exact scoring, in (0, 1]. Consumed by
  // the degrade harness to advance its virtual clock; pure metadata here.
  double cost_factor = 1.0;
};

// Parses a ladder spec — comma-separated rungs, each one of
//   exact | ivf:<nprobe> | popularity
// e.g. "exact,ivf:8,ivf:2,popularity".
// Rejects empty specs, unknown rung names, and ivf without a positive
// nprobe. Cost factors are assigned per kind (exact 1.0; ivf shrinking with
// nprobe; popularity 0.02).
Result<std::vector<LadderRung>> ParseLadderSpec(const std::string& spec);

struct LadderConfig {
  // rungs[0] serves in the steady state; may be empty = no ladder (the
  // service pins rung 0 behavior and never degrades).
  std::vector<LadderRung> rungs;
  // Queue-depth watermarks (requests waiting when a batch is cut).
  std::size_t high_watermark = 48;
  std::size_t low_watermark = 4;
  // Hysteresis: consecutive observations >= high before stepping DOWN the
  // ladder (toward cheaper rungs), and <= low before stepping back UP.
  // Degrade fast, recover slow.
  std::size_t degrade_after = 1;
  std::size_t recover_after = 4;
};

// Hysteresis state machine over queue-depth observations. Observe(depth) is
// called once per cut batch on the serial control path; the returned rung
// index is a pure function of the sequence of depths observed since
// construction/Reset — no clocks, no randomness — so ladder trajectories
// replay bitwise for a fixed trace at any thread count (DESIGN.md §13).
class DegradationLadder {
 public:
  explicit DegradationLadder(const LadderConfig& config);

  // Feeds one queue-depth observation; returns the rung that should serve
  // the batch being cut.
  std::size_t Observe(std::size_t queue_depth);

  std::size_t rung() const { return rung_; }
  std::size_t num_rungs() const { return config_.rungs.size(); }
  const LadderRung& rung_spec(std::size_t r) const { return config_.rungs[r]; }
  void Reset();

 private:
  LadderConfig config_;
  std::size_t rung_ = 0;
  std::size_t high_run_ = 0;  // consecutive observations >= high_watermark
  std::size_t low_run_ = 0;   // consecutive observations <= low_watermark
};

}  // namespace serve
}  // namespace whitenrec

#endif  // WHITENREC_SERVE_DEGRADE_H_

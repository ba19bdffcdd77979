#ifndef WHITENREC_SERVE_CHAOS_H_
#define WHITENREC_SERVE_CHAOS_H_

#include <cstdint>
#include <initializer_list>
#include <mutex>

namespace whitenrec {
namespace serve {

// Serving-plane fault injection: the core/faultfs FaultInjector pattern
// lifted above the filesystem. Where faultfs perturbs durable writes, this
// injector perturbs the serving loop — latency spikes on the virtual clock,
// corrupted ingest feature rows, and refits dropped before commit.
//
// There is no process-wide instance. A service consults the injector its
// ServeConfig::chaos points to, once per refit, after the fit and the guard
// and before the first write (DESIGN.md §13); null injects nothing. The
// degrade harness (bench/degrade_harness.h) and the tests own their
// injectors; bench_degrade takes the schedule from WHITENREC_CHAOS_SEED /
// WHITENREC_CHAOS_RATE.
//
// An injector starts disabled (seed 1, rate 0). Configure sets the
// probability in [0, 1] that any single decision point faults.
//
// Determinism: the decision sequence is a pure function of
// (seed, rate, decision order). Every consultation site sits on the serial
// serving control path (admission, refit, the virtual-clock harness), so the
// decision order — and therefore the whole chaos schedule — is reproducible
// from the seed alone at any thread count.

enum class ChaosKind {
  kNone = 0,
  kLatencySpike,   // the batch's virtual service time is inflated
  kCorruptIngest,  // an ingest feature row is poisoned before validation
  kRefitFailure,   // the refit is dropped before it commits
};

// Thread-safe, though every call site is on a serial control path by design
// (see above).
class ChaosInjector {
 public:
  // Sets the schedule: rate must be finite and is clamped to [0, 1];
  // rate <= 0 disables injection. Restarts the schedule.
  void Configure(std::uint64_t seed, double rate);

  // Draws the fault decision for the next decision point, restricted to the
  // kinds that point supports. Returns kNone when disabled or when the
  // per-decision coin flip passes.
  ChaosKind Next(std::initializer_list<ChaosKind> allowed);
  // Deterministic value draw in [0, n) for fault parameterization (spike
  // magnitude, which feature column to poison). n == 0 returns 0.
  std::uint64_t NextBelow(std::uint64_t n);

 private:
  std::mutex mu_;
  double rate_ = 0.0;
  std::uint64_t state_ = 1;  // SplitMix64 stream, seeded by Configure
};

}  // namespace serve
}  // namespace whitenrec

#endif  // WHITENREC_SERVE_CHAOS_H_

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
// corrupted ingest feature rows, and refit failures injected between the
// feature swap and the index rebuild (the widest window for a torn update).
//
// The injector starts disabled (seed 1, rate 0). Configure sets the
// probability in [0, 1] that any single decision point faults; test mains
// take it from WHITENREC_CHAOS_SEED / WHITENREC_CHAOS_RATE and bench_degrade
// from the same knobs with its own defaults.
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
  kRefitFailure,   // the refit fails mid-swap and must roll back
};

struct ChaosStats {
  std::uint64_t decisions = 0;  // injection decisions taken
  std::uint64_t latency_spikes = 0;
  std::uint64_t corrupt_ingests = 0;
  std::uint64_t refit_failures = 0;

  std::uint64_t injected() const {
    return latency_spikes + corrupt_ingests + refit_failures;
  }
};

// Process-global chaos injector; thread-safe, though every call site is on
// a serial control path by design (see above).
class ChaosInjector {
 public:
  static ChaosInjector& Global();

  // Sets the schedule: rate must be finite and is clamped to [0, 1];
  // rate <= 0 disables injection. Resets the schedule and the counters.
  void Configure(std::uint64_t seed, double rate);

  double rate() const;
  std::uint64_t seed() const;
  ChaosStats stats() const;

  // Draws the fault decision for the next decision point, restricted to the
  // kinds that point supports. Returns kNone when disabled or when the
  // per-decision coin flip passes.
  ChaosKind Next(std::initializer_list<ChaosKind> allowed);
  // Deterministic value draw in [0, n) for fault parameterization (spike
  // magnitude, which feature column to poison). n == 0 returns 0.
  std::uint64_t NextBelow(std::uint64_t n);

 private:
  ChaosInjector() = default;

  mutable std::mutex mu_;
  std::uint64_t seed_ = 1;
  double rate_ = 0.0;
  std::uint64_t state_ = 0;  // SplitMix64 stream
  ChaosStats stats_;
};

// RAII override of the global injector configuration; restores the previous
// (seed, rate) on destruction. Lets individual tests pin a chaos schedule
// while the surrounding binary sweeps WHITENREC_CHAOS_RATE.
class ScopedChaosConfig {
 public:
  ScopedChaosConfig(std::uint64_t seed, double rate);
  ~ScopedChaosConfig();
  ScopedChaosConfig(const ScopedChaosConfig&) = delete;
  ScopedChaosConfig& operator=(const ScopedChaosConfig&) = delete;

 private:
  std::uint64_t prev_seed_;
  double prev_rate_;
};

}  // namespace serve
}  // namespace whitenrec

#endif  // WHITENREC_SERVE_CHAOS_H_

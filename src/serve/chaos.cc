#include "serve/chaos.h"

#include <cmath>

#include "core/check.h"

namespace whitenrec {
namespace serve {
namespace {

// SplitMix64, same stream construction as core/faultfs: the schedule must be
// a pure function of (seed, rate, decision order) with no shared state with
// the model/traffic Rngs, so the two injectors deliberately share an
// implementation idiom rather than an Rng instance.
std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ChaosInjector& ChaosInjector::Global() {
  static ChaosInjector* injector = new ChaosInjector();
  return *injector;
}

void ChaosInjector::Configure(std::uint64_t seed, double rate) {
  WR_CHECK_MSG(std::isfinite(rate), "chaos rate must be finite");
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
  rate_ = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
  state_ = seed;
  stats_ = ChaosStats{};
}

double ChaosInjector::rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rate_;
}

std::uint64_t ChaosInjector::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

ChaosStats ChaosInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ChaosKind ChaosInjector::Next(std::initializer_list<ChaosKind> allowed) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.decisions;
  if (rate_ <= 0.0 || allowed.size() == 0) return ChaosKind::kNone;
  const double u =
      static_cast<double>(SplitMix64(&state_) >> 11) * 0x1.0p-53;
  if (u >= rate_) return ChaosKind::kNone;
  const std::uint64_t pick = SplitMix64(&state_) % allowed.size();
  const ChaosKind kind = allowed.begin()[pick];
  switch (kind) {
    case ChaosKind::kLatencySpike: ++stats_.latency_spikes; break;
    case ChaosKind::kCorruptIngest: ++stats_.corrupt_ingests; break;
    case ChaosKind::kRefitFailure: ++stats_.refit_failures; break;
    case ChaosKind::kNone: break;
  }
  return kind;
}

std::uint64_t ChaosInjector::NextBelow(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (n == 0) return 0;
  return SplitMix64(&state_) % n;
}

ScopedChaosConfig::ScopedChaosConfig(std::uint64_t seed, double rate)
    : prev_seed_(ChaosInjector::Global().seed()),
      prev_rate_(ChaosInjector::Global().rate()) {
  ChaosInjector::Global().Configure(seed, rate);
}

ScopedChaosConfig::~ScopedChaosConfig() {
  ChaosInjector::Global().Configure(prev_seed_, prev_rate_);
}

}  // namespace serve
}  // namespace whitenrec

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

void ChaosInjector::Configure(std::uint64_t seed, double rate) {
  WR_CHECK_MSG(std::isfinite(rate), "chaos rate must be finite");
  std::lock_guard<std::mutex> lock(mu_);
  rate_ = rate < 0.0 ? 0.0 : (rate > 1.0 ? 1.0 : rate);
  state_ = seed;
}

ChaosKind ChaosInjector::Next(std::initializer_list<ChaosKind> allowed) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rate_ <= 0.0 || allowed.size() == 0) return ChaosKind::kNone;
  const double u =
      static_cast<double>(SplitMix64(&state_) >> 11) * 0x1.0p-53;
  if (u >= rate_) return ChaosKind::kNone;
  const std::uint64_t pick = SplitMix64(&state_) % allowed.size();
  return allowed.begin()[pick];
}

std::uint64_t ChaosInjector::NextBelow(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (n == 0) return 0;
  return SplitMix64(&state_) % n;
}

}  // namespace serve
}  // namespace whitenrec

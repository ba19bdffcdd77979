#include "serve/degrade.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "core/check.h"

namespace whitenrec {
namespace serve {
namespace {

// Virtual cost model for the harness: IVF cost grows with nprobe but never
// reaches the exact pass; the popularity fallback touches no embeddings at
// all. These are coarse planning weights, not measurements.
double IvfCostFactor(std::size_t nprobe) {
  const double f = 0.15 + 0.05 * static_cast<double>(nprobe);
  return std::min(1.0, f);
}

}  // namespace

const char* RungKindName(RungKind kind) {
  switch (kind) {
    case RungKind::kExact: return "exact";
    case RungKind::kIvf: return "ivf";
    case RungKind::kPopularity: return "popularity";
  }
  return "?";
}

Result<std::vector<LadderRung>> ParseLadderSpec(const std::string& spec) {
  std::vector<LadderRung> rungs;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    pos = comma + 1;
    LadderRung rung;
    if (token == "exact") {
      rung.kind = RungKind::kExact;
      rung.cost_factor = 1.0;
    } else if (token == "popularity") {
      rung.kind = RungKind::kPopularity;
      rung.cost_factor = 0.02;
    } else if (token.rfind("ivf:", 0) == 0) {
      // Decimal digits only: strtoull alone would take a sign, and "-1"
      // wraps to 2^64 - 1.
      const std::string num = token.substr(4);
      const bool digits =
          !num.empty() && num.find_first_not_of("0123456789") ==
                              std::string::npos;
      errno = 0;
      const unsigned long long v =
          digits ? std::strtoull(num.c_str(), nullptr, 10) : 0;
      if (!digits || errno != 0 || v == 0) {
        return Status::InvalidArgument("ladder rung \"" + token +
                                       "\": ivf needs a positive nprobe");
      }
      rung.kind = RungKind::kIvf;
      rung.nprobe = static_cast<std::size_t>(v);
      rung.cost_factor = IvfCostFactor(rung.nprobe);
    } else {
      return Status::InvalidArgument(
          "ladder rung \"" + token +
          "\": expected exact | ivf:<nprobe> | popularity");
    }
    rungs.push_back(rung);
  }
  if (rungs.empty()) {
    return Status::InvalidArgument("empty ladder spec");
  }
  return rungs;
}

DegradationLadder::DegradationLadder(const LadderConfig& config)
    : config_(config) {
  WR_CHECK(!config_.rungs.empty());
  WR_CHECK(config_.low_watermark < config_.high_watermark);
  WR_CHECK(config_.degrade_after >= 1);
  WR_CHECK(config_.recover_after >= 1);
}

std::size_t DegradationLadder::Observe(std::size_t queue_depth) {
  if (queue_depth >= config_.high_watermark) {
    ++high_run_;
    low_run_ = 0;
  } else if (queue_depth <= config_.low_watermark) {
    ++low_run_;
    high_run_ = 0;
  } else {
    // The dead band between the watermarks breaks both runs: a depth that
    // hovers there holds the current rung (that is the hysteresis).
    high_run_ = 0;
    low_run_ = 0;
  }
  if (high_run_ >= config_.degrade_after && rung_ + 1 < config_.rungs.size()) {
    ++rung_;
    high_run_ = 0;
  } else if (low_run_ >= config_.recover_after && rung_ > 0) {
    --rung_;
    low_run_ = 0;
  }
  return rung_;
}

void DegradationLadder::Reset() {
  rung_ = 0;
  high_run_ = 0;
  low_run_ = 0;
}

}  // namespace serve
}  // namespace whitenrec

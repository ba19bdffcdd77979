#include "serve/latency_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"

namespace whitenrec {
namespace serve {
namespace {

// Position of the highest set bit (floor log2); value must be nonzero.
std::size_t HighBit(std::uint64_t value) {
  std::size_t bit = 0;
  while (value >>= 1) ++bit;
  return bit;
}

// log2(kLogSubBuckets): the exact region [0, kExactMax) spans exactly two
// sub-bucket runs, so the log region starts at exponent kLogShift + 1.
constexpr std::size_t kLogShift = 7;
static_assert(LatencyHistogram::kLogSubBuckets == (1u << kLogShift),
              "sub-bucket count must be a power of two");
static_assert(LatencyHistogram::kExactMax == (2u << kLogShift),
              "exact region must end where the log region begins");

}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(NumBuckets(), 0),
      min_(std::numeric_limits<std::uint64_t>::max()) {}

std::size_t LatencyHistogram::NumBuckets() {
  // Exponents kLogShift+1 .. 63 each contribute kLogSubBuckets buckets:
  // that is 63 - kLogShift runs. (The previous count dropped the final
  // exponent-63 run, so Record(v) for v >= 2^63 wrote one full sub-bucket
  // run past the end of buckets_ — the overflow bucket now exists, and the
  // last bucket's lower bound (2^63 + 127 * 2^56) still fits uint64.)
  return kExactMax + (63 - kLogShift) * kLogSubBuckets;
}

std::size_t LatencyHistogram::BucketIndex(std::uint64_t value) {
  if (value < kExactMax) return static_cast<std::size_t>(value);
  const std::size_t exp = HighBit(value);  // >= kLogShift + 1
  const std::size_t shift = exp - kLogShift;
  const std::size_t sub =
      static_cast<std::size_t>(value >> shift) - kLogSubBuckets;
  return kExactMax + (exp - kLogShift - 1) * kLogSubBuckets + sub;
}

std::uint64_t LatencyHistogram::BucketLowerBound(std::size_t index) {
  WR_CHECK_LT(index, NumBuckets());
  if (index < kExactMax) return index;
  const std::size_t rest = index - kExactMax;
  const std::size_t shift = rest / kLogSubBuckets + 1;
  const std::size_t sub = rest % kLogSubBuckets;
  return static_cast<std::uint64_t>(kLogSubBuckets + sub) << shift;
}

void LatencyHistogram::Record(std::uint64_t value_ns) {
  ++buckets_[BucketIndex(value_ns)];
  ++count_;
  sum_ += value_ns;
  if (value_ns < min_) min_ = value_ns;
  if (value_ns > max_) max_ = value_ns;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t LatencyHistogram::min() const {
  return count_ == 0 ? 0 : min_;
}

double LatencyHistogram::Mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) return BucketLowerBound(i);
  }
  return max_;  // unreachable: cumulative == count_ >= rank by the clamp
}

}  // namespace serve
}  // namespace whitenrec

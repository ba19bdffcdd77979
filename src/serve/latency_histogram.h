#ifndef WHITENREC_SERVE_LATENCY_HISTOGRAM_H_
#define WHITENREC_SERVE_LATENCY_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace whitenrec {
namespace serve {

// Deterministic log-linear latency histogram (HDR-style) over nanosecond
// values. Values below kExactMax land in unit-width buckets and are recorded
// exactly; above that, bucket width doubles every kLogSubBuckets buckets, so
// the relative quantile error is bounded by 1/kLogSubBuckets.
//
// Everything is integer arithmetic on fixed bucket counts, so Record order
// never matters and Merge is exactly associative and commutative bucket-wise
// — per-thread histograms combine into the same aggregate no matter the
// merge tree (tests/serving_test.cc checks both properties).
class LatencyHistogram {
 public:
  // Unit-width region: values in [0, kExactMax) are exact.
  static constexpr std::uint64_t kExactMax = 256;
  // Buckets per power of two beyond the exact region.
  static constexpr std::size_t kLogSubBuckets = 128;

  LatencyHistogram();

  void Record(std::uint64_t value_ns);
  void Merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const;  // 0 when empty
  std::uint64_t max() const { return max_; }
  double Mean() const;        // 0 when empty

  // Inverse-CDF quantile: the lower bound of the bucket holding the
  // ceil(q * count)-th smallest recorded value (rank clamped to [1, count]).
  // Exact for values < kExactMax; 0 when empty. q outside [0, 1] is clamped.
  std::uint64_t Quantile(double q) const;

  // Bucket layout introspection (used by the tests).
  static std::size_t BucketIndex(std::uint64_t value);
  static std::uint64_t BucketLowerBound(std::size_t index);
  static std::size_t NumBuckets();

  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace serve
}  // namespace whitenrec

#endif  // WHITENREC_SERVE_LATENCY_HISTOGRAM_H_

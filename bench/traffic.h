#ifndef WHITENREC_BENCH_TRAFFIC_H_
#define WHITENREC_BENCH_TRAFFIC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace whitenrec {
namespace bench {

// Synthetic serving traffic: sessions hit the service at Zipf-distributed
// rates (a few hot sessions dominate, matching production skew) with
// exponentially distributed interarrival gaps on a virtual nanosecond
// clock. Every draw comes from one explicitly seeded linalg::Rng, so the
// same config always yields the same trace byte-for-byte — the serving
// determinism tests replay traces and compare responses bitwise.
struct TrafficConfig {
  std::size_t num_sessions = 64;
  std::size_t num_requests = 1024;
  double zipf_exponent = 1.0;          // 0 = uniform session popularity
  double mean_interarrival_ns = 1e5;   // ~10k requests/sec virtual offered load
  std::uint64_t seed = 17;
  // Per-request deadline budget relative to arrival; 0 = no deadlines.
  // Deadlines monotone in arrival (arrival + constant) can never invert a
  // session's EDF order (serve/admission.h).
  std::uint64_t deadline_ns = 0;
};

struct TraceRequest {
  std::uint64_t arrival_ns = 0;   // virtual clock, strictly increasing
  std::uint64_t session_id = 0;
  std::size_t item = 0;           // item the session just consumed
  std::uint64_t deadline_ns = 0;  // absolute deadline; 0 = none
};

// Builds a request trace over the given user histories (data::Dataset
// sequences): session s replays the items of user s mod #users cyclically,
// so item streams look like real per-user consumption. Users with empty
// sequences are skipped; at least one non-empty sequence is required.
std::vector<TraceRequest> GenerateTrace(
    const std::vector<std::vector<std::size_t>>& sequences,
    const TrafficConfig& config);

}  // namespace bench
}  // namespace whitenrec

#endif  // WHITENREC_BENCH_TRAFFIC_H_

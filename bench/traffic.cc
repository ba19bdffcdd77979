#include "bench/traffic.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "linalg/rng.h"

namespace whitenrec {
namespace bench {

std::vector<TraceRequest> GenerateTrace(
    const std::vector<std::vector<std::size_t>>& sequences,
    const TrafficConfig& config) {
  WR_CHECK(config.num_sessions > 0);
  WR_CHECK(config.mean_interarrival_ns > 0.0);

  // Sessions replay real user histories; skip users with nothing to replay.
  std::vector<const std::vector<std::size_t>*> histories;
  for (const std::vector<std::size_t>& seq : sequences) {
    if (!seq.empty()) histories.push_back(&seq);
  }
  WR_CHECK(!histories.empty());

  // Zipf CDF over sessions: weight(s) = (s + 1)^-a, sampled by inverting a
  // uniform draw with binary search. Precomputing the CDF keeps each draw
  // O(log S) and independent of floating-point summation order at sample
  // time (the prefix sum itself is a fixed ascending reduction).
  std::vector<double> cdf(config.num_sessions);
  double total = 0.0;
  for (std::size_t s = 0; s < config.num_sessions; ++s) {
    total += std::pow(static_cast<double>(s + 1), -config.zipf_exponent);
    cdf[s] = total;
  }

  linalg::Rng rng(config.seed);
  std::vector<std::size_t> cursor(config.num_sessions, 0);
  std::vector<TraceRequest> trace;
  trace.reserve(config.num_requests);
  std::uint64_t clock_ns = 0;
  for (std::size_t r = 0; r < config.num_requests; ++r) {
    // Exponential interarrival gap, floored at 1 ns so arrivals are strictly
    // increasing and batch-window assignment is unambiguous.
    const double u = rng.Uniform();
    const double gap = -std::log(1.0 - u) * config.mean_interarrival_ns;
    std::uint64_t gap_ns = static_cast<std::uint64_t>(gap);
    if (gap_ns < 1) gap_ns = 1;
    clock_ns += gap_ns;

    const double draw = rng.Uniform() * total;
    const std::size_t session = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), draw) - cdf.begin());
    const std::vector<std::size_t>& hist =
        *histories[session % histories.size()];
    TraceRequest req;
    req.arrival_ns = clock_ns;
    req.session_id = session;
    req.item = hist[cursor[session]++ % hist.size()];
    if (config.deadline_ns > 0) {
      req.deadline_ns = clock_ns + config.deadline_ns;
    }
    trace.push_back(req);
  }
  return trace;
}

}  // namespace bench
}  // namespace whitenrec

#include "measure.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

// 1-based nearest rank of quantile q among n samples.
std::size_t NearestRank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n));
  return std::max<std::size_t>(1, static_cast<std::size_t>(r));
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty() || !(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("Quantile: empty sample or q outside [0, 1]");
  }
  const std::size_t k = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

double SlowSideTime(const std::vector<double>& durations) {
  return Quantile(durations, 0.75);
}

double SlowSideRate(const std::vector<double>& rates) {
  return Quantile(rates, 0.25);
}

bool TailSupported(std::size_t n, double q) {
  return n > 0 && n - NearestRank(n, q) >= 10;
}

double HighestSupportedQuantile(std::size_t n) {
  if (n < 10) return 0.0;
  return 1.0 - 10.0 / static_cast<double>(n);
}

std::vector<std::uint64_t> SelfTimes(const std::vector<Interval>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Interval& s : spans) {
    if (s.parent < 0) continue;
    const Interval& p = spans[static_cast<std::size_t>(s.parent)];
    const std::uint64_t a = std::max(s.start, p.start);
    const std::uint64_t b = std::min(s.end, p.end);
    if (a < b) children[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>>& c = children[i];
    std::sort(c.begin(), c.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_a = 0;
    std::uint64_t cur_b = 0;
    bool open = false;
    for (const auto& iv : c) {
      if (open && iv.first <= cur_b) {
        cur_b = std::max(cur_b, iv.second);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = iv.first;
      cur_b = iv.second;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    const std::uint64_t len =
        spans[i].end > spans[i].start ? spans[i].end - spans[i].start : 0;
    self[i] = len - std::min(len, covered);
  }
  return self;
}

OpenLoop::OpenLoop(std::vector<Event> events, std::uint64_t window_ns,
                   std::size_t max_batch)
    : events_(std::move(events)),
      window_ns_(window_ns),
      max_batch_(std::max<std::size_t>(1, max_batch)),
      completion_(events_.size(), 0),
      wait_(events_.size(), 0) {
  for (std::size_t i = 1; i < events_.size(); ++i) {
    if (events_[i].due_ns < events_[i - 1].due_ns) {
      throw std::invalid_argument("OpenLoop: schedule is not sorted");
    }
  }
}

Operation OpenLoop::Next() {
  if (Finished()) throw std::logic_error("OpenLoop::Next past the end");
  Operation op;
  op.begin = next_;
  op.kind = events_[next_].kind;
  const std::uint64_t due = events_[next_].due_ns;
  if (op.kind == EventKind::kIngest) {
    op.start_ns = std::max(due, free_ns_);
    op.end = next_ + 1;
  } else {
    op.start_ns = due < free_ns_ ? free_ns_ : due + window_ns_;
    std::size_t end = next_;
    while (end < events_.size() && end - next_ < max_batch_ &&
           events_[end].kind == EventKind::kRequest &&
           events_[end].due_ns <= op.start_ns) {
      ++end;
    }
    op.end = end;
  }
  next_ = op.end;
  return op;
}

std::uint64_t OpenLoop::Complete(const Operation& op,
                                 std::uint64_t duration_ns) {
  free_ns_ = op.start_ns + duration_ns;
  for (std::size_t i = op.begin; i < op.end; ++i) {
    completion_[i] = free_ns_;
    wait_[i] = op.start_ns - events_[i].due_ns;
  }
  return free_ns_;
}

}  // namespace perfbench

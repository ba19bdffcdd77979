#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measuring math of the benchmark, kept free of library dependencies so
// perfbench_test can check it on hand-computed inputs.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank quantile of raw samples: the ceil(q * n)-th smallest value
// (the minimum for q == 0). Requires a non-empty sample and q in [0, 1].
double Quantile(std::vector<double> samples, double q);

double Median(const std::vector<double>& samples);

// The slow-side quartile of per-unit samples: the upper quartile of
// durations, the lower quartile of rates. On the host this was tuned on the
// slow phase is the steady one, so this statistic moves less from run to run
// than the median (README.md, "host noise"). Requires a non-empty sample.
double SlowSideTime(const std::vector<double>& durations);
double SlowSideRate(const std::vector<double>& rates);

// A tail quantile is reported only when at least ten samples lie beyond its
// rank: n - ceil(q * n) >= 10. The median is always reported.
bool TailSupported(std::size_t n, double q);

// The highest quantile q = 1 - 10 / n that keeps ten samples beyond it
// (0 when n < 10, i.e. no tail is supported).
double HighestSupportedQuantile(std::size_t n);

// An interval [start, end) with an optional parent index (-1 = root).
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  long parent = -1;
};

// Self time of every interval: its length minus the part of it covered by
// the union of its direct children (children are clipped to the parent, and
// overlapping children are counted once).
std::vector<std::uint64_t> SelfTimes(const std::vector<Interval>& spans);

// One event of an open-loop schedule on the virtual clock.
enum class EventKind { kRequest, kIngest };
struct Event {
  std::uint64_t due_ns = 0;
  EventKind kind = EventKind::kRequest;
};

// One server operation cut from the schedule: events [begin, end) start
// together at start_ns. A request batch holds consecutive requests; an
// ingest operation holds exactly one ingest.
struct Operation {
  std::size_t begin = 0;
  std::size_t end = 0;
  EventKind kind = EventKind::kRequest;
  std::uint64_t start_ns = 0;
};

// Single-server open loop on a virtual clock. Events arrive at their due
// times whatever the server does; the server runs one operation at a time
// and the caller reports each operation's measured duration:
//   - a server that is idle when a request falls due at d (free at or
//     before d) waits one batching window and starts at d + window; a busy
//     server starts the next batch the moment it is free;
//   - a batch takes every consecutive request due by its start, up to
//     max_batch, and stops before an ingest;
//   - an ingest starts at max(due, server free).
// A request's latency is its batch's completion minus its due time, so a
// stall delays every request queued behind it. The generator is never late
// on the virtual clock, by construction.
class OpenLoop {
 public:
  OpenLoop(std::vector<Event> events, std::uint64_t window_ns,
           std::size_t max_batch);

  bool Finished() const { return next_ >= events_.size(); }
  // Index of the first event not yet cut into an operation.
  std::size_t next_event() const { return next_; }
  // Cuts the next operation. Requires !Finished(), and the previous
  // operation to have been completed.
  Operation Next();
  // Records the operation's measured duration; returns its completion time.
  std::uint64_t Complete(const Operation& op, std::uint64_t duration_ns);

  std::uint64_t server_free_ns() const { return free_ns_; }
  // Per-event completion time (0 until completed) and queue wait (start -
  // due), indexed like the schedule.
  const std::vector<std::uint64_t>& completion_ns() const {
    return completion_;
  }
  const std::vector<std::uint64_t>& wait_ns() const { return wait_; }
  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
  std::uint64_t window_ns_;
  std::size_t max_batch_;
  std::size_t next_ = 0;
  std::uint64_t free_ns_ = 0;
  std::vector<std::uint64_t> completion_;
  std::vector<std::uint64_t> wait_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_

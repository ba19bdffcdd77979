#ifndef WHITENREC_SERVE_ADMISSION_H_
#define WHITENREC_SERVE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <vector>

namespace whitenrec {
namespace serve {

// A serving request. arrival_ns/deadline_ns live on the caller's virtual
// clock (bench/traffic.h generates traces on one); deadline_ns is absolute
// and 0 means "no deadline" — such requests sort after every deadlined
// request and are never dropped as overdue. The first two fields keep their
// historical order so existing aggregate initializers
// (ServeRequest{session, item}) stay valid.
struct ServeRequest {
  std::uint64_t session_id = 0;
  std::size_t item = 0;  // the item the session just consumed
  std::uint64_t arrival_ns = 0;
  std::uint64_t deadline_ns = 0;
};

// One queue entry: the request plus its admission sequence number — a
// monotone counter assigned on Offer, the queue's logical arrival clock.
struct AdmittedRequest {
  ServeRequest request;
  std::uint64_t seq = 0;
};

struct AdmissionConfig {
  // Requests the queue holds, at most; an Offer beyond this sheds exactly
  // one request (possibly the offered one). 0 sheds everything.
  std::size_t queue_max = 1024;
};

// Bounded earliest-deadline-first admission queue with deterministic
// shedding (DESIGN.md §13).
//
// Every entry is ordered by the strict total order
//     (effective deadline asc, seq asc, session_id asc)
// where the effective deadline of a deadline-free request is UINT64_MAX.
// Because seq is unique the order is total, so:
//   * PopBatch serves the EDF prefix — the unique minimal set under the
//     order — and returns it sorted by seq, preserving per-session arrival
//     order inside the batch;
//   * an overflowing Offer sheds the unique MAXIMUM — latest deadline, then
//     latest arrival, then largest session id — which may be the offered
//     request itself;
//   * DropOverdue removes the unique prefix of expired deadlines.
// All three decisions are pure functions of the offer sequence and the
// clock values passed in. No wall clock, no thread identity: the shed set
// and the served order are bitwise reproducible at any thread count.
//
// Note on EDF vs. session order: across batches, EDF may serve a session's
// later-deadline request after its earlier-deadline one even if the arrivals
// were the other way around. Deadlines that are monotone in arrival within a
// session (e.g. arrival + constant budget, as GenerateTrace assigns) can
// never invert; the queue does not enforce this.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionConfig& config);

  struct OfferResult {
    std::uint64_t seq = 0;  // seq assigned to the offered request
    // The shed entry when the queue was full — possibly the offered request
    // itself; nullopt when the offer was admitted without shedding.
    std::optional<AdmittedRequest> shed;
  };

  // Enqueues the request under a fresh seq.
  OfferResult Offer(const ServeRequest& request);

  // Removes and returns every queued request whose deadline has passed
  // (deadline_ns != 0 and deadline_ns <= now_ns), in EDF order.
  std::vector<AdmittedRequest> DropOverdue(std::uint64_t now_ns);

  // Removes and returns up to max_n requests — the EDF prefix — sorted by
  // seq (arrival order).
  std::vector<AdmittedRequest> PopBatch(std::size_t max_n);

  std::size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }
  std::uint64_t offered() const { return offered_; }
  std::uint64_t shed_overflow() const { return shed_overflow_; }
  std::uint64_t shed_overdue() const { return shed_overdue_; }

 private:
  struct Entry {
    std::uint64_t effective_deadline = 0;  // deadline 0 mapped to UINT64_MAX
    std::uint64_t seq = 0;
    ServeRequest request;
  };
  struct EdfOrder {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.effective_deadline != b.effective_deadline) {
        return a.effective_deadline < b.effective_deadline;
      }
      if (a.seq != b.seq) return a.seq < b.seq;
      return a.request.session_id < b.request.session_id;
    }
  };

  AdmissionConfig config_;
  std::set<Entry, EdfOrder> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t shed_overflow_ = 0;
  std::uint64_t shed_overdue_ = 0;
};

}  // namespace serve
}  // namespace whitenrec

#endif  // WHITENREC_SERVE_ADMISSION_H_

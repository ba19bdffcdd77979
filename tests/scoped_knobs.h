#ifndef WHITENREC_TESTS_SCOPED_KNOBS_H_
#define WHITENREC_TESTS_SCOPED_KNOBS_H_

#include <cstddef>

#include "core/parallel.h"
#include "linalg/quant.h"

namespace whitenrec {

// Scoped overrides of the process-wide settings the test main applies from
// WHITENREC_THREADS and WHITENREC_ITEM_QUANT. Each restores the previous
// value, so the next test runs in the configuration the knobs asked for
// (TestMain.AppliesProcessKnobs checks it).
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) : saved_(core::NumThreads()) {
    core::SetNumThreads(n);
  }
  ~ScopedThreads() { core::SetNumThreads(saved_); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::size_t saved_;
};

class ScopedItemQuantKind {
 public:
  explicit ScopedItemQuantKind(linalg::ItemQuantKind kind)
      : saved_(linalg::CurrentItemQuantKind()) {
    linalg::SetItemQuantKind(kind);
  }
  ~ScopedItemQuantKind() { linalg::SetItemQuantKind(saved_); }
  ScopedItemQuantKind(const ScopedItemQuantKind&) = delete;
  ScopedItemQuantKind& operator=(const ScopedItemQuantKind&) = delete;

 private:
  linalg::ItemQuantKind saved_;
};

}  // namespace whitenrec

#endif  // WHITENREC_TESTS_SCOPED_KNOBS_H_

#ifndef CEP2ASP_RUNTIME_BOUNDED_QUEUE_H_
#define CEP2ASP_RUNTIME_BOUNDED_QUEUE_H_

#include <algorithm>
#include <deque>
#include <vector>

#include "analysis/check_invariants.h"
#include "common/logging.h"
#include "common/thread_annotations.h"

namespace cep2asp {

/// \brief Non-blocking bounded multi-producer multi-consumer queue.
///
/// The capacity bound is what creates backpressure in the threaded
/// executor: a slow operator fills its input queue and its producers'
/// pushes come back short, so the producing tasks park on a credit and
/// the stall reaches the sources transitively (paper §5.2.4). Neither
/// side ever waits here; the task scheduler does the waiting.
///
/// Capacity is accounted in items, and each call moves a whole prefix
/// under one lock acquisition, so batching changes the locking cadence
/// but not how much can be in flight. The mutex is what lets several
/// producers (a join's or union's fan-in) share one queue; every touch of
/// items_/closed_ holds it, which Clang's thread-safety analysis checks.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Moves out a maximal prefix of `items[0..n)` — up to the current free
  /// capacity — leaving the moved-from elements in place, and returns how
  /// many were taken (the caller erases that prefix; the Channel wrapper
  /// also counts it for stats first). A full queue returns 0 and the
  /// caller parks on the scheduler. `*closed` reports the closed flag
  /// (nothing is taken once closed).
  size_t TryPushN(T* items, size_t n, bool* closed) {
    MutexLock lock(mutex_);
    *closed = closed_;
    if (closed_ || n == 0) return 0;
    const size_t free =
        capacity_ > items_.size() ? capacity_ - items_.size() : 0;
    const size_t k = std::min(free, n);
    for (size_t i = 0; i < k; ++i) items_.push_back(std::move(items[i]));
#if CEP2ASP_CHECK_INVARIANTS
    CEP2ASP_CHECK(items_.size() <= capacity_)
        << "bounded queue holds " << items_.size()
        << " items over capacity " << capacity_;
#endif
    return k;
  }

  /// Moves up to `max_items` into `*out` (cleared first) and returns the
  /// number taken. 0 with `*end_of_stream == false` means the queue is
  /// momentarily empty (park until a producer pushes); 0 with
  /// `*end_of_stream == true` means closed and fully drained.
  size_t TryPopN(std::vector<T>* out, size_t max_items, bool* end_of_stream) {
    out->clear();
    *end_of_stream = false;
    MutexLock lock(mutex_);
#if CEP2ASP_CHECK_INVARIANTS
    CEP2ASP_CHECK(items_.size() <= capacity_)
        << "bounded queue holds " << items_.size()
        << " items over capacity " << capacity_;
#endif
    const size_t k = std::min(items_.size(), max_items);
    for (size_t i = 0; i < k; ++i) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (k == 0 && closed_) *end_of_stream = true;
    return k;
  }

  /// Marks the queue closed: later pushes are rejected, and the consumer
  /// drains the remaining items before it sees end-of-stream.
  void Close() {
    MutexLock lock(mutex_);
    closed_ = true;
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  Mutex mutex_;
  std::deque<T> items_ CEP2ASP_GUARDED_BY(mutex_);
  bool closed_ CEP2ASP_GUARDED_BY(mutex_) = false;
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_BOUNDED_QUEUE_H_

#ifndef CEP2ASP_RUNTIME_SPSC_RING_H_
#define CEP2ASP_RUNTIME_SPSC_RING_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "analysis/check_invariants.h"
#include "common/logging.h"

namespace cep2asp {

/// \brief Lock-free bounded single-producer single-consumer ring buffer.
///
/// The fast path of the exchange layer: an edge with exactly one producer
/// and one consumer moves message batches through this ring with one
/// release-store per batch instead of a mutex round-trip per message.
/// Head and tail live on separate cache lines, and each side keeps a
/// cached copy of the opposite index so the steady state reads only its
/// own line (the classic network-buffer channel design).
///
/// Both sides are non-blocking: a full or empty ring returns 0 and the
/// calling task parks on the scheduler instead of waiting here. Capacity
/// is rounded up to a power of two. After Close() pushes are rejected and
/// the consumer drains whatever was published, then sees end-of-stream.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t min_capacity) {
    size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return slots_.size(); }

  /// Publishes a maximal prefix of `items[0..n)` — whatever fits the free
  /// space right now — and returns how many were moved out (the caller
  /// erases the prefix). Never spins or sleeps: a full ring returns 0 and
  /// the producing task parks on a credit instead. `*closed` reports the
  /// closed flag (nothing is taken once closed).
  size_t TryPushN(T* items, size_t n, bool* closed) {
    *closed = closed_.load(std::memory_order_acquire);
    if (*closed || n == 0) return 0;
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = capacity() - static_cast<size_t>(tail - cached_head_);
    if (free < n) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity() - static_cast<size_t>(tail - cached_head_);
    }
    const size_t chunk = std::min(free, n);
    for (size_t i = 0; i < chunk; ++i) {
      slots_[static_cast<size_t>(tail + i) & mask_] = std::move(items[i]);
    }
    if (chunk > 0) tail_.store(tail + chunk, std::memory_order_release);
#if CEP2ASP_CHECK_INVARIANTS
    CEP2ASP_CHECK(static_cast<size_t>(tail + chunk -
                                      head_.load(std::memory_order_acquire)) <=
                  capacity())
        << "spsc ring index accounting broken: more items in flight than "
        << "capacity " << capacity();
#endif
    return chunk;
  }

  /// Moves up to `max_items` into `*out` (cleared first) and returns the
  /// number taken. 0 with `*end_of_stream == false` means momentarily
  /// empty (the consuming task parks until the producer pushes); 0 with
  /// `*end_of_stream == true` means closed and fully drained.
  size_t TryPopN(std::vector<T>* out, size_t max_items, bool* end_of_stream) {
    out->clear();
    *end_of_stream = false;
    if (max_items == 0) return 0;
    const uint64_t head = head_.load(std::memory_order_relaxed);
    size_t avail = static_cast<size_t>(cached_tail_ - head);
    if (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<size_t>(cached_tail_ - head);
    }
    if (avail == 0) {
      // The producer publishes tail before setting closed, so closed plus
      // one more tail refresh proves the ring is empty for good.
      if (!closed_.load(std::memory_order_acquire)) return 0;
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = static_cast<size_t>(cached_tail_ - head);
      if (avail == 0) {
        *end_of_stream = true;
        return 0;
      }
    }
#if CEP2ASP_CHECK_INVARIANTS
    CEP2ASP_CHECK(avail <= capacity())
        << "spsc ring index accounting broken: " << avail
        << " items visible over capacity " << capacity();
#endif
    const size_t k = std::min(avail, max_items);
    for (size_t i = 0; i < k; ++i) {
      out->push_back(std::move(slots_[static_cast<size_t>(head + i) & mask_]));
    }
    head_.store(head + k, std::memory_order_release);
    return k;
  }

  void Close() { closed_.store(true, std::memory_order_release); }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;

  alignas(64) std::atomic<uint64_t> head_{0};   // next slot to pop (consumer)
  alignas(64) uint64_t cached_tail_ = 0;        // consumer's view of tail
  alignas(64) std::atomic<uint64_t> tail_{0};   // next slot to fill (producer)
  alignas(64) uint64_t cached_head_ = 0;        // producer's view of head
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_SPSC_RING_H_

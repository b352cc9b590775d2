#ifndef CEP2ASP_RUNTIME_CHANNEL_H_
#define CEP2ASP_RUNTIME_CHANNEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "event/event.h"
#include "runtime/bounded_queue.h"
#include "runtime/message.h"
#include "runtime/metrics.h"
#include "runtime/spsc_ring.h"

namespace cep2asp {

/// Outcome of a non-blocking Channel::TryPushBatch.
enum class TryPush : uint8_t {
  kPushed,   ///< the whole batch was moved into the channel
  kBlocked,  ///< channel full: an unmoved suffix remains, retry after credit
  kClosed,   ///< channel closed: remaining messages dropped
};

/// \brief One directed exchange channel feeding an operator's input.
///
/// Producers hand over whole MessageBatches (one synchronization action per
/// batch); the consumer drains up to a batch at a time. Capacity is
/// accounted in messages, so batch size never changes how much data can be
/// in flight. Both sides are non-blocking: a push into a full channel moves
/// what fits and reports kBlocked, a pop from an empty one returns 0, and
/// the task scheduler parks the caller until the readiness hooks wake it.
///
/// Push-side counters (batches, messages, fill histogram) are recorded per
/// channel and surfaced through ExecutionResult::channel_stats.
class Channel {
 public:
  virtual ~Channel() = default;

  /// Moves a maximal prefix of `*batch` into the channel — possibly all of
  /// it, possibly nothing — erases the moved prefix, and never waits.
  /// kBlocked means an unmoved suffix remains; the producing task parks
  /// and retries the same batch once the consumer returns credits. Pass
  /// `first_attempt == false` on retries so the batch/fill-histogram
  /// counters record each logical batch exactly once (message and tuple
  /// counters follow the actually-moved prefix and stay exact either way).
  /// Fires the on-push readiness hook whenever at least one message moved.
  TryPush TryPushBatch(MessageBatch* batch, bool first_attempt = true) {
    if (batch->empty()) return TryPush::kPushed;
    if (first_attempt) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      fill_hist_[ChannelStats::FillBucket(batch->size())].fetch_add(
          1, std::memory_order_relaxed);
    }
    if (batch->hdr_valid) {
      // Stamp from the batch header BEFORE handing elements to the ring:
      // after DoTryPushBatch the moved prefix holds only husks. Re-stamping
      // a retried suffix is idempotent.
      for (Message& msg : *batch) {
        msg.port = batch->hdr_port;
        msg.slot = batch->hdr_slot;
      }
    }
    bool closed = false;
    const size_t moved = DoTryPushBatch(batch->data(), batch->size(), &closed);
    if (moved > 0) {
      // Scalar members survive the element move, so the moved prefix is
      // still countable before we erase it.
      int64_t data = 0;
      for (size_t i = 0; i < moved; ++i) {
        if ((*batch)[i].kind == MessageKind::kTuple) ++data;
      }
      messages_.fetch_add(static_cast<int64_t>(moved),
                          std::memory_order_relaxed);
      if (data > 0) tuples_.fetch_add(data, std::memory_order_relaxed);
      batch->erase(batch->begin(), batch->begin() + moved);
      if (on_push_) on_push_();
    }
    if (closed) {
      batch->clear();
      return TryPush::kClosed;
    }
    return batch->empty() ? TryPush::kPushed : TryPush::kBlocked;
  }

  /// Non-blocking pop for cooperative consumers. Returns the number of
  /// messages moved into `*out` (cleared first). 0 with `*end_of_stream ==
  /// false` means momentarily empty — the consuming task parks until a
  /// producer pushes; 0 with `*end_of_stream == true` means closed and
  /// fully drained. Fires the on-credit readiness hook whenever at least
  /// one message was popped (space freed = credit returned to producers).
  size_t TryPopBatch(MessageBatch* out, size_t max_messages,
                     bool* end_of_stream) {
    out->hdr_valid = false;  // popped messages carry their own port/slot
    const size_t popped = DoTryPopBatch(out, max_messages, end_of_stream);
    if (popped > 0 && on_credit_) on_credit_();
    return popped;
  }

  /// Installs the task-scheduler readiness hooks, called (outside any
  /// channel lock) after every successful TryPushBatch / TryPopBatch:
  /// `on_push` wakes the consuming task parked on an empty channel,
  /// `on_credit` wakes producing tasks parked on a full one. Set once
  /// before any producer or consumer runs; not thread-safe against
  /// concurrent pushes.
  void SetReadinessHooks(std::function<void()> on_push,
                         std::function<void()> on_credit) {
    on_push_ = std::move(on_push);
    on_credit_ = std::move(on_credit);
  }

  /// Closes the channel: later pushes report kClosed, and the consumer
  /// drains what was already published and then sees end-of-data.
  virtual void Close() = 0;

  /// True when this channel runs on the lock-free SPSC fast path.
  virtual bool is_spsc() const = 0;

  /// Snapshot of the push-side counters; call after producers finished.
  /// `subtask` identifies the consumer subtask instance this channel feeds
  /// (0 for parallelism-1 consumers).
  ChannelStats Snapshot(std::string consumer, int subtask = 0) const {
    ChannelStats stats;
    stats.consumer = std::move(consumer);
    stats.subtask = subtask;
    stats.spsc = is_spsc();
    stats.batches = batches_.load(std::memory_order_relaxed);
    stats.messages = messages_.load(std::memory_order_relaxed);
    stats.tuples = tuples_.load(std::memory_order_relaxed);
    for (int i = 0; i < ChannelStats::kFillBuckets; ++i) {
      stats.fill_hist[i] = fill_hist_[i].load(std::memory_order_relaxed);
    }
    return stats;
  }

 protected:
  /// Moves a maximal prefix of `items[0..n)` into the channel without
  /// waiting; returns the count moved and sets `*closed`.
  virtual size_t DoTryPushBatch(Message* items, size_t n, bool* closed) = 0;

  /// Moves up to `max_messages` out without waiting; 0 + `*end_of_stream`
  /// distinguishes empty-for-now from closed-and-drained.
  virtual size_t DoTryPopBatch(MessageBatch* out, size_t max_messages,
                               bool* end_of_stream) = 0;

 private:
  std::atomic<int64_t> batches_{0};
  std::atomic<int64_t> messages_{0};
  std::atomic<int64_t> tuples_{0};
  std::atomic<int64_t> fill_hist_[ChannelStats::kFillBuckets] = {};
  std::function<void()> on_push_;
  std::function<void()> on_credit_;
};

/// Mutex channel over BoundedQueue: the multi-producer fallback,
/// used when more than one upstream node feeds the same operator input.
class MpmcChannel : public Channel {
 public:
  explicit MpmcChannel(size_t capacity_messages) : queue_(capacity_messages) {}

  void Close() override { queue_.Close(); }
  bool is_spsc() const override { return false; }

 protected:
  size_t DoTryPushBatch(Message* items, size_t n, bool* closed) override {
    return queue_.TryPushN(items, n, closed);
  }

  size_t DoTryPopBatch(MessageBatch* out, size_t max_messages,
                       bool* end_of_stream) override {
    return queue_.TryPopN(out, max_messages, end_of_stream);
  }

 private:
  BoundedQueue<Message> queue_;
};

/// Lock-free channel over SpscRing: selected automatically for edges with
/// exactly one producer and one consumer.
class SpscChannel : public Channel {
 public:
  explicit SpscChannel(size_t capacity_messages) : ring_(capacity_messages) {}

  void Close() override { ring_.Close(); }
  bool is_spsc() const override { return true; }

 protected:
  size_t DoTryPushBatch(Message* items, size_t n, bool* closed) override {
    return ring_.TryPushN(items, n, closed);
  }

  size_t DoTryPopBatch(MessageBatch* out, size_t max_messages,
                       bool* end_of_stream) override {
    return ring_.TryPopN(out, max_messages, end_of_stream);
  }

 private:
  SpscRing<Message> ring_;
};

/// Builds the right channel for an input fed by `num_producers` upstream
/// producers (its physical fan-in): the SPSC ring for exactly one, the
/// mutex queue otherwise. `capacity_messages` bounds in-flight messages
/// (backpressure).
inline std::unique_ptr<Channel> MakeChannel(int num_producers,
                                            size_t capacity_messages) {
  if (num_producers == 1) {
    return std::make_unique<SpscChannel>(capacity_messages);
  }
  return std::make_unique<MpmcChannel>(capacity_messages);
}

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_CHANNEL_H_

#ifndef CEP2ASP_ASP_SLIDING_WINDOW_JOIN_H_
#define CEP2ASP_ASP_SLIDING_WINDOW_JOIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "asp/window.h"
#include "event/predicate.h"
#include "runtime/columnar_batch.h"
#include "runtime/operator.h"

namespace cep2asp {

/// How the join redefines the output tuple's event time (paper §4.2.2:
/// after each Window Join the event time attribute must be redefined — the
/// minimum timestamp of the pair for a partial match of a nested pattern,
/// the maximum for a complete match).
enum class TimestampMode : uint8_t { kMin, kMax };

/// \brief Two-input sliding-window join over keyed streams.
///
/// Realizes the mapping targets of Table 1:
///  * Cartesian product (AND): both inputs carry the same constant key
///    (assigned by a preceding map) and `condition` is empty.
///  * Theta Join (SEQ / ITER): `condition` holds the timestamp-order
///    comparison (and any cross-variable pattern predicates). Per §4.2.1
///    the Theta Join is realized as the product filtered by theta.
///  * Equi Join (O3): inputs are keyed by the matching attribute, so the
///    product is computed per key and parallelizable.
///
/// Windows follow the explicit sliding semantics of §3.1.2; overlapping
/// windows duplicate matches by design (deduplication is part of semantic
/// equivalence, not of the operator). Per-window work is recomputed for
/// every overlap, which is exactly the sliding-window cost the paper's O1
/// optimization avoids.
///
/// The `condition` predicate addresses constituent events positionally in
/// the *concatenated* output tuple (left events first).
class SlidingWindowJoinOperator : public Operator {
 public:
  /// `dedup_pairs`: emit each qualifying pair only in the first window
  /// containing both sides. Detection stays complete (that window always
  /// exists) and downstream operators see each logical match once —
  /// used for the intermediate joins of decomposed patterns, where
  /// per-overlap duplicates would otherwise multiply through the chain.
  /// The final join keeps the sliding duplicates the paper describes
  /// (§3.1.4). Pair *evaluation* is still repeated per overlapping window
  /// either way (the cost O1 removes).
  SlidingWindowJoinOperator(SlidingWindowSpec window, Predicate condition,
                            TimestampMode ts_mode, std::string label = "win-join",
                            bool dedup_pairs = false);

  std::string name() const override { return label_; }
  int num_inputs() const override { return 2; }

  OperatorTraits Traits() const override {
    OperatorTraits traits;
    traits.stateful = true;
    traits.keyed = true;
    traits.windowed = true;
    traits.window_size = window_.size;
    traits.window_slide = window_.slide;
    traits.emits_window_duplicates = !dedup_pairs_;
    traits.drains_on_final_watermark = true;
    traits.predicate = &condition_;  // positional over the joined tuple
    traits.selectivity_bound = selectivity_bound_;
    return traits;
  }

  void AttachSelectivityBound(double bound) override {
    selectivity_bound_ = bound;
  }

  Status Open() override;
  Status Process(int input, Tuple tuple, Collector* out) override;

  Status OnWatermark(Timestamp watermark, Collector* out) override;
  size_t StateBytes() const override { return state_bytes_; }

  /// Partition-safe: window indices are absolute (derived from event
  /// time), state is per key, and dedup_pairs dedups within a (key,
  /// window) scope — so any key-disjoint split of the input reproduces
  /// the exact match multiset.
  std::unique_ptr<Operator> CloneForSubtask() const override {
    auto clone = std::make_unique<SlidingWindowJoinOperator>(
        window_, condition_, ts_mode_, label_, dedup_pairs_);
    clone->selectivity_bound_ = selectivity_bound_;
    return clone;
  }

  /// Total (left, right) pairs evaluated; exposes the duplicate
  /// computation across overlapping windows for benchmarks.
  int64_t pairs_evaluated() const { return pairs_evaluated_; }

 private:
  /// Per-(key, side) window store, struct-of-arrays: rows live in a
  /// ColumnarBatch (one contiguous column per event attribute plus exact
  /// key/event-time columns), shaped to the side's tuple arity on first
  /// append. The probe walks the contiguous event-time column for its
  /// range binary searches and gathers events only for pairs that reach
  /// condition evaluation — instead of lower_bound over ~280-byte-strided
  /// row-major Tuples.
  struct SideBuffer {
    ColumnarBatch rows;
    // Index of the first live row: [head, rows) are buffered, [0, head)
    // are evicted-but-not-yet-reclaimed. Eviction advances `head` and
    // compacts (ErasePrefix) only once the dead prefix reaches the live
    // size, so each row is moved O(1) amortized times over its lifetime —
    // a plain erase-from-front would instead move every survivor on every
    // evict, a cost that balloons when batched execution lets the buffers
    // run deep ahead of the watermark.
    size_t head = 0;
    bool sorted = true;
    // Smallest buffered event time, maintained incrementally on append
    // and re-derived from the sorted front on eviction, so the watermark
    // path (MinBufferedTs) is O(keys) instead of rescanning every row.
    Timestamp min_ts = kMaxTimestamp;

    bool empty() const { return head >= rows.rows(); }
  };

  struct KeyState {
    SideBuffer sides[2];
  };

  /// Key table entry; kept in a flat vector sorted by key. The firing path
  /// (FireWindow + EvictBefore) walks every key once per fired window, so
  /// iteration locality dominates: ~a hundred contiguous entries stay
  /// L1-resident where an unordered_map walk chases a pointer per key.
  /// Lookup in Process is a binary search; inserts (one per distinct key)
  /// shift the tail, which is negligible next to the per-tuple work.
  struct KeyEntry {
    int64_t key;
    KeyState state;
  };

  KeyState& StateForKey(int64_t key);
  static void SortIfNeeded(SideBuffer* side);

  /// Per-row state accounting, matching the row-major Tuple footprint so
  /// figure-5 style byte timelines stay comparable across layouts.
  static size_t RowBytes(size_t arity) {
    return sizeof(Tuple) + (arity > 4 ? arity * sizeof(SimpleEvent) : 0);
  }

  void FireWindows(Timestamp watermark, Collector* out);
  void FireWindow(int64_t k, Collector* out);
  void EvictBefore(Timestamp min_keep_ts);
  Timestamp MinBufferedTs() const;

  SlidingWindowSpec window_;
  Predicate condition_;
  TimestampMode ts_mode_;
  std::string label_;
  bool dedup_pairs_;
  double selectivity_bound_ = -1.0;

  /// Fired windows between evict walks; trades up to kEvictStride-1 slides
  /// of retained dead tuples for a proportional cut in whole-table scans.
  static constexpr int kEvictStride = 4;
  int windows_since_evict_ = 0;

  std::vector<KeyEntry> keys_;  // sorted by key
  /// Smallest event time buffered across all keys and sides; folded in by
  /// Process and re-derived by EvictBefore, so the per-watermark firing
  /// loop costs O(1) instead of a full key scan per iteration.
  Timestamp min_buffered_ts_ = kMaxTimestamp;
  int64_t next_window_ = 0;
  bool have_window_cursor_ = false;
  size_t state_bytes_ = 0;
  int64_t pairs_evaluated_ = 0;

  /// Probe scratch, reused across windows: `scratch_` holds the events of
  /// the current (left, right) pair for positional condition evaluation
  /// without materializing a Tuple; `right_scratch_` pre-gathers the right
  /// range once per (key, window) so every pair reuses it via one
  /// contiguous copy.
  std::vector<SimpleEvent> scratch_;
  std::vector<SimpleEvent> right_scratch_;
};

}  // namespace cep2asp

#endif  // CEP2ASP_ASP_SLIDING_WINDOW_JOIN_H_

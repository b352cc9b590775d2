#include "asp/sliding_window_join.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace cep2asp {

namespace {

/// Index of the first element of ts[lo, hi) not below `v` (the columns are
/// sorted ranges once SortIfNeeded ran).
size_t LowerBoundTs(const Timestamp* ts, size_t lo, size_t hi, Timestamp v) {
  return static_cast<size_t>(std::lower_bound(ts + lo, ts + hi, v) - ts);
}

}  // namespace

void SlidingWindowJoinOperator::SortIfNeeded(SideBuffer* side) {
  if (!side->sorted) {
    side->rows.StableSortByEventTime(side->head);
    side->sorted = true;
  }
}

SlidingWindowJoinOperator::SlidingWindowJoinOperator(SlidingWindowSpec window,
                                                     Predicate condition,
                                                     TimestampMode ts_mode,
                                                     std::string label,
                                                     bool dedup_pairs)
    : window_(window),
      condition_(std::move(condition)),
      ts_mode_(ts_mode),
      label_(std::move(label)),
      dedup_pairs_(dedup_pairs) {}

Status SlidingWindowJoinOperator::Open() {
  if (!window_.valid()) {
    return Status::InvalidArgument("invalid sliding window spec");
  }
  return Status::OK();
}

SlidingWindowJoinOperator::KeyState& SlidingWindowJoinOperator::StateForKey(
    int64_t key) {
  auto it = std::lower_bound(
      keys_.begin(), keys_.end(), key,
      [](const KeyEntry& e, int64_t k) { return e.key < k; });
  if (it == keys_.end() || it->key != key) {
    it = keys_.insert(it, KeyEntry{key, KeyState{}});
  }
  return it->state;
}

Status SlidingWindowJoinOperator::Process(int input, Tuple tuple, Collector*) {
  CEP2ASP_DCHECK(input == 0 || input == 1);
  KeyState& key_state = StateForKey(tuple.key());
  SideBuffer& side = key_state.sides[input];
  if (side.rows.rows() == 0 && side.rows.num_slots() != tuple.size()) {
    side.rows.Reset(tuple.size());  // shape the SoA store on first append
  }
  state_bytes_ += RowBytes(tuple.size());
  if (!side.empty() &&
      tuple.event_time() < side.rows.event_time(side.rows.rows() - 1)) {
    side.sorted = false;
  }
  side.min_ts = std::min(side.min_ts, tuple.event_time());
  min_buffered_ts_ = std::min(min_buffered_ts_, tuple.event_time());
  side.rows.AppendTuple(tuple);
  return Status::OK();
}

Status SlidingWindowJoinOperator::OnWatermark(Timestamp watermark,
                                              Collector* out) {
  FireWindows(watermark, out);
  return Status::OK();
}

void SlidingWindowJoinOperator::FireWindows(Timestamp watermark,
                                            Collector* out) {
  while (true) {
    Timestamp min_ts = MinBufferedTs();
    if (min_ts == kMaxTimestamp) {
      // Nothing buffered; the cursor stays where it is (monotone — resuming
      // at a later event's first window happens via the jump below) so a
      // window can never fire twice.
      return;
    }
    // Skip empty stretches, but only over windows that are provably dead:
    // a skipped window must hold no buffered tuple (before FirstWindow of
    // the buffered minimum) AND be closed (before FirstWindow(watermark),
    // the first window that can still receive on-time tuples). Skipping an
    // empty-but-open window would silently drop tuples that arrive for it
    // later — under partitioned input a subtask's buffer is sparse, so the
    // unclamped jump overshoots. The first firing initializes the cursor
    // the same way, which also makes it independent of the arrival
    // interleaving across producer subtasks.
    const int64_t skip_to = std::min(window_.FirstWindow(min_ts),
                                     window_.FirstWindow(watermark));
    if (!have_window_cursor_) {
      next_window_ = skip_to;
      have_window_cursor_ = true;
    } else {
      next_window_ = std::max(next_window_, skip_to);
    }
    if (!window_.CanFire(next_window_, watermark)) return;
    FireWindow(next_window_, out);
    ++next_window_;
    // Amortized eviction: the evict walk touches every key, so running it
    // per fired window makes it a fixed per-window tax. Deferring it a few
    // slides is safe — stale tuples sit below the fire range's lower_bound
    // and min_buffered_ts_ stays exact (they are still buffered) — at the
    // cost of retaining at most kEvictStride-1 slides of dead tuples.
    if (++windows_since_evict_ >= kEvictStride) {
      windows_since_evict_ = 0;
      EvictBefore(window_.WindowStart(next_window_));
    }
  }
}

void SlidingWindowJoinOperator::FireWindow(int64_t k, Collector* out) {
  const Timestamp begin = window_.WindowStart(k);
  const Timestamp end = window_.WindowEnd(k);
  for (KeyEntry& entry : keys_) {
    KeyState& key_state = entry.state;
    SideBuffer& left = key_state.sides[0];
    SideBuffer& right = key_state.sides[1];
    if (left.empty() || right.empty()) continue;
    SortIfNeeded(&left);
    SortIfNeeded(&right);

    // Range binary searches walk the contiguous event-time columns.
    const Timestamp* lts = left.rows.event_times();
    const Timestamp* rts = right.rows.event_times();
    const size_t l_lo = LowerBoundTs(lts, left.head, left.rows.rows(), begin);
    const size_t l_hi = LowerBoundTs(lts, l_lo, left.rows.rows(), end);
    if (l_lo == l_hi) continue;
    const size_t r_lo = LowerBoundTs(rts, right.head, right.rows.rows(), begin);
    const size_t r_hi = LowerBoundTs(rts, r_lo, right.rows.rows(), end);
    if (r_lo == r_hi) continue;

    const size_t ln = left.rows.num_slots();
    const size_t rn = right.rows.num_slots();
    const size_t r_cnt = r_hi - r_lo;
    // Pre-gather the right range once per (key, window): every (l, r)
    // pair then reuses it with one contiguous copy, where the row-major
    // probe concatenated two Tuples per evaluated pair.
    right_scratch_.resize(r_cnt * rn);
    for (size_t r = 0; r < r_cnt; ++r) {
      for (size_t s = 0; s < rn; ++s) {
        right_scratch_[r * rn + s] = right.rows.RowEvent(s, r_lo + r);
      }
    }
    scratch_.resize(ln + rn);
    for (size_t l = l_lo; l != l_hi; ++l) {
      for (size_t s = 0; s < ln; ++s) scratch_[s] = left.rows.RowEvent(s, l);
      const int64_t l_first = dedup_pairs_ ? window_.FirstWindow(lts[l]) : 0;
      for (size_t r = 0; r < r_cnt; ++r) {
        ++pairs_evaluated_;
        if (dedup_pairs_) {
          // First window containing both sides; skip re-emissions from
          // later overlapping windows.
          const int64_t first_common =
              std::max(l_first, window_.FirstWindow(rts[r_lo + r]));
          if (first_common != k) continue;
        }
        std::copy(right_scratch_.begin() + static_cast<ptrdiff_t>(r * rn),
                  right_scratch_.begin() + static_cast<ptrdiff_t>((r + 1) * rn),
                  scratch_.begin() + static_cast<ptrdiff_t>(ln));
        if (!condition_.IsTrue() &&
            !condition_.EvalOnEvents(scratch_.data(), ln + rn)) {
          continue;
        }
        // Materialize the output tuple only for matches: concatenated
        // events, the left side's key, event time redefined per §4.2.2.
        Tuple joined;
        Timestamp tsb = scratch_[0].ts;
        Timestamp tse = scratch_[0].ts;
        for (const SimpleEvent& e : scratch_) {
          joined.AppendEvent(e);
          tsb = std::min(tsb, e.ts);
          tse = std::max(tse, e.ts);
        }
        joined.set_key(entry.key);
        joined.set_event_time(ts_mode_ == TimestampMode::kMax ? tse : tsb);
        out->Emit(std::move(joined));
      }
    }
  }
}

void SlidingWindowJoinOperator::EvictBefore(Timestamp min_keep_ts) {
  Timestamp global_min = kMaxTimestamp;
  for (auto it = keys_.begin(); it != keys_.end();) {
    KeyState& key_state = it->state;
    const Timestamp key_min =
        std::min(key_state.sides[0].min_ts, key_state.sides[1].min_ts);
    if (key_min >= min_keep_ts) {
      // Nothing evictable under this key (side minima are exact even while
      // a side is unsorted): skip the sort + erase entirely. A key can
      // only become all-empty through eviction, and that path erases it
      // below, so skipped keys always still hold tuples.
      global_min = std::min(global_min, key_min);
      ++it;
      continue;
    }
    bool all_empty = true;
    for (SideBuffer& side : key_state.sides) {
      SortIfNeeded(&side);
      const Timestamp* ts = side.rows.event_times();
      const size_t keep_from =
          LowerBoundTs(ts, side.head, side.rows.rows(), min_keep_ts);
      state_bytes_ -=
          (keep_from - side.head) * RowBytes(side.rows.num_slots());
      side.head = keep_from;
      // Reclaim the dead prefix only once it outweighs the live suffix;
      // each survivor is then moved at most once per doubling of evicted
      // rows, keeping eviction amortized O(1) per row.
      const size_t live = side.rows.rows() - side.head;
      if (side.head >= live) {
        side.rows.ErasePrefix(side.head);
        side.head = 0;
      }
      // Sides are sorted here, so the surviving front is the new minimum.
      side.min_ts =
          side.empty() ? kMaxTimestamp : side.rows.event_time(side.head);
      if (!side.empty()) all_empty = false;
    }
    if (all_empty) {
      it = keys_.erase(it);
    } else {
      global_min = std::min(
          global_min,
          std::min(key_state.sides[0].min_ts, key_state.sides[1].min_ts));
      ++it;
    }
  }
  min_buffered_ts_ = global_min;
}

Timestamp SlidingWindowJoinOperator::MinBufferedTs() const {
  // Exact: Process folds arrivals in, EvictBefore re-derives after
  // removals, and those are the only buffer mutations.
  return min_buffered_ts_;
}

}  // namespace cep2asp

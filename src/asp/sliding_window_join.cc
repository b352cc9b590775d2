#include "asp/sliding_window_join.h"

#include <algorithm>

#include "common/logging.h"

namespace cep2asp {

namespace {

/// Index of the first element of ts[lo, hi) not below `v` (window stores
/// keep their event times sorted).
size_t LowerBoundTs(const Timestamp* ts, size_t lo, size_t hi, Timestamp v) {
  return static_cast<size_t>(std::lower_bound(ts + lo, ts + hi, v) - ts);
}

}  // namespace

void SlidingWindowJoinOperator::SideBuffer::Insert(const Tuple& tuple) {
  if (ts.empty()) arity = tuple.size();  // shape the store on first append
  CEP2ASP_DCHECK(tuple.size() == arity)
      << "tuple arity " << tuple.size() << " vs store shape " << arity;
  const Timestamp t = tuple.event_time();
  if (ts.empty() || t >= ts.back()) {
    ts.push_back(t);
    events.insert(events.end(), tuple.begin(), tuple.end());
    return;
  }
  // Out of order (interleaved producers, or partial matches stamped with
  // their min ts): upper_bound keeps equal times in arrival order, which
  // is what a stable sort of the arrival sequence would produce.
  const auto pos = std::upper_bound(
      ts.begin() + static_cast<ptrdiff_t>(head), ts.end(), t);
  const size_t at = static_cast<size_t>(pos - ts.begin());
  ts.insert(pos, t);
  events.insert(events.begin() + static_cast<ptrdiff_t>(at * arity),
                tuple.begin(), tuple.end());
}

void SlidingWindowJoinOperator::SideBuffer::ErasePrefix() {
  events.erase(events.begin(),
               events.begin() + static_cast<ptrdiff_t>(head * arity));
  ts.erase(ts.begin(), ts.begin() + static_cast<ptrdiff_t>(head));
  head = 0;
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
  state_bytes_ += RowBytes(tuple.size());
  min_buffered_ts_ = std::min(min_buffered_ts_, tuple.event_time());
  key_state.sides[input].Insert(tuple);
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
  // Rows in window k's newest slide [end - slide, end) have k as their
  // first window, so under dedup_pairs a pair is emitted here iff at least
  // one of its rows lies in that slide.
  const Timestamp fresh = end - window_.slide;
  const bool check_condition = !condition_.IsTrue();
  for (const KeyEntry& entry : keys_) {
    const SideBuffer& left = entry.state.sides[0];
    const SideBuffer& right = entry.state.sides[1];
    if (left.empty() || right.empty()) continue;

    const Timestamp* lts = left.ts.data();
    const Timestamp* rts = right.ts.data();
    const size_t l_lo = LowerBoundTs(lts, left.head, left.rows(), begin);
    const size_t l_hi = LowerBoundTs(lts, l_lo, left.rows(), end);
    if (l_lo == l_hi) continue;
    const size_t r_lo = LowerBoundTs(rts, right.head, right.rows(), begin);
    const size_t r_hi = LowerBoundTs(rts, r_lo, right.rows(), end);
    if (r_lo == r_hi) continue;
    // Every pair in the two ranges counts as evaluated, including those
    // the dedup test skips without touching them.
    pairs_evaluated_ += static_cast<int64_t>((l_hi - l_lo) * (r_hi - r_lo));
    const size_t r_fresh =
        dedup_pairs_ ? LowerBoundTs(rts, r_lo, r_hi, fresh) : r_lo;

    const size_t ln = left.arity;
    const size_t rn = right.arity;
    for (size_t l = l_lo; l != l_hi; ++l) {
      const SimpleEvent* lrow = left.row(l);
      const size_t r_begin = lts[l] >= fresh ? r_lo : r_fresh;
      for (size_t r = r_begin; r != r_hi; ++r) {
        const SimpleEvent* rrow = right.row(r);
        if (check_condition && !condition_.EvalOnPair(lrow, ln, rrow)) {
          continue;
        }
        // Materialize the output tuple only for matches: concatenated
        // events, the left side's key, event time redefined per §4.2.2.
        Tuple joined;
        Timestamp tsb = lrow[0].ts;
        Timestamp tse = lrow[0].ts;
        auto append = [&](const SimpleEvent* row, size_t n) {
          for (size_t s = 0; s < n; ++s) {
            joined.AppendEvent(row[s]);
            tsb = std::min(tsb, row[s].ts);
            tse = std::max(tse, row[s].ts);
          }
        };
        append(lrow, ln);
        append(rrow, rn);
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
        std::min(key_state.sides[0].min_ts(), key_state.sides[1].min_ts());
    if (key_min >= min_keep_ts) {
      // Nothing evictable under this key: skip the search and erase
      // entirely. A key can
      // only become all-empty through eviction, and that path erases it
      // below, so skipped keys always still hold tuples.
      global_min = std::min(global_min, key_min);
      ++it;
      continue;
    }
    bool all_empty = true;
    for (SideBuffer& side : key_state.sides) {
      const size_t keep_from =
          LowerBoundTs(side.ts.data(), side.head, side.rows(), min_keep_ts);
      state_bytes_ -= (keep_from - side.head) * RowBytes(side.arity);
      side.head = keep_from;
      // Reclaim the dead prefix only once it outweighs the live suffix;
      // each survivor is then moved at most once per doubling of evicted
      // rows, keeping eviction amortized O(1) per row.
      if (side.head >= side.rows() - side.head) side.ErasePrefix();
      if (!side.empty()) all_empty = false;
    }
    if (all_empty) {
      it = keys_.erase(it);
    } else {
      global_min = std::min(
          global_min,
          std::min(key_state.sides[0].min_ts(), key_state.sides[1].min_ts()));
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

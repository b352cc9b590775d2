// The benchmark's load generator: immutable, pre-generated event vectors
// (one per stream) replayed by a Source that only holds a pointer into
// them. Every logical scan of a translated plan gets its own cursor over
// the same vector, so building a job copies no events and set-up time
// measures translation, not memcpy.

#ifndef CEP2ASP_E2EBENCH_REPLAY_SOURCE_H_
#define CEP2ASP_E2EBENCH_REPLAY_SOURCE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "event/event_type.h"
#include "runtime/operator.h"
#include "translator/translator.h"

namespace cep2asp::e2ebench {

/// How far behind its schedule a paced source ran, summed over its Next()
/// calls (each call is late by now - due when it runs after its slot).
struct Lateness {
  int64_t late_calls = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;
};

/// Replays one stream. With `nanos_per_tuple` > 0 the source is paced on
/// an open-loop schedule anchored at its first Next(): tuple i is due at
/// start + i * nanos_per_tuple whatever the engine does. The source
/// exposes the next due time through PacingDeadlineNanos; the task
/// scheduler parks it on a timer when that is further away than its
/// pacing slack, and otherwise Next() sleeps until the due time.
class ReplaySource : public Source {
 public:
  ReplaySource(std::string name, const std::vector<SimpleEvent>* events,
               double nanos_per_tuple, const Clock* clock, Lateness* lateness)
      : name_(std::move(name)),
        events_(events),
        nanos_per_tuple_(nanos_per_tuple),
        clock_(clock),
        lateness_(lateness) {}

  std::string name() const override { return name_; }

  bool Next(Tuple* tuple) override {
    if (pos_ >= events_->size()) return false;
    if (nanos_per_tuple_ > 0) Pace();
    const SimpleEvent& event = (*events_)[pos_++];
    watermark_ = event.ts;
    *tuple = Tuple(event);
    return true;
  }

  Timestamp CurrentWatermark() const override { return watermark_; }

  int64_t PacingDeadlineNanos() const override {
    if (nanos_per_tuple_ <= 0 || pos_ == 0) return 0;
    return Due();
  }

 private:
  /// Due time of the next tuple.
  int64_t Due() const {
    return start_nanos_ +
           static_cast<int64_t>(nanos_per_tuple_ * static_cast<double>(pos_));
  }

  void Pace() {
    if (pos_ == 0) start_nanos_ = clock_->NowNanos();
    const int64_t due = Due();
    const int64_t now = clock_->NowNanos();
    if (now < due) {
      // Due within the scheduler's pacing slack (or the executor ignores
      // PacingDeadlineNanos): wait here, on the calling worker.
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      return;
    }
    if (now > due) {
      lateness_->late_calls += 1;
      lateness_->total_ns += now - due;
      lateness_->max_ns = std::max(lateness_->max_ns, now - due);
    }
  }

  std::string name_;
  const std::vector<SimpleEvent>* events_;
  double nanos_per_tuple_;
  const Clock* clock_;
  Lateness* lateness_;
  size_t pos_ = 0;
  int64_t start_nanos_ = 0;
  Timestamp watermark_ = kMinTimestamp;
};

/// The generated streams of one workload, keyed by event type.
struct LoadStreams {
  std::unordered_map<EventTypeId, std::vector<SimpleEvent>> streams;
  /// Offered rate per source for the open-loop workload; 0 = full speed.
  double tuples_per_second = 0;

  int64_t TotalEvents() const {
    int64_t total = 0;
    for (const auto& [type, events] : streams) {
      (void)type;
      total += static_cast<int64_t>(events.size());
    }
    return total;
  }

  /// All streams merged in event-time order (SEA oracle input).
  std::vector<SimpleEvent> Merged() const {
    std::vector<SimpleEvent> merged;
    for (const auto& [type, events] : streams) {
      (void)type;
      merged.insert(merged.end(), events.begin(), events.end());
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const SimpleEvent& a, const SimpleEvent& b) {
                       return a.ts < b.ts;
                     });
    return merged;
  }

  /// A factory handing each logical scan a fresh cursor. Each source it
  /// creates appends its own lateness record to `lateness` (sources run on
  /// different workers); with `paced` false the sources run at full speed
  /// regardless of the offered rate.
  SourceFactory Factory(const Clock* clock,
                        std::vector<std::unique_ptr<Lateness>>* lateness,
                        bool paced) const {
    const double nanos_per_tuple =
        paced && tuples_per_second > 0 ? 1e9 / tuples_per_second : 0;
    return [this, clock, lateness,
            nanos_per_tuple](EventTypeId type) -> std::unique_ptr<Source> {
      auto it = streams.find(type);
      if (it == streams.end()) return nullptr;
      lateness->push_back(std::make_unique<Lateness>());
      return std::make_unique<ReplaySource>(
          EventTypeRegistry::Global()->Name(type), &it->second,
          nanos_per_tuple, clock, lateness->back().get());
    };
  }
};

}  // namespace cep2asp::e2ebench

#endif  // CEP2ASP_E2EBENCH_REPLAY_SOURCE_H_

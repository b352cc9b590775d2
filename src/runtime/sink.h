#ifndef CEP2ASP_RUNTIME_SINK_H_
#define CEP2ASP_RUNTIME_SINK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "runtime/operator.h"

namespace cep2asp {

/// \brief Terminal operator that counts matches and records detection
/// latency: wall-clock arrival time minus the maximum creation time of the
/// contributing events (paper §5.1.3 Metrics).
///
/// Optionally retains the emitted tuples for correctness checks; benchmark
/// runs keep `store_tuples` off to avoid unbounded memory.
///
/// The sink runs at its producer's parallelism, fused behind it, so no
/// exchange carries the matches. Each extra subtask runs a clone that
/// folds its count, latencies and tuples into the sink it was cloned from
/// when it is destroyed; the executor destroys its clones once every task
/// has returned, so the graph's sink reads complete results after Run. A
/// clone must not outlive the sink it was cloned from.
class CollectSink : public Operator {
 public:
  explicit CollectSink(bool store_tuples = true, Clock* clock = nullptr)
      : store_tuples_(store_tuples),
        clock_(clock ? clock : SystemClock::Get()) {}

  ~CollectSink() override {
    if (origin_ == nullptr) return;
    origin_->count_ += count_;
    origin_->latencies_.insert(origin_->latencies_.end(), latencies_.begin(),
                               latencies_.end());
    origin_->tuples_.insert(origin_->tuples_.end(),
                            std::make_move_iterator(tuples_.begin()),
                            std::make_move_iterator(tuples_.end()));
  }

  CollectSink(const CollectSink&) = delete;
  CollectSink& operator=(const CollectSink&) = delete;

  std::string name() const override { return "sink"; }

  OperatorTraits Traits() const override {
    OperatorTraits traits;
    traits.is_sink = true;
    return traits;
  }

  Status Process(int input, Tuple tuple, Collector* out) override {
    (void)input;
    (void)out;
    ++count_;
    latencies_.push_back(clock_->NowMillis() - tuple.max_create_ts());
    if (store_tuples_) tuples_.push_back(std::move(tuple));
    return Status::OK();
  }

  int64_t count() const { return count_; }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  const std::vector<int64_t>& latencies() const { return latencies_; }

  /// Retained tuples only: the latency samples are a measurement, not job
  /// state.
  size_t StateBytes() const override {
    return tuples_.capacity() * sizeof(Tuple);
  }

  std::unique_ptr<Operator> CloneForSubtask() const override {
    auto clone = std::make_unique<CollectSink>(store_tuples_, clock_);
    // Cloning leaves this sink unchanged; the clone writes into it only
    // from its destructor.
    clone->origin_ =
        origin_ != nullptr ? origin_ : const_cast<CollectSink*>(this);
    return clone;
  }

 private:
  bool store_tuples_;
  Clock* clock_;
  /// The sink this instance was cloned from; null for the graph's own.
  CollectSink* origin_ = nullptr;
  int64_t count_ = 0;
  std::vector<Tuple> tuples_;
  std::vector<int64_t> latencies_;
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_SINK_H_

// Forwarding wrappers that trace a compiled job from the outside.
//
// The benchmark replaces every node of a translated JobGraph with a wrapper
// (through JobGraph::mutable_node(id).op / .source) before the executor
// runs it. Each wrapper forwards every virtual of the interface it wraps —
// Traits, Process*, OnWatermark, Finish, StateBytes, CloneForSubtask — so
// chain planning and columnar negotiation see the same operators, and
// records one span per call per (node, subtask) instance. A thread-local
// span stack turns the nested calls of a chain (A.Process -> A's collector
// -> B.Process -> ...) into self times: a span's self time is its duration
// minus the durations of the spans it directly encloses. Rows are counted
// at the same boundaries: rows in per Process* call, rows out per Collector
// call.
//
// Spans are folded into per-instance accumulators as they close (a few
// counters per (node, subtask)) instead of being kept one by one, which
// would cost memory per processed row.

#ifndef CEP2ASP_E2EBENCH_TRACE_H_
#define CEP2ASP_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/columnar_batch.h"
#include "runtime/job_graph.h"
#include "runtime/operator.h"

namespace cep2asp::e2ebench {

inline int64_t SteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Time folded from the closed spans of one kind.
struct SpanTotals {
  int64_t calls = 0;
  int64_t total_ns = 0;  // span durations, children included
  int64_t self_ns = 0;   // durations minus directly enclosed spans
};

/// Counters of one (node, subtask) instance. Written only by the worker
/// currently running that instance (the scheduler never runs one task on
/// two workers at once); read after ThreadedExecutor::Run has joined.
struct alignas(64) InstanceTrace {
  SpanTotals ingest;  // Process / ProcessBatch / ProcessColumnar, Source::Next
  SpanTotals fire;    // OnWatermark / Finish
  SpanTotals emit;    // Collector::Emit* / Flush on the operator's output
  int64_t rows_in = 0;
  int64_t rows_out = 0;
};

/// All instances of one graph node. Instances are added by the wrapper's
/// CloneForSubtask, which the executor and the graph lint call before any
/// task runs; lint-made clones never process a row and stay all-zero.
struct NodeTrace {
  std::vector<std::unique_ptr<InstanceTrace>> instances;

  InstanceTrace* AddInstance() {
    instances.push_back(std::make_unique<InstanceTrace>());
    return instances.back().get();
  }
};

/// Thread-local stack of open spans: each frame accumulates the durations
/// of the spans closed directly inside it.
class SpanStack {
 public:
  static constexpr int kMaxDepth = 64;

  static int64_t* Push() {
    State& s = state();
    s.child_ns[s.depth] = 0;
    return &s.child_ns[s.depth++];
  }

  /// Closes the innermost frame; `duration` is charged to its parent.
  static void Pop(int64_t duration) {
    State& s = state();
    --s.depth;
    if (s.depth > 0) s.child_ns[s.depth - 1] += duration;
  }

 private:
  struct State {
    int depth = 0;
    int64_t child_ns[kMaxDepth] = {};
  };
  static State& state() {
    thread_local State s;
    return s;
  }
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanTotals* totals)
      : totals_(totals), child_ns_(SpanStack::Push()), start_(SteadyNanos()) {}
  ~ScopedSpan() {
    const int64_t duration = SteadyNanos() - start_;
    totals_->calls += 1;
    totals_->total_ns += duration;
    totals_->self_ns += duration - *child_ns_;
    SpanStack::Pop(duration);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTotals* totals_;
  int64_t* child_ns_;
  int64_t start_;
};

/// Wraps the Collector an operator receives: spans and row counts for the
/// hand-off downstream (a chained next operator or an exchange channel).
class TracedCollector : public Collector {
 public:
  explicit TracedCollector(InstanceTrace* trace) : trace_(trace) {}

  void set_target(Collector* target) { target_ = target; }

  void Emit(Tuple tuple) override {
    ScopedSpan span(&trace_->emit);
    trace_->rows_out += 1;
    target_->Emit(std::move(tuple));
  }
  void EmitBatch(MessageBatch* batch) override {
    ScopedSpan span(&trace_->emit);
    trace_->rows_out += static_cast<int64_t>(batch->size());
    target_->EmitBatch(batch);
  }
  void EmitColumnar(std::unique_ptr<ColumnarBatch> block) override {
    ScopedSpan span(&trace_->emit);
    trace_->rows_out += static_cast<int64_t>(block->rows());
    target_->EmitColumnar(std::move(block));
  }
  void Flush() override {
    ScopedSpan span(&trace_->emit);
    target_->Flush();
  }

 private:
  InstanceTrace* trace_;
  Collector* target_ = nullptr;
};

class TracedOperator : public Operator {
 public:
  TracedOperator(std::unique_ptr<Operator> inner, NodeTrace* node)
      : inner_(std::move(inner)),
        node_(node),
        trace_(node->AddInstance()),
        out_(trace_) {}

  std::string name() const override { return inner_->name(); }
  OperatorTraits Traits() const override { return inner_->Traits(); }
  int num_inputs() const override { return inner_->num_inputs(); }
  Status Open() override { return inner_->Open(); }

  Status Process(int input, Tuple tuple, Collector* out) override {
    ScopedSpan span(&trace_->ingest);
    trace_->rows_in += 1;
    out_.set_target(out);
    return inner_->Process(input, std::move(tuple), &out_);
  }
  Status ProcessBatch(int input, MessageBatch* batch, Collector* out) override {
    ScopedSpan span(&trace_->ingest);
    trace_->rows_in += static_cast<int64_t>(batch->size());
    out_.set_target(out);
    return inner_->ProcessBatch(input, batch, &out_);
  }
  Status ProcessColumnar(int input, std::unique_ptr<ColumnarBatch> block,
                         Collector* out) override {
    ScopedSpan span(&trace_->ingest);
    trace_->rows_in += static_cast<int64_t>(block->rows());
    out_.set_target(out);
    return inner_->ProcessColumnar(input, std::move(block), &out_);
  }
  Status OnWatermark(Timestamp watermark, Collector* out) override {
    ScopedSpan span(&trace_->fire);
    out_.set_target(out);
    return inner_->OnWatermark(watermark, &out_);
  }
  Status Finish(Collector* out) override {
    ScopedSpan span(&trace_->fire);
    out_.set_target(out);
    return inner_->Finish(&out_);
  }

  size_t StateBytes() const override { return inner_->StateBytes(); }
  void AttachSelectivityBound(double bound) override {
    inner_->AttachSelectivityBound(bound);
  }
  std::unique_ptr<Operator> CloneForSubtask() const override {
    std::unique_ptr<Operator> clone = inner_->CloneForSubtask();
    if (clone == nullptr) return nullptr;
    return std::make_unique<TracedOperator>(std::move(clone), node_);
  }

 private:
  std::unique_ptr<Operator> inner_;
  NodeTrace* node_;
  InstanceTrace* trace_;
  TracedCollector out_;
};

class TracedSource : public Source {
 public:
  TracedSource(std::unique_ptr<Source> inner, NodeTrace* node)
      : inner_(std::move(inner)), trace_(node->AddInstance()) {}

  std::string name() const override { return inner_->name(); }

  bool Next(Tuple* tuple) override {
    ScopedSpan span(&trace_->ingest);
    const bool more = inner_->Next(tuple);
    trace_->rows_out += more ? 1 : 0;
    return more;
  }
  Timestamp CurrentWatermark() const override {
    return inner_->CurrentWatermark();
  }
  int64_t PacingDeadlineNanos() const override {
    return inner_->PacingDeadlineNanos();
  }

 private:
  std::unique_ptr<Source> inner_;
  InstanceTrace* trace_;
};

/// Per-node traces of one graph, indexed by NodeId.
using GraphTrace = std::vector<std::unique_ptr<NodeTrace>>;

/// Replaces every node of `graph` with its traced wrapper. The returned
/// traces must outlive the graph's execution.
inline GraphTrace InstallTracing(JobGraph* graph) {
  GraphTrace traces;
  for (NodeId id = 0; id < graph->num_nodes(); ++id) {
    JobGraph::Node& node = graph->mutable_node(id);
    auto trace = std::make_unique<NodeTrace>();
    if (node.is_source()) {
      node.source = std::make_unique<TracedSource>(std::move(node.source),
                                                   trace.get());
    } else {
      node.op = std::make_unique<TracedOperator>(std::move(node.op),
                                                 trace.get());
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

}  // namespace cep2asp::e2ebench

#endif  // CEP2ASP_E2EBENCH_TRACE_H_

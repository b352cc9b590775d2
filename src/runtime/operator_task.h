#ifndef CEP2ASP_RUNTIME_OPERATOR_TASK_H_
#define CEP2ASP_RUNTIME_OPERATOR_TASK_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "runtime/channel.h"
#include "runtime/job_graph.h"
#include "runtime/operator.h"
#include "runtime/slot_aligner.h"
#include "runtime/task_scheduler.h"

namespace cep2asp {

class InvariantChecker;

/// Input channels of one node, one per consumer subtask.
using NodeChannels = std::vector<std::unique_ptr<Channel>>;

/// Physical expansion of the logical graph: node `id` becomes
/// parallelism(id) subtask instances, and each consumer subtask owns one
/// input channel fed by every producer subtask of every in-edge. A "slot"
/// is the consumer-side dense index of one (in-edge, producer subtask)
/// pair: watermarks are min-aligned and end-of-stream is counted per slot,
/// because a single input port may merge several producer subtasks.
///
/// Edges fused by operator chaining cross no exchange: they get no slot
/// (base -1) and contribute nothing to the consumer's channel — only chain
/// heads accumulate slots and own channels.
struct PhysicalLayout {
  /// Slots per consumer node = sum of producer parallelism over unfused
  /// in-edges (the graph's physical_fan_in minus fused hand-offs).
  std::vector<int> num_slots;
  /// edge_slot_base[from][out_idx]: first slot of that edge at the
  /// consumer; producer subtask s stamps slot base + s. -1 for fused
  /// edges (in-thread hand-off, never stamped).
  std::vector<std::vector<int>> edge_slot_base;

  PhysicalLayout(const JobGraph& graph, const ChainLayout& chains);
};

/// \brief Collector of one producer subtask (a source, or the tail
/// operator of a chain): routes emitted tuples to the right consumer
/// subtask per out-edge (hash by key, chained/rebalance forward, or
/// broadcast), accumulating one pending MessageBatch per physical target
/// channel. Tuples are copied for all destinations but the last and moved
/// into the last, so the common case (one edge, one target) never
/// deep-copies.
///
/// Full batches go out via the non-blocking Channel::TryPushBatch; a full
/// channel marks the target stuck and the pending buffer keeps the
/// unmoved suffix, growing elastically until the owning task parks on a
/// credit and TryFlushAll later drains it.
///
/// Control messages (watermark/end) go to *every* consumer subtask of
/// every out-edge regardless of the edge's partition mode, appended behind
/// any buffered tuples so per-channel order is preserved. The caller
/// appends each control exactly once; stuck deliveries are retried by
/// flushing, never by re-appending.
class RoutingCollector : public Collector {
 public:
  RoutingCollector(const JobGraph* graph, NodeId node, int subtask,
                   const PhysicalLayout* layout,
                   std::vector<NodeChannels>* channels, size_t batch_size);

  void Emit(Tuple tuple) override;

  /// Batch fast path: a single-forward-edge producer (the common chained
  /// tail) splices the whole batch into the target's pending buffer — one
  /// move per message, port/slot deduplicated into the buffer's batch
  /// header (the channel stamps at the push boundary) — instead of a
  /// per-tuple Route/Append. Other shapes fall back to per-tuple Emit.
  void EmitBatch(MessageBatch* batch) override;

  /// Best-effort push of every pending buffer that is not stuck; the task
  /// checks stuck() afterwards.
  void Flush() override;

  /// Appends a control message behind the buffered tuples of every
  /// physical target and flushes best-effort.
  void EmitControl(MessageKind kind, Timestamp watermark);

  /// Attempts to drain every pending buffer. Returns true when all of
  /// them are empty (no stuck target remains).
  bool TryFlushAll();

  /// True while some target's channel rejected a push and holds back a
  /// pending suffix. Cleared by a successful TryFlushAll.
  bool stuck() const { return stuck_targets_ > 0; }

  /// Adaptive batch sizing: new flush threshold in [1, batch_size].
  void set_target_batch(size_t target) {
    cur_batch_ = target < 1 ? 1 : target;
  }

 private:
  struct Target {
    Channel* channel = nullptr;
    MessageBatch pending;
    bool stuck = false;
    /// Whether the current pending buffer was already offered to the
    /// channel once (batch/fill-histogram stats count per logical batch).
    bool push_started = false;
  };

  struct OutEdge {
    int port = 0;
    PartitionMode mode = PartitionMode::kForward;
    int consumer_parallelism = 1;
    int slot = 0;           // consumer-side slot this producer subtask owns
    int fixed_target = -1;  // forward short-circuit; -1 = dynamic routing
    int first_target = 0;   // index of consumer subtask 0 in targets_
    size_t rr_cursor = 0;   // rebalance state (forward, unequal parallelism)
  };

  struct Destination {
    int edge = 0;
    int target = 0;
  };

  int Route(OutEdge& e, const Tuple& tuple);
  void Append(int t, Message msg);
  void FlushTarget(int t);

  const size_t batch_size_;
  size_t cur_batch_;
  int stuck_targets_ = 0;
  std::vector<Target> targets_;
  std::vector<OutEdge> edges_;
  std::vector<Destination> destinations_;
};

/// \brief Collector of one fused edge inside a chain: hands each emitted
/// tuple straight to the next operator's Process on the calling thread —
/// no MessageBatch, no ring, no copy. Flush propagates down the chain so
/// the tail's micro-batches still drain when the head goes idle.
/// Watermarks never pass through here (the chain driver cascades
/// OnWatermark through the operators itself, in chain order, before
/// forwarding downstream).
class ChainedCollector : public Collector {
 public:
  ChainedCollector(Operator* next, int port, Collector* downstream,
                   Status* chain_status, int64_t* handed_over,
                   InvariantChecker* invariants, NodeId node, int subtask)
      : next_(next),
        port_(port),
        downstream_(downstream),
        chain_status_(chain_status),
        handed_over_(handed_over),
        invariants_(invariants),
        node_(node),
        subtask_(subtask) {}

  void Emit(Tuple tuple) override;

  /// Hands a whole data batch to the next operator's ProcessBatch in one
  /// virtual call — batches emitted by a compiled operator flow down the
  /// rest of the chain without re-splitting into per-tuple hops.
  void EmitBatch(MessageBatch* batch) override;

  void Flush() override { downstream_->Flush(); }

 private:
  Operator* next_;
  int port_;
  Collector* downstream_;
  Status* chain_status_;
  int64_t* handed_over_;
  InvariantChecker* invariants_;  // null outside invariant-checking builds
  NodeId node_;
  int subtask_;
};

/// Input batches one task processes before it yields its worker (the
/// cooperative quantum). Larger quanta amortize scheduling overhead;
/// smaller ones interleave co-scheduled tasks more finely.
inline constexpr int kQuantumBatches = 8;

/// Shared environment of every task of one execution; owned by the
/// executor and outliving the scheduler run.
struct TaskContext {
  const JobGraph* graph = nullptr;
  const PhysicalLayout* layout = nullptr;
  std::vector<NodeChannels>* channels = nullptr;
  /// fused_tuples[node][subtask]: in-thread hand-off counters of fused
  /// edges, written by the owning chain task only.
  std::vector<std::vector<int64_t>>* fused_tuples = nullptr;
  size_t batch_size = 64;
  int watermark_interval = 256;
  Clock* clock = nullptr;
  InvariantChecker* invariants = nullptr;  // null outside debug wiring
  std::function<void(const Status&)> record_error;
  std::atomic<int64_t>* tuples_ingested = nullptr;
};

/// \brief Cooperative task driving one source node: stages up to the
/// current batch size of tuples per iteration, stamps create_ts, routes
/// them, and emits periodic watermarks — yielding at quantum boundaries
/// instead of owning an OS thread. Rate-limited sources park on the
/// scheduler timer (Source::PacingDeadlineNanos) rather than sleeping a
/// worker.
class SourceTask : public Task {
 public:
  SourceTask(const TaskContext* ctx, NodeId node, Source* source);

  std::string label() const override { return label_; }
  Quantum RunQuantum() override;

 private:
  const TaskContext* ctx_;
  Source* source_;
  std::string label_;
  RoutingCollector router_;
  std::vector<Tuple> staged_;
  size_t cur_batch_;
  int since_watermark_ = 0;
  bool exhausted_ = false;
  /// Set once a full batch was staged without the source ever reporting a
  /// pacing deadline: from then on batches are filled with bare Next()
  /// calls, skipping the per-tuple deadline probe a throughput source
  /// never needs.
  bool unpaced_ = false;

  Quantum Park(WakeKind kind, int batches, int64_t deadline_nanos = 0);
};

/// \brief Cooperative task driving one (chain, subtask): pops batches from
/// the chain head's input channel, runs the fused operators, aligns
/// watermarks per slot (SlotAligner), and routes the tail's output. Never
/// blocks: an empty input parks it on kInput, a full output channel on
/// kCredit.
class ChainTask : public Task {
 public:
  /// `ops` are the already-opened operator instances of this subtask, in
  /// chain order.
  ChainTask(const TaskContext* ctx, const std::vector<NodeId>* chain_nodes,
            int subtask, std::vector<Operator*> ops);

  std::string label() const override { return label_; }
  Quantum RunQuantum() override;

 private:
  enum class Phase { kStart, kRun, kDone };

  Status CascadeWatermark(Timestamp watermark);
  Status CascadeFinish();
  void ProcessBatch(MessageBatch* batch);
  void AdaptBatch(int batches_used, bool stalled);
  Quantum Park(WakeKind kind, int batches);

  const TaskContext* ctx_;
  const std::vector<NodeId>* chain_nodes_;
  const int subtask_;
  std::string label_;
  std::vector<Operator*> ops_;
  Status chain_status_;
  RoutingCollector router_;
  std::vector<ChainedCollector> links_;
  std::vector<Collector*> collectors_;
  SlotAligner aligner_;
  Channel* input_ = nullptr;
  MessageBatch in_;
  size_t cur_batch_;
  Phase phase_ = Phase::kStart;
};

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_OPERATOR_TASK_H_

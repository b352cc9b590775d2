#include "runtime/operator_task.h"

#include <algorithm>

#include "analysis/invariant_checker.h"
#include "common/logging.h"

namespace cep2asp {

namespace {

/// Pacing remainders shorter than this are absorbed by a micro-sleep
/// inside Source::Next instead of a scheduler timer park: parking costs a
/// state-machine round-trip plus a condvar wait, which is not worth it
/// under ~0.1 ms.
constexpr int64_t kPacingSlackNanos = 100'000;

}  // namespace

PhysicalLayout::PhysicalLayout(const JobGraph& graph,
                               const ChainLayout& chains) {
  const int n = graph.num_nodes();
  num_slots.assign(static_cast<size_t>(n), 0);
  edge_slot_base.resize(static_cast<size_t>(n));
  for (NodeId from = 0; from < n; ++from) {
    const JobGraph::Node& node = graph.node(from);
    edge_slot_base[static_cast<size_t>(from)].reserve(node.outputs.size());
    for (size_t i = 0; i < node.outputs.size(); ++i) {
      const JobGraph::Edge& edge = node.outputs[i];
      if (chains.fused(from, i)) {
        edge_slot_base[static_cast<size_t>(from)].push_back(-1);
        continue;
      }
      edge_slot_base[static_cast<size_t>(from)].push_back(
          num_slots[static_cast<size_t>(edge.to)]);
      num_slots[static_cast<size_t>(edge.to)] += node.parallelism;
    }
  }
}

RoutingCollector::RoutingCollector(const JobGraph* graph, NodeId node,
                                   int subtask, const PhysicalLayout* layout,
                                   std::vector<NodeChannels>* channels,
                                   size_t batch_size)
    : batch_size_(std::max<size_t>(1, batch_size)),
      cur_batch_(std::max<size_t>(1, batch_size)) {
  const JobGraph::Node& producer = graph->node(node);
  for (size_t i = 0; i < producer.outputs.size(); ++i) {
    const JobGraph::Edge& edge = producer.outputs[i];
    OutEdge out;
    out.port = edge.input_port;
    out.mode = edge.partition;
    out.consumer_parallelism = graph->parallelism(edge.to);
    out.slot = layout->edge_slot_base[static_cast<size_t>(node)][i] + subtask;
    out.fixed_target = -1;
    if (edge.partition == PartitionMode::kForward) {
      if (out.consumer_parallelism == 1) {
        out.fixed_target = 0;  // the historical single-instance path
      } else if (producer.parallelism == out.consumer_parallelism) {
        out.fixed_target = subtask;  // chained subtask-local hand-off
      }
      // else: round-robin rebalance via rr_cursor.
    }
    out.first_target = static_cast<int>(targets_.size());
    for (int s = 0; s < out.consumer_parallelism; ++s) {
      Target target;
      target.channel =
          (*channels)[static_cast<size_t>(edge.to)][static_cast<size_t>(s)]
              .get();
      target.pending.reserve(batch_size_);
      // One target serves exactly one (out-edge, consumer subtask) pair, so
      // its port and slot are constants: deduplicate them into the pending
      // buffer's batch header instead of stamping every Message — the
      // channel stamps from the header at the push boundary.
      target.pending.hdr_port = out.port;
      target.pending.hdr_slot = out.slot;
      target.pending.hdr_valid = true;
      targets_.push_back(std::move(target));
    }
    edges_.push_back(out);
  }
}

int RoutingCollector::Route(OutEdge& e, const Tuple& tuple) {
  if (e.fixed_target >= 0) return e.fixed_target;
  if (e.mode == PartitionMode::kHash) {
    return KeyToSubtask(tuple.key(), e.consumer_parallelism);
  }
  return static_cast<int>(e.rr_cursor++ %
                          static_cast<size_t>(e.consumer_parallelism));
}

void RoutingCollector::Emit(Tuple tuple) {
  if (edges_.empty()) return;
  if (edges_.size() == 1 && edges_[0].mode != PartitionMode::kBroadcast) {
    OutEdge& e = edges_[0];
    const int t = e.first_target + Route(e, tuple);
    Append(t, Message::Data(e.port, std::move(tuple), e.slot));
    return;
  }
  // General fan-out: resolve every destination first, then copy to all
  // but the last and move into the last.
  destinations_.clear();
  for (size_t i = 0; i < edges_.size(); ++i) {
    OutEdge& e = edges_[i];
    if (e.mode == PartitionMode::kBroadcast) {
      for (int s = 0; s < e.consumer_parallelism; ++s) {
        destinations_.push_back({static_cast<int>(i), e.first_target + s});
      }
    } else {
      destinations_.push_back(
          {static_cast<int>(i), e.first_target + Route(e, tuple)});
    }
  }
  const size_t last = destinations_.size() - 1;
  for (size_t d = 0; d < last; ++d) {
    const OutEdge& e = edges_[static_cast<size_t>(destinations_[d].edge)];
    Append(destinations_[d].target, Message::Data(e.port, tuple, e.slot));
  }
  const OutEdge& e = edges_[static_cast<size_t>(destinations_[last].edge)];
  Append(destinations_[last].target,
         Message::Data(e.port, std::move(tuple), e.slot));
}

void RoutingCollector::EmitBatch(MessageBatch* batch) {
  if (edges_.empty()) {
    batch->clear();
    return;
  }
  if (edges_.size() == 1 && edges_[0].fixed_target >= 0) {
    OutEdge& e = edges_[0];
    const int t = e.first_target + e.fixed_target;
    Target& target = targets_[static_cast<size_t>(t)];
    // No per-message port/slot rewrite: the target's batch header carries
    // them once and the channel stamps at the push boundary.
    for (Message& msg : *batch) {
      target.pending.push_back(std::move(msg));
    }
    batch->clear();
    if (target.pending.size() >= cur_batch_ && !target.stuck) FlushTarget(t);
    return;
  }
  // Hash / broadcast / fan-out: per-tuple routing.
  for (Message& msg : *batch) Emit(std::move(msg.tuple));
  batch->clear();
}

void RoutingCollector::Append(int t, Message msg) {
  Target& target = targets_[static_cast<size_t>(t)];
  target.pending.push_back(std::move(msg));
  // A stuck target buffers elastically until the task's next flush retry;
  // offering the channel again per append would only thrash.
  if (target.pending.size() >= cur_batch_ && !target.stuck) FlushTarget(t);
}

void RoutingCollector::FlushTarget(int t) {
  Target& target = targets_[static_cast<size_t>(t)];
  if (target.pending.empty()) return;
  const bool first_attempt = !target.push_started;
  const TryPush outcome =
      target.channel->TryPushBatch(&target.pending, first_attempt);
  target.push_started = true;
  if (outcome == TryPush::kBlocked) {
    if (!target.stuck) {
      target.stuck = true;
      ++stuck_targets_;
    }
    return;
  }
  // kPushed, or kClosed (batch dropped): the pending buffer is empty.
  target.push_started = false;
  if (target.stuck) {
    target.stuck = false;
    --stuck_targets_;
  }
}

void RoutingCollector::Flush() {
  for (size_t t = 0; t < targets_.size(); ++t) {
    if (!targets_[t].stuck) FlushTarget(static_cast<int>(t));
  }
}

bool RoutingCollector::TryFlushAll() {
  for (size_t t = 0; t < targets_.size(); ++t) FlushTarget(static_cast<int>(t));
  return stuck_targets_ == 0;
}

void RoutingCollector::EmitControl(MessageKind kind, Timestamp watermark) {
  for (size_t i = 0; i < edges_.size(); ++i) {
    const OutEdge& e = edges_[i];
    for (int s = 0; s < e.consumer_parallelism; ++s) {
      const int t = e.first_target + s;
      targets_[static_cast<size_t>(t)].pending.push_back(
          Message::Control(kind, e.port, watermark, e.slot));
      FlushTarget(t);
    }
  }
}

void ChainedCollector::Emit(Tuple tuple) {
  // Once the chain failed it is unwinding; drop instead of feeding an
  // operator whose run already ended with an error.
  if (!chain_status_->ok()) return;
  ++*handed_over_;
  if (invariants_ != nullptr) {
    // A fused consumer has exactly one in-edge from an equal-parallelism
    // producer, so its physical fan-in equals its parallelism and slot
    // `subtask` is exactly the channel this in-thread hand-off replaces.
    invariants_->OnPhysicalTuple(node_, subtask_, subtask_, tuple);
  }
  Status st = next_->Process(port_, std::move(tuple), downstream_);
  if (!st.ok()) *chain_status_ = st.WithContext(next_->name());
}

void ChainedCollector::EmitBatch(MessageBatch* batch) {
  if (!chain_status_->ok() || batch->empty()) {
    batch->clear();
    return;
  }
  *handed_over_ += static_cast<int64_t>(batch->size());
  if (invariants_ != nullptr) {
    for (const Message& msg : *batch) {
      invariants_->OnPhysicalTuple(node_, subtask_, subtask_, msg.tuple);
    }
  }
  Status st = next_->ProcessBatch(port_, batch, downstream_);
  if (!st.ok()) *chain_status_ = st.WithContext(next_->name());
}

// ---------------------------------------------------------------------------
// SourceTask

SourceTask::SourceTask(const TaskContext* ctx, NodeId node, Source* source)
    : ctx_(ctx),
      source_(source),
      label_("src:" + source->name()),
      router_(ctx->graph, node, /*subtask=*/0, ctx->layout, ctx->channels,
              ctx->batch_size),
      cur_batch_(std::max<size_t>(1, ctx->batch_size)) {
  staged_.reserve(cur_batch_);
}

Quantum SourceTask::Park(WakeKind kind, int batches, int64_t deadline_nanos) {
  Quantum q;
  q.outcome = Quantum::Outcome::kWaiting;
  q.wait_kind = kind;
  q.deadline_nanos = deadline_nanos;
  q.batches = batches;
  return q;
}

Quantum SourceTask::RunQuantum() {
  Quantum q;
  // A stuck flush from the previous quantum gates everything: per-channel
  // order would break if new tuples overtook the pending suffix.
  if (!router_.TryFlushAll()) return Park(WakeKind::kCredit, 0);
  if (exhausted_) {
    q.outcome = Quantum::Outcome::kFinished;
    return q;
  }
  Clock* clock = ctx_->clock;
  bool more = true;
  while (q.batches < kQuantumBatches) {
    staged_.clear();
    bool paced = false;
    Tuple tuple;
    if (unpaced_) {
      // Confirmed-unpaced fast path: fill the batch with bare Next()
      // calls. (If such a source ever turns paced again, Next()'s
      // documented self-pacing fallback still bounds its rate — it just
      // blocks the worker instead of timer-parking.)
      while (staged_.size() < cur_batch_ && (more = source_->Next(&tuple))) {
        staged_.push_back(std::move(tuple));
      }
    } else {
      // Park-until-deadline pacing: if the source would sleep more than
      // the slack before its next tuple, hand the wait to the scheduler
      // timer instead of stalling this worker inside Next(). A source
      // that fills a whole batch without ever reporting a deadline is
      // unpaced: drop the per-tuple virtual call from then on.
      bool saw_deadline = false;
      while (staged_.size() < cur_batch_) {
        const int64_t due = source_->PacingDeadlineNanos();
        if (due > 0) {
          saw_deadline = true;
          if (due - clock->NowNanos() > kPacingSlackNanos) {
            paced = true;
            break;
          }
        }
        if (!source_->Next(&tuple)) {
          more = false;
          break;
        }
        staged_.push_back(std::move(tuple));
      }
      unpaced_ = more && !saw_deadline && staged_.size() >= cur_batch_;
    }
    if (!staged_.empty()) {
      ++q.batches;
      const Timestamp now = clock->NowMillis();
      for (Tuple& t : staged_) {
        for (size_t i = 0; i < t.size(); ++i) {
          t.mutable_event(i).create_ts = now;
        }
      }
      ctx_->tuples_ingested->fetch_add(static_cast<int64_t>(staged_.size()),
                                       std::memory_order_relaxed);
      for (Tuple& t : staged_) router_.Emit(std::move(t));
      since_watermark_ += static_cast<int>(staged_.size());
      if (since_watermark_ >= ctx_->watermark_interval) {
        since_watermark_ = 0;
        router_.EmitControl(MessageKind::kWatermark,
                            source_->CurrentWatermark());
      }
    }
    if (!more) {
      router_.EmitControl(MessageKind::kWatermark, kMaxTimestamp);
      router_.EmitControl(MessageKind::kEnd, 0);
      exhausted_ = true;
      if (!router_.TryFlushAll()) return Park(WakeKind::kCredit, q.batches);
      q.outcome = Quantum::Outcome::kFinished;
      return q;
    }
    if (paced) {
      // Deliver partially staged output before sleeping, then park until
      // the source's own deadline, translated into scheduler time.
      const bool flushed = router_.TryFlushAll();
      cur_batch_ = std::max<size_t>(1, cur_batch_ / 2);
      if (!flushed) return Park(WakeKind::kCredit, q.batches);
      const int64_t delta = source_->PacingDeadlineNanos() - clock->NowNanos();
      return Park(WakeKind::kTimer, q.batches,
                  TaskScheduler::SteadyNanos() + std::max<int64_t>(delta, 0));
    }
    if (router_.stuck()) {
      return Park(WakeKind::kCredit, q.batches);
    }
  }
  // Full quantum without a stall: grow the staging batch back.
  cur_batch_ = std::min(std::max<size_t>(1, ctx_->batch_size), cur_batch_ * 2);
  q.outcome = Quantum::Outcome::kYielded;
  return q;
}

// ---------------------------------------------------------------------------
// ChainTask

ChainTask::ChainTask(const TaskContext* ctx,
                     const std::vector<NodeId>* chain_nodes, int subtask,
                     std::vector<Operator*> ops)
    : ctx_(ctx),
      chain_nodes_(chain_nodes),
      subtask_(subtask),
      ops_(std::move(ops)),
      router_(ctx->graph, chain_nodes->back(), subtask, ctx->layout,
              ctx->channels, ctx->batch_size),
      aligner_(
          ctx->layout->num_slots[static_cast<size_t>(chain_nodes->front())]),
      cur_batch_(std::max<size_t>(1, ctx->batch_size)) {
  const NodeId head = chain_nodes_->front();
  label_ = ops_.front()->name() + "[" + std::to_string(subtask_) + "]";
  if (aligner_.num_slots() > 0) {
    input_ = (*ctx_->channels)[static_cast<size_t>(head)]
                              [static_cast<size_t>(subtask_)]
                                  .get();
  }
  in_.reserve(cur_batch_);
  // Collector per chain position, built tail-first: the tail batches into
  // real channels, every link hands to the next operator in-task. `links_`
  // never reallocates (reserved), so the stored downstream pointers stay
  // valid.
  links_.reserve(ops_.size());
  collectors_.assign(ops_.size(), nullptr);
  collectors_.back() = &router_;
  for (size_t i = ops_.size() - 1; i >= 1; --i) {
    const JobGraph::Edge& edge =
        ctx_->graph->node((*chain_nodes_)[i - 1]).outputs[0];
    links_.emplace_back(
        ops_[i], edge.input_port, collectors_[i], &chain_status_,
        &(*ctx_->fused_tuples)[static_cast<size_t>((*chain_nodes_)[i])]
                              [static_cast<size_t>(subtask_)],
        ctx_->invariants, (*chain_nodes_)[i], subtask_);
    collectors_[i - 1] = &links_.back();
  }
}

Status ChainTask::CascadeWatermark(Timestamp watermark) {
  // Watermarks and Finish cascade through the chain in operator order:
  // each operator's OnWatermark/Finish emissions reach the downstream
  // operators (through the links) *before* the control event is forwarded
  // past them — the same order the unfused per-edge protocol guarantees.
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (i > 0 && ctx_->invariants != nullptr) {
      ctx_->invariants->OnPhysicalWatermark((*chain_nodes_)[i], subtask_,
                                            subtask_, watermark);
    }
    Status st = ops_[i]->OnWatermark(watermark, collectors_[i]);
    if (!st.ok()) return st.WithContext(ops_[i]->name());
    if (!chain_status_.ok()) return chain_status_;
  }
  return Status::OK();
}

Status ChainTask::CascadeFinish() {
  for (size_t i = 0; i < ops_.size(); ++i) {
    Status st = ops_[i]->Finish(collectors_[i]);
    if (!st.ok()) return st.WithContext(ops_[i]->name());
    if (!chain_status_.ok()) return chain_status_;
  }
  return Status::OK();
}

void ChainTask::ProcessBatch(MessageBatch* batch) {
  const NodeId head = chain_nodes_->front();
  // Steady-state fast path: a batch of only data messages on one port goes
  // to the head operator's ProcessBatch in a single call. Compiled
  // stateless heads run it as one tight loop; everything else falls back
  // to the identical per-tuple default.
  if (!batch->empty() && !aligner_.done()) {
    const int port = batch->front().port;
    bool homogeneous = true;
    for (const Message& msg : *batch) {
      if (msg.kind != MessageKind::kTuple || msg.port != port) {
        homogeneous = false;
        break;
      }
    }
    if (homogeneous) {
      if (ctx_->invariants != nullptr) {
        for (const Message& msg : *batch) {
          ctx_->invariants->OnPhysicalTuple(head, subtask_, msg.slot,
                                            msg.tuple);
        }
      }
      Status st =
          ops_.front()->ProcessBatch(port, batch, collectors_.front());
      if (!st.ok()) {
        st = st.WithContext(ops_.front()->name());
      } else if (!chain_status_.ok()) {
        st = chain_status_;
      }
      if (!st.ok()) {
        ctx_->record_error(st);
        aligner_.ForceDone();
        phase_ = Phase::kDone;
      }
      batch->clear();
      return;
    }
  }
  for (Message& msg : *batch) {
    if (aligner_.done()) break;
    switch (msg.kind) {
      case MessageKind::kTuple: {
        if (ctx_->invariants != nullptr) {
          ctx_->invariants->OnPhysicalTuple(head, subtask_, msg.slot,
                                            msg.tuple);
        }
        Status st = ops_.front()->Process(msg.port, std::move(msg.tuple),
                                          collectors_.front());
        if (!st.ok()) {
          st = st.WithContext(ops_.front()->name());
        } else if (!chain_status_.ok()) {
          st = chain_status_;
        }
        if (!st.ok()) {
          ctx_->record_error(st);
          aligner_.ForceDone();
          phase_ = Phase::kDone;
        }
        break;
      }
      case MessageKind::kWatermark: {
        if (ctx_->invariants != nullptr) {
          ctx_->invariants->OnPhysicalWatermark(head, subtask_, msg.slot,
                                                msg.watermark);
        }
        Timestamp aligned = kMinTimestamp;
        if (aligner_.OnWatermark(msg.slot, msg.watermark, &aligned)) {
          Status st = CascadeWatermark(aligned);
          if (!st.ok()) {
            ctx_->record_error(st);
            aligner_.ForceDone();
            phase_ = Phase::kDone;
          } else {
            router_.EmitControl(MessageKind::kWatermark, aligned);
          }
        }
        break;
      }
      case MessageKind::kEnd: {
        if (aligner_.OnEnd()) {
          Status st = CascadeFinish();
          if (!st.ok()) ctx_->record_error(st);
          router_.EmitControl(MessageKind::kEnd, 0);
          phase_ = Phase::kDone;
        }
        break;
      }
    }
  }
}

/// Grow toward the configured batch size while input keeps whole quanta
/// busy; halve only when the task parks input-starved having processed
/// nothing, so trickling streams flow in small hops. An output stall
/// deliberately keeps the batch unchanged: under backpressure larger
/// hand-offs amortize channel synchronization, and halving there pins
/// every producer at batch 1 on hosts where the consumer never runs
/// concurrently (the producer stalls once per quantum).
void ChainTask::AdaptBatch(int batches_used, bool starved) {
  if (starved && batches_used == 0) {
    cur_batch_ = std::max<size_t>(1, cur_batch_ / 2);
  } else if (batches_used >= kQuantumBatches) {
    cur_batch_ =
        std::min(std::max<size_t>(1, ctx_->batch_size), cur_batch_ * 2);
  }
  router_.set_target_batch(cur_batch_);
}

Quantum ChainTask::Park(WakeKind kind, int batches) {
  Quantum q;
  q.outcome = Quantum::Outcome::kWaiting;
  q.wait_kind = kind;
  q.batches = batches;
  return q;
}

Quantum ChainTask::RunQuantum() {
  Quantum q;
  // Drain any stuck output first: per-channel order forbids new work from
  // overtaking the pending suffix.
  if (!router_.TryFlushAll()) return Park(WakeKind::kCredit, 0);
  if (phase_ == Phase::kDone) {
    q.outcome = Quantum::Outcome::kFinished;
    return q;
  }
  if (phase_ == Phase::kStart) {
    phase_ = Phase::kRun;
    if (aligner_.num_slots() == 0) {
      // No upstream at all (lint warns W306): nothing will ever arrive;
      // run the shutdown protocol so downstream terminates.
      Status st = CascadeWatermark(kMaxTimestamp);
      if (st.ok()) st = CascadeFinish();
      if (!st.ok()) ctx_->record_error(st);
      router_.EmitControl(MessageKind::kWatermark, kMaxTimestamp);
      router_.EmitControl(MessageKind::kEnd, 0);
      phase_ = Phase::kDone;
      if (!router_.TryFlushAll()) return Park(WakeKind::kCredit, 0);
      q.outcome = Quantum::Outcome::kFinished;
      return q;
    }
  }
  bool stalled = false;
  while (q.batches < kQuantumBatches && phase_ == Phase::kRun) {
    bool eos = false;
    const size_t popped = input_->TryPopBatch(&in_, cur_batch_, &eos);
    if (popped == 0) {
      if (eos) {
        // Closed under error unwind: abandon.
        phase_ = Phase::kDone;
        break;
      }
      // Input drained for now: hand partial output batches downstream
      // before parking, so a stalled stream never strands tuples in a
      // half-filled batch.
      collectors_.front()->Flush();
      if (!router_.TryFlushAll()) {
        stalled = true;
        break;
      }
      AdaptBatch(q.batches, /*starved=*/true);
      return Park(WakeKind::kInput, q.batches);
    }
    ++q.batches;
    ProcessBatch(&in_);
    if (router_.stuck()) {
      stalled = true;
      break;
    }
  }
  if (stalled) {
    AdaptBatch(q.batches, /*starved=*/false);
    return Park(WakeKind::kCredit, q.batches);
  }
  if (phase_ == Phase::kDone) {
    if (!router_.TryFlushAll()) return Park(WakeKind::kCredit, q.batches);
    q.outcome = Quantum::Outcome::kFinished;
    return q;
  }
  AdaptBatch(q.batches, /*starved=*/false);
  q.outcome = Quantum::Outcome::kYielded;
  return q;
}

}  // namespace cep2asp

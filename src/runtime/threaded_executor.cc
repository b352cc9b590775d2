#include "runtime/threaded_executor.h"

#include <algorithm>
#include <mutex>
#include <thread>
#include <utility>

#include "analysis/graph_rules.h"
#include "analysis/invariant_checker.h"
#include "common/logging.h"
#include "runtime/operator_task.h"
#include "runtime/task_scheduler.h"

namespace cep2asp {

ThreadedExecutor::ThreadedExecutor(JobGraph* graph,
                                   ThreadedExecutorOptions options)
    : graph_(graph), options_(options) {}

ExecutionResult ThreadedExecutor::Run(const CollectSink* sink) {
  ExecutionResult result;
  DiagnosticReport report = AnalyzeJobGraph(*graph_);
  result.diagnostics = report.diagnostics();
  Status validate = report.ToStatus();
  if (!validate.ok()) {
    result.error = validate.ToString();
    return result;
  }
#if CEP2ASP_CHECK_INVARIANTS
  InvariantChecker invariants_storage(*graph_);
  InvariantChecker* const invariants = &invariants_storage;
#else
  InvariantChecker* const invariants = nullptr;
#endif
  Clock* clock = options_.clock ? options_.clock : SystemClock::Get();
  const size_t batch_size = std::max<size_t>(1, options_.batch_size);

  const int n = graph_->num_nodes();
  const ChainLayout chain_layout = ComputeChainLayout(*graph_);
  const PhysicalLayout layout(*graph_, chain_layout);

  // One input channel per (chain head, subtask); chain interiors receive
  // tuples in-thread and own no channel. Every producer subtask of every
  // unfused in-edge pushes at least control messages into each channel, so
  // the SPSC fast path needs physical fan-in 1.
  std::vector<NodeChannels> channels(static_cast<size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    if (graph_->node(id).is_source() || !chain_layout.is_head(id)) continue;
    const int subtasks = graph_->parallelism(id);
    for (int s = 0; s < subtasks; ++s) {
      channels[static_cast<size_t>(id)].push_back(
          MakeChannel(layout.num_slots[static_cast<size_t>(id)],
                      options_.queue_capacity));
    }
  }

  // Every source and every (chain, subtask) becomes a cooperative task on
  // this fixed worker pool; channels signal readiness (push -> consumer,
  // credit -> producers) instead of blocking.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = options_.worker_threads > 0 ? options_.worker_threads
                      : hw > 0                    ? hw
                                                  : 1;
  TaskScheduler scheduler(workers);

  std::mutex status_mutex;
  Status run_status;  // guarded by status_mutex
  // The only error unwind: close every channel so no task keeps feeding an
  // abandoned edge, and wake every parked task (a closed channel alone
  // does not resume a parked task) so each one observes the closure and
  // finishes. Before the pool runs there are no tasks and WakeAll is a
  // no-op.
  auto record_error = [&status_mutex, &run_status, &channels,
                       &scheduler](const Status& st) {
    {
      std::lock_guard<std::mutex> lock(status_mutex);
      if (!run_status.ok()) return;
      run_status = st;
      for (NodeChannels& node_channels : channels) {
        for (std::unique_ptr<Channel>& ch : node_channels) ch->Close();
      }
    }
    scheduler.WakeAll();
  };

  // Subtask instances: subtask 0 runs the graph's own operator, subtasks
  // 1..P-1 run state-empty clones (lint rule E314 guarantees the operator
  // supports cloning when parallelism > 1).
  std::vector<std::vector<std::unique_ptr<Operator>>> clones(
      static_cast<size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    JobGraph::Node& node = graph_->mutable_node(id);
    if (node.is_source()) continue;
    for (int s = 1; s < node.parallelism; ++s) {
      std::unique_ptr<Operator> clone = node.op->CloneForSubtask();
      CEP2ASP_CHECK(clone != nullptr)
          << node.op->name() << " has parallelism " << node.parallelism
          << " but no CloneForSubtask";
      clones[static_cast<size_t>(id)].push_back(std::move(clone));
    }
  }

  // In-thread hand-off counters of fused edges: fused_tuples[id][s] counts
  // tuples handed into subtask s of chain-interior node id. Each cell is
  // written only by its own chain task; read after the run.
  std::vector<std::vector<int64_t>> fused_tuples(static_cast<size_t>(n));
  for (NodeId id = 0; id < n; ++id) {
    if (graph_->node(id).is_source()) continue;
    fused_tuples[static_cast<size_t>(id)].assign(
        static_cast<size_t>(graph_->parallelism(id)), 0);
  }

  std::atomic<int64_t> tuples_ingested{0};
  int64_t start_nanos = clock->NowNanos();

  // Resolves the operator instance of (node, subtask) and Opens the whole
  // chain on the calling thread; returns empty on failure (recorded).
  auto open_chain = [&](const std::vector<NodeId>& chain,
                        int subtask) -> std::vector<Operator*> {
    std::vector<Operator*> ops;
    ops.reserve(chain.size());
    for (NodeId id : chain) {
      Operator* op =
          subtask == 0
              ? graph_->mutable_node(id).op.get()
              : clones[static_cast<size_t>(id)][static_cast<size_t>(subtask - 1)]
                    .get();
      Status open = op->Open();
      if (!open.ok()) {
        record_error(open.WithContext(op->name()));
        return {};
      }
      ops.push_back(op);
    }
    return ops;
  };

  TaskContext ctx;
  ctx.graph = graph_;
  ctx.layout = &layout;
  ctx.channels = &channels;
  ctx.fused_tuples = &fused_tuples;
  ctx.batch_size = batch_size;
  ctx.watermark_interval = options_.watermark_interval;
  ctx.clock = clock;
  ctx.invariants = invariants;
  ctx.record_error = record_error;
  ctx.tuples_ingested = &tuples_ingested;

  std::vector<std::unique_ptr<Task>> tasks;
  // Producing task(s) of every node: sources have one task, operator
  // nodes are driven by the task(s) of their chain. Used to wire credit
  // hooks (a consumer pop wakes the producers of that channel).
  std::vector<std::vector<Task*>> tasks_of_node(static_cast<size_t>(n));
  // Consuming task per (chain head, subtask), indexed like `channels`.
  std::vector<std::vector<Task*>> consumer_of(static_cast<size_t>(n));

  for (NodeId id = 0; id < n; ++id) {
    JobGraph::Node& node = graph_->mutable_node(id);
    if (!node.is_source()) continue;
    tasks.push_back(std::make_unique<SourceTask>(&ctx, id, node.source.get()));
    tasks_of_node[static_cast<size_t>(id)].push_back(tasks.back().get());
  }
  for (int c = 0; c < chain_layout.num_chains(); ++c) {
    const std::vector<NodeId>& chain =
        chain_layout.chains[static_cast<size_t>(c)];
    const NodeId head = chain.front();
    const int subtasks = graph_->parallelism(head);
    consumer_of[static_cast<size_t>(head)].assign(
        static_cast<size_t>(subtasks), nullptr);
    for (int subtask = 0; subtask < subtasks; ++subtask) {
      std::vector<Operator*> ops = open_chain(chain, subtask);
      if (ops.empty()) continue;  // Open failed; channels already closed
      tasks.push_back(
          std::make_unique<ChainTask>(&ctx, &chain, subtask, std::move(ops)));
      consumer_of[static_cast<size_t>(head)][static_cast<size_t>(subtask)] =
          tasks.back().get();
      for (NodeId id : chain) {
        tasks_of_node[static_cast<size_t>(id)].push_back(tasks.back().get());
      }
    }
  }

  // Readiness hooks: a push wakes the channel's consumer task (it may be
  // parked on empty input), a pop returns credits and wakes every task
  // that routes into this channel (they may be parked on a full push).
  for (NodeId to = 0; to < n; ++to) {
    NodeChannels& node_channels = channels[static_cast<size_t>(to)];
    if (node_channels.empty()) continue;
    // Producers of (to, *): tasks of every node with an unfused edge
    // into `to`. Unfused out-edges only exist on sources and chain
    // tails, whose tasks own the RoutingCollector that pushes here.
    std::vector<Task*> producers;
    for (NodeId from = 0; from < n; ++from) {
      const JobGraph::Node& from_node = graph_->node(from);
      for (size_t i = 0; i < from_node.outputs.size(); ++i) {
        if (from_node.outputs[i].to != to || chain_layout.fused(from, i)) {
          continue;
        }
        for (Task* t : tasks_of_node[static_cast<size_t>(from)]) {
          if (std::find(producers.begin(), producers.end(), t) ==
              producers.end()) {
            producers.push_back(t);
          }
        }
      }
    }
    for (size_t s = 0; s < node_channels.size(); ++s) {
      Task* consumer = consumer_of[static_cast<size_t>(to)][s];
      node_channels[s]->SetReadinessHooks(
          [&scheduler, consumer] {
            if (consumer != nullptr) {
              scheduler.Wake(consumer, WakeKind::kInput);
            }
          },
          [&scheduler, producers] {
            for (Task* producer : producers) {
              scheduler.Wake(producer, WakeKind::kCredit);
            }
          });
    }
  }

  std::vector<Task*> task_ptrs;
  task_ptrs.reserve(tasks.size());
  for (const std::unique_ptr<Task>& t : tasks) task_ptrs.push_back(t.get());
  scheduler.Run(task_ptrs);
  result.scheduler = scheduler.ConsumeStats(kQuantumBatches);

#if CEP2ASP_CHECK_INVARIANTS
  // Guarded by the preprocessor (not `if (invariants)`) because in the
  // disabled build the pointer is a compile-time null and GCC flags the
  // dead calls with -Wnonnull even behind a runtime check.
  {
    std::lock_guard<std::mutex> lock(status_mutex);
    if (run_status.ok()) {
      invariants->OnJobFinished();
      for (NodeId id = 0; id < n; ++id) {
        for (const std::unique_ptr<Operator>& clone :
             clones[static_cast<size_t>(id)]) {
          invariants->OnSubtaskFinished(id, *clone);
        }
      }
    }
  }
#endif

  result.elapsed_seconds =
      static_cast<double>(clock->NowNanos() - start_nanos) / 1e9;
  result.tuples_ingested = tuples_ingested.load();
  result.peak_state_bytes = graph_->TotalStateBytes();
  for (NodeId id = 0; id < n; ++id) {
    for (const std::unique_ptr<Operator>& clone :
         clones[static_cast<size_t>(id)]) {
      result.peak_state_bytes += clone->StateBytes();
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    const JobGraph::Node& node = graph_->node(id);
    if (node.is_source()) continue;
    const std::string& name = node.op->name();
    const NodeChannels& node_channels = channels[static_cast<size_t>(id)];
    std::vector<int64_t> tuples_per_subtask;
    if (!node_channels.empty()) {
      for (size_t s = 0; s < node_channels.size(); ++s) {
        ChannelStats stats =
            node_channels[s]->Snapshot(name, static_cast<int>(s));
        tuples_per_subtask.push_back(stats.tuples);
        result.channel_stats.push_back(std::move(stats));
      }
    } else {
      // Chain-interior node: its input edge was fused, so no physical
      // channel exists. Report the in-thread hand-off honestly as a fused
      // pseudo-channel with zero queue traffic, one entry per subtask.
      for (int s = 0; s < node.parallelism; ++s) {
        ChannelStats stats;
        stats.consumer = name;
        stats.subtask = s;
        stats.fused = true;
        stats.tuples =
            fused_tuples[static_cast<size_t>(id)][static_cast<size_t>(s)];
        stats.messages = stats.tuples;
        tuples_per_subtask.push_back(stats.tuples);
        result.channel_stats.push_back(std::move(stats));
      }
    }
    if (tuples_per_subtask.size() > 1) {
      PartitionSkew skew;
      skew.op = name;
      skew.parallelism = static_cast<int>(tuples_per_subtask.size());
      int64_t total = 0;
      for (int64_t tuples : tuples_per_subtask) {
        skew.tuples_per_subtask.push_back(tuples);
        skew.max_tuples = std::max(skew.max_tuples, tuples);
        total += tuples;
      }
      skew.mean_tuples = static_cast<double>(total) /
                         static_cast<double>(tuples_per_subtask.size());
      result.partition_skew.push_back(std::move(skew));
    }
  }
  if (sink != nullptr) {
    result.matches_emitted = sink->count();
    result.latency = LatencyStats::FromSamples(sink->latencies());
  }
  {
    std::lock_guard<std::mutex> lock(status_mutex);
    result.ok = run_status.ok();
    if (!result.ok) result.error = run_status.ToString();
  }
  return result;
}

}  // namespace cep2asp

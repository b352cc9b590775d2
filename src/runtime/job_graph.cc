#include "runtime/job_graph.h"

#include <cstdint>
#include <queue>

#include "analysis/graph_rules.h"
#include "common/logging.h"

namespace cep2asp {

const char* PartitionModeToString(PartitionMode mode) {
  switch (mode) {
    case PartitionMode::kForward:
      return "forward";
    case PartitionMode::kHash:
      return "hash";
    case PartitionMode::kBroadcast:
      return "broadcast";
  }
  return "?";
}

int KeyToSubtask(int64_t key, int parallelism) {
  if (parallelism <= 1) return 0;
  // splitmix64 finalizer: decorrelates dense/sequential sensor ids.
  uint64_t x = static_cast<uint64_t>(key);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<int>(x % static_cast<uint64_t>(parallelism));
}

NodeId JobGraph::AddSource(std::unique_ptr<Source> source) {
  Node node;
  node.source = std::move(source);
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId JobGraph::AddSource(std::unique_ptr<Source> source, EventTypeId type) {
  const NodeId id = AddSource(std::move(source));
  nodes_[static_cast<size_t>(id)].source_type = type;
  return id;
}

NodeId JobGraph::AddOperator(std::unique_ptr<Operator> op) {
  Node node;
  node.op = std::move(op);
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId JobGraph::AddOperatorAfter(NodeId from, std::unique_ptr<Operator> op) {
  NodeId id = AddOperator(std::move(op));
  CEP2ASP_CHECK_OK(Connect(from, id, 0));
  return id;
}

Status JobGraph::Connect(NodeId from, NodeId to, int input_port,
                         PartitionMode mode) {
  if (from < 0 || from >= num_nodes() || to < 0 || to >= num_nodes()) {
    return Status::InvalidArgument("Connect: node id out of range");
  }
  Node& target = nodes_[static_cast<size_t>(to)];
  if (target.is_source()) {
    return Status::InvalidArgument("Connect: cannot route into a source");
  }
  if (input_port < 0 || input_port >= target.op->num_inputs()) {
    return Status::InvalidArgument("Connect: bad input port for " +
                                   target.op->name());
  }
  nodes_[static_cast<size_t>(from)].outputs.push_back(
      Edge{to, input_port, mode});
  target.num_input_edges++;
  return Status::OK();
}

Status JobGraph::SetParallelism(NodeId id, int parallelism) {
  if (id < 0 || id >= num_nodes()) {
    return Status::InvalidArgument("SetParallelism: node id out of range");
  }
  Node& node = nodes_[static_cast<size_t>(id)];
  if (node.is_source()) {
    return Status::InvalidArgument(
        "SetParallelism: sources run single-instance (" +
        node.source->name() + ")");
  }
  if (parallelism < 1) {
    return Status::InvalidArgument("SetParallelism: parallelism must be >= 1");
  }
  node.parallelism = parallelism;
  return Status::OK();
}

Status JobGraph::SetChaining(NodeId id, bool enabled) {
  if (id < 0 || id >= num_nodes()) {
    return Status::InvalidArgument("SetChaining: node id out of range");
  }
  Node& node = nodes_[static_cast<size_t>(id)];
  if (node.is_source()) {
    return Status::InvalidArgument(
        "SetChaining: sources never chain (" + node.source->name() + ")");
  }
  node.chaining = enabled;
  return Status::OK();
}

Status JobGraph::SetKeyDomainHint(NodeId id, int64_t num_keys) {
  if (id < 0 || id >= num_nodes()) {
    return Status::InvalidArgument("SetKeyDomainHint: node id out of range");
  }
  if (num_keys < 0) {
    return Status::InvalidArgument("SetKeyDomainHint: num_keys must be >= 0");
  }
  nodes_[static_cast<size_t>(id)].key_domain_hint = num_keys;
  return Status::OK();
}

int JobGraph::physical_fan_in(NodeId id) const {
  int total = 0;
  for (const Node& node : nodes_) {
    for (const Edge& edge : node.outputs) {
      if (edge.to == id) total += node.parallelism;
    }
  }
  return total;
}

Status JobGraph::Validate() const {
  // Thin wrapper over the analyzer's job-graph rules: the lint pass holds
  // the single definition of graph well-formedness.
  return AnalyzeJobGraph(*this).ToStatus();
}

std::vector<NodeId> JobGraph::TopologicalOrder() const {
  std::vector<int> in_degree(nodes_.size(), 0);
  for (const Node& node : nodes_) {
    for (const Edge& edge : node.outputs) {
      in_degree[static_cast<size_t>(edge.to)]++;
    }
  }
  std::queue<NodeId> ready;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (in_degree[i] == 0) ready.push(static_cast<NodeId>(i));
  }
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!ready.empty()) {
    NodeId id = ready.front();
    ready.pop();
    order.push_back(id);
    for (const Edge& edge : nodes_[static_cast<size_t>(id)].outputs) {
      if (--in_degree[static_cast<size_t>(edge.to)] == 0) ready.push(edge.to);
    }
  }
  return order;
}

size_t JobGraph::TotalStateBytes() const {
  size_t total = 0;
  for (const Node& node : nodes_) {
    if (!node.is_source()) total += node.op->StateBytes();
  }
  return total;
}

std::string JobGraph::ToString() const {
  std::string out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    out += "  [" + std::to_string(i) + "] ";
    out += node.is_source() ? ("source " + node.source->name())
                            : node.op->name();
    if (!node.is_source() && node.num_input_edges > 1) {
      out += " (fan-in " + std::to_string(node.num_input_edges) + ")";
    }
    if (node.parallelism > 1) {
      out += " x" + std::to_string(node.parallelism);
    }
    if (!node.outputs.empty()) {
      out += " ->";
      for (const Edge& edge : node.outputs) {
        out += " " + std::to_string(edge.to) + ":" +
               std::to_string(edge.input_port);
        if (edge.partition != PartitionMode::kForward) {
          out += std::string("[") + PartitionModeToString(edge.partition) + "]";
        }
      }
    }
    out += "\n";
  }
  return out;
}

const char* ChainBreakToString(ChainBreak verdict) {
  switch (verdict) {
    case ChainBreak::kChained:
      return "chained";
    case ChainBreak::kNotForward:
      return "edge is not forward-partitioned";
    case ChainBreak::kSourceProducer:
      return "producer is a source";
    case ChainBreak::kProducerOptedOut:
      return "producer opted out of chaining";
    case ChainBreak::kConsumerOptedOut:
      return "consumer opted out of chaining";
    case ChainBreak::kFanOut:
      return "producer fan-out > 1";
    case ChainBreak::kFanIn:
      return "consumer fan-in > 1";
    case ChainBreak::kParallelismMismatch:
      return "parallelism mismatch";
  }
  return "?";
}

int ChainLayout::fused_edge_count() const {
  int count = 0;
  for (const std::vector<ChainBreak>& verdicts : edge_verdict) {
    for (ChainBreak v : verdicts) {
      if (v == ChainBreak::kChained) ++count;
    }
  }
  return count;
}

std::string ChainLayout::ToString(const JobGraph& graph) const {
  auto label = [&graph](NodeId id) {
    const JobGraph::Node& node = graph.node(id);
    return node.is_source() ? ("source " + node.source->name())
                            : node.op->name();
  };
  std::string out;
  for (size_t c = 0; c < chains.size(); ++c) {
    out += "  chain " + std::to_string(c);
    const int parallelism = graph.parallelism(chains[c].front());
    if (parallelism > 1) out += " (x" + std::to_string(parallelism) + ")";
    out += ":";
    for (size_t i = 0; i < chains[c].size(); ++i) {
      out += (i == 0 ? " " : " -> ") + label(chains[c][i]);
    }
    out += "\n";
  }
  for (NodeId from = 0; from < graph.num_nodes(); ++from) {
    const JobGraph::Node& node = graph.node(from);
    for (size_t i = 0; i < node.outputs.size(); ++i) {
      const ChainBreak v = edge_verdict[static_cast<size_t>(from)][i];
      if (v == ChainBreak::kChained ||
          node.outputs[i].partition != PartitionMode::kForward) {
        continue;
      }
      out += "  unchained: " + label(from) + " -> " +
             label(node.outputs[i].to) + " (" + ChainBreakToString(v) + ")\n";
    }
  }
  return out;
}

namespace {

ChainBreak ClassifyEdge(const JobGraph& graph, NodeId from,
                        const JobGraph::Edge& edge) {
  if (edge.partition != PartitionMode::kForward) {
    return ChainBreak::kNotForward;
  }
  const JobGraph::Node& producer = graph.node(from);
  if (producer.is_source()) return ChainBreak::kSourceProducer;
  if (!producer.chaining) return ChainBreak::kProducerOptedOut;
  if (!graph.node(edge.to).chaining) return ChainBreak::kConsumerOptedOut;
  if (producer.outputs.size() != 1) return ChainBreak::kFanOut;
  if (graph.fan_in(edge.to) != 1) return ChainBreak::kFanIn;
  if (producer.parallelism != graph.parallelism(edge.to)) {
    return ChainBreak::kParallelismMismatch;
  }
  return ChainBreak::kChained;
}

}  // namespace

void UnchainAll(JobGraph* graph) {
  for (NodeId id = 0; id < graph->num_nodes(); ++id) {
    if (!graph->node(id).is_source()) {
      CEP2ASP_CHECK_OK(graph->SetChaining(id, false));
    }
  }
}

ChainLayout ComputeChainLayout(const JobGraph& graph) {
  ChainLayout layout;
  const int n = graph.num_nodes();
  layout.chain_of.assign(static_cast<size_t>(n), -1);
  layout.pos_in_chain.assign(static_cast<size_t>(n), -1);
  layout.edge_verdict.resize(static_cast<size_t>(n));

  // Pass 1: classify every edge; remember which nodes gained a fused
  // in-edge (those cannot be chain heads).
  std::vector<bool> has_fused_in(static_cast<size_t>(n), false);
  for (NodeId from = 0; from < n; ++from) {
    const JobGraph::Node& node = graph.node(from);
    auto& verdicts = layout.edge_verdict[static_cast<size_t>(from)];
    verdicts.reserve(node.outputs.size());
    for (const JobGraph::Edge& edge : node.outputs) {
      const ChainBreak v = ClassifyEdge(graph, from, edge);
      verdicts.push_back(v);
      if (v == ChainBreak::kChained) {
        has_fused_in[static_cast<size_t>(edge.to)] = true;
      }
    }
  }

  // Pass 2: every operator without a fused in-edge heads a chain; follow
  // its (single, by the fan-out rule) fused out-edge to the tail. A fully
  // fused cycle has no head and its nodes keep chain_of == -1; the graph
  // lint rejects cycles (E303) before any executor consumes this layout.
  for (NodeId id = 0; id < n; ++id) {
    if (graph.node(id).is_source() || has_fused_in[static_cast<size_t>(id)]) {
      continue;
    }
    std::vector<NodeId> chain;
    NodeId cur = id;
    while (true) {
      layout.chain_of[static_cast<size_t>(cur)] =
          static_cast<int>(layout.chains.size());
      layout.pos_in_chain[static_cast<size_t>(cur)] =
          static_cast<int>(chain.size());
      chain.push_back(cur);
      const JobGraph::Node& node = graph.node(cur);
      if (node.outputs.size() == 1 && layout.fused(cur, 0)) {
        cur = node.outputs[0].to;
        continue;
      }
      break;
    }
    layout.chains.push_back(std::move(chain));
  }
  return layout;
}

}  // namespace cep2asp

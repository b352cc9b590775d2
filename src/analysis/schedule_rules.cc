#include "analysis/schedule_rules.h"

#include <string>
#include <thread>

namespace cep2asp {

namespace {

std::string NodeName(const JobGraph& graph, NodeId id) {
  const JobGraph::Node& node = graph.node(id);
  return node.is_source() ? ("source " + node.source->name())
                          : node.op->name();
}

}  // namespace

std::string ScheduleToString(const JobGraph& graph, int worker_threads) {
  const ChainLayout layout = ComputeChainLayout(graph);
  std::string out;
  int task = 0;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    if (!graph.node(id).is_source()) continue;
    out += "  task " + std::to_string(task++) + ": " + NodeName(graph, id) +
           " (source)\n";
  }
  for (size_t c = 0; c < layout.chains.size(); ++c) {
    const std::vector<NodeId>& chain = layout.chains[c];
    const int parallelism = graph.parallelism(chain.front());
    for (int subtask = 0; subtask < parallelism; ++subtask) {
      out += "  task " + std::to_string(task++) + ":";
      for (size_t i = 0; i < chain.size(); ++i) {
        out += (i == 0 ? " " : " -> ") + NodeName(graph, chain[i]);
      }
      out += " (chain " + std::to_string(c) + ", subtask " +
             std::to_string(subtask) + ")";
      if (parallelism > 1) out += " [x" + std::to_string(parallelism) + "]";
      out += "\n";
    }
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = worker_threads > 0 ? worker_threads : hw > 0 ? hw : 1;
  out += "  tasks: " + std::to_string(task) + ", worker pool: " +
         std::to_string(workers) + "\n";
  return out;
}

}  // namespace cep2asp

#include "analysis/chain_rules.h"

#include <string>

namespace cep2asp {

namespace {

std::string NodeLabel(const JobGraph& graph, NodeId id) {
  const JobGraph::Node& node = graph.node(id);
  std::string name = node.is_source() ? ("source " + node.source->name())
                                      : node.op->name();
  return "node " + std::to_string(id) + " (" + name + ")";
}

}  // namespace

DiagnosticReport AnalyzeChaining(const JobGraph& graph) {
  DiagnosticReport report;
  const ChainLayout layout = ComputeChainLayout(graph);
  for (NodeId from = 0; from < graph.num_nodes(); ++from) {
    const JobGraph::Node& node = graph.node(from);
    for (size_t out = 0; out < node.outputs.size(); ++out) {
      const ChainBreak verdict = layout.edge_verdict[from][out];
      switch (verdict) {
        case ChainBreak::kChained:
        case ChainBreak::kNotForward:
          continue;
        case ChainBreak::kProducerOptedOut:
        case ChainBreak::kConsumerOptedOut:
        case ChainBreak::kFanOut:
        case ChainBreak::kFanIn:
        case ChainBreak::kParallelismMismatch:
          break;
      }
      const NodeId to = node.outputs[out].to;
      report.Add(DiagnosticCode::kGraphForwardEdgeNotChained,
                 NodeLabel(graph, from),
                 "forward edge to " + NodeLabel(graph, to) + " not chained: " +
                     ChainBreakToString(verdict));
    }
  }
  return report;
}

}  // namespace cep2asp

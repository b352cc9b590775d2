#ifndef CEP2ASP_RUNTIME_JOB_GRAPH_H_
#define CEP2ASP_RUNTIME_JOB_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "event/event_type.h"
#include "runtime/operator.h"

namespace cep2asp {

/// Identifies a node (source or operator) within a JobGraph.
using NodeId = int;

/// How tuples crossing an edge are routed among the consumer's parallel
/// subtask instances (paper §4.2.3: the Equi Join "is computed per key and
/// parallelizable").
enum class PartitionMode : uint8_t {
  /// Subtask-local hand-off: chained (producer subtask i -> consumer
  /// subtask i) when both nodes have equal parallelism, round-robin
  /// rebalance otherwise. The only valid mode into parallelism-1 nodes.
  kForward,
  /// Route by the tuple's partition key: KeyToSubtask(key, parallelism).
  /// Required into keyed stateful operators with parallelism > 1.
  kHash,
  /// Copy every tuple to every consumer subtask.
  kBroadcast,
};

const char* PartitionModeToString(PartitionMode mode);

/// Deterministic key -> subtask assignment used by the hash-partitioned
/// exchange (and by tests/benches predicting partition loads). The raw key
/// goes through a splitmix64-style finalizer first so dense sensor ids do
/// not all land on neighbouring subtasks modulo small parallelism.
int KeyToSubtask(int64_t key, int parallelism);

/// \brief Directed acyclic dataflow graph: sources -> operators -> sinks
/// (paper §2.3: ASPSs use directed graphs as processing model).
///
/// Sinks are simply operators without outgoing edges; callers keep a raw
/// pointer to result-collecting operators they add.
class JobGraph {
 public:
  JobGraph() = default;

  JobGraph(const JobGraph&) = delete;
  JobGraph& operator=(const JobGraph&) = delete;
  JobGraph(JobGraph&&) = default;
  JobGraph& operator=(JobGraph&&) = default;

  /// Adds a source node; returns its id. The two-argument form records the
  /// event type the source emits — metadata the range pass uses to seed
  /// declared attribute intervals (analysis/range_rules); execution never
  /// consults it.
  NodeId AddSource(std::unique_ptr<Source> source);
  NodeId AddSource(std::unique_ptr<Source> source, EventTypeId type);

  /// Adds an operator node; returns its id. The graph owns the operator.
  NodeId AddOperator(std::unique_ptr<Operator> op);

  /// Convenience: adds `op` and connects `from` to its input port 0.
  NodeId AddOperatorAfter(NodeId from, std::unique_ptr<Operator> op);

  /// Routes the output of `from` (source or operator) into input port
  /// `input_port` of operator `to`. `mode` selects how tuples spread over
  /// the consumer's subtask instances when `to` runs parallel; it is
  /// irrelevant (and kForward by convention) for parallelism-1 consumers.
  Status Connect(NodeId from, NodeId to, int input_port = 0,
                 PartitionMode mode = PartitionMode::kForward);

  /// Sets the number of parallel subtask instances the threaded executor
  /// materializes for operator `id`. Rejects sources (they stay single;
  /// scaling ingestion is a source concern) and n < 1. The operator must
  /// support CloneForSubtask() for n > 1 — enforced by the graph lint
  /// (E314), not here, so plans can be built before operators are final.
  Status SetParallelism(NodeId id, int parallelism);

  /// Declares the expected number of distinct partition keys flowing into
  /// `id` (0 = unknown). Pure metadata for the lint layer: parallelism
  /// beyond the key count cannot be utilized (W313).
  Status SetKeyDomainHint(NodeId id, int64_t num_keys);

  /// Enables/disables operator chaining at node `id` (operators only,
  /// default on). With chaining off the node always runs as its own
  /// subtask, ending any chain at both its in- and out-edge. This is the
  /// one way to force a real exchange onto a forward edge: isolating a
  /// heavy operator in its own task, or an unchained A/B run (opt every
  /// operator out).
  Status SetChaining(NodeId id, bool enabled);

  /// Validates the topology by running the analyzer's job-graph lint pass
  /// (analysis/graph_rules.h) and returning its first E-level finding:
  /// every operator input port fed by exactly one edge, acyclicity, source
  /// coverage, fan-in accounting, and window-spec consistency. Warnings
  /// (W3xx) do not fail validation; callers wanting the full report use
  /// AnalyzeJobGraph directly.
  Status Validate() const;

  // --- Introspection used by executors -----------------------------------

  struct Edge {
    NodeId to = -1;
    int input_port = 0;
    PartitionMode partition = PartitionMode::kForward;
  };

  struct Node {
    std::unique_ptr<Source> source;  // exactly one of source/op is set
    std::unique_ptr<Operator> op;
    std::vector<Edge> outputs;
    int num_input_edges = 0;
    /// Parallel subtask instances (operators only; sources stay 1). The
    /// threaded executor expands the node into this many physical tasks;
    /// the single-threaded PipelineExecutor ignores it (it remains the
    /// deterministic logical reference).
    int parallelism = 1;
    /// Expected distinct partition keys (0 = unknown); lint metadata.
    int64_t key_domain_hint = 0;
    /// Operator-chaining knob (operators only): when false the node never
    /// fuses with its neighbours. See ComputeChainLayout.
    bool chaining = true;
    /// Event type a source emits (sources only; kInvalidEventType when
    /// undeclared). Range-pass metadata, never consulted by execution.
    EventTypeId source_type = kInvalidEventType;

    bool is_source() const { return source != nullptr; }
  };

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const Node& node(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  Node& mutable_node(NodeId id) { return nodes_[static_cast<size_t>(id)]; }

  /// Number of upstream nodes feeding `id` (edges into any input port):
  /// the *logical* fan-in. With parallel producers the number of physical
  /// channels differs — see physical_fan_in.
  int fan_in(NodeId id) const { return node(id).num_input_edges; }

  /// Subtask instances of node `id` (1 for sources).
  int parallelism(NodeId id) const { return node(id).parallelism; }

  /// Number of physical producer subtasks feeding each subtask instance of
  /// `id`: the sum of producer parallelism over all in-edges. Every
  /// producer subtask pushes at least control messages (watermarks, end)
  /// into every consumer subtask, so this — not fan_in — decides the
  /// channel implementation: exactly one physical producer allows the
  /// lock-free SPSC fast path. Equals fan_in when all producers run with
  /// parallelism 1.
  int physical_fan_in(NodeId id) const;

  /// Node ids in a topological order (sources first). Precondition: the
  /// graph must be acyclic — on a cyclic graph the returned order is
  /// incomplete (fewer than num_nodes() entries, which is exactly how the
  /// analyzer's cycle rule detects the situation). Run Validate() or
  /// AnalyzeJobGraph first when the topology is untrusted.
  std::vector<NodeId> TopologicalOrder() const;

  /// Sum of StateBytes over all operators (job state footprint).
  size_t TotalStateBytes() const;

  /// Multi-line description of the topology for logging / examples.
  std::string ToString() const;

 private:
  std::vector<Node> nodes_;
};

// --- Operator chaining (Flink-style forward-edge fusion) -----------------

/// Verdict of the chain planner for one edge. kChained means the edge is
/// fused: the producer hands tuples straight to the consumer's Process in
/// the same thread, no exchange channel. Every other value names the first
/// rule (in evaluation order) that kept the edge on a real channel.
enum class ChainBreak : uint8_t {
  kChained,
  kNotForward,           // hash/broadcast edges always cross an exchange
  kSourceProducer,       // sources keep their own ingestion thread
  kProducerOptedOut,     // producer's chaining knob is off
  kConsumerOptedOut,     // consumer's chaining knob is off
  kFanOut,               // producer has more than one out-edge
  kFanIn,                // consumer has more than one in-edge
  kParallelismMismatch,  // producer and consumer subtask counts differ
};

const char* ChainBreakToString(ChainBreak verdict);

/// \brief The chain decomposition of a job graph: every operator belongs
/// to exactly one chain (a maximal run of fused forward edges; an unfused
/// operator forms a chain of length 1), sources stay outside chains.
///
/// The threaded executor runs one subtask per (chain, parallel instance):
/// only the chain head owns input channels, interior nodes receive tuples
/// in-thread from their producer.
struct ChainLayout {
  /// Chains in head-to-tail node order; chain indices are stable for one
  /// layout but carry no other meaning.
  std::vector<std::vector<NodeId>> chains;
  /// Per node: owning chain index, or -1 for sources.
  std::vector<int> chain_of;
  /// Per node: position within its chain (0 = head), or -1 for sources.
  std::vector<int> pos_in_chain;
  /// Per node, per out-edge (same order as Node::outputs): the planner's
  /// verdict for that edge.
  std::vector<std::vector<ChainBreak>> edge_verdict;

  /// True when out-edge `out_idx` of `from` is fused.
  bool fused(NodeId from, size_t out_idx) const {
    return edge_verdict[static_cast<size_t>(from)][out_idx] ==
           ChainBreak::kChained;
  }

  /// True when `id` is a chain head (owns real input channels). Sources
  /// are not heads.
  bool is_head(NodeId id) const {
    return pos_in_chain[static_cast<size_t>(id)] == 0;
  }

  int num_chains() const { return static_cast<int>(chains.size()); }

  /// Total fused edges across the graph.
  int fused_edge_count() const;

  /// Human-readable layout: one line per chain ("chain 0 (x4): filter ->
  /// map -> sink"), then one line per unchained forward edge naming the
  /// verdict that broke it.
  std::string ToString(const JobGraph& graph) const;
};

/// Computes maximal chains over the physical graph. A forward edge
/// producer -> consumer fuses when all of:
///   - the edge's PartitionMode is kForward (hash/broadcast cross a real
///     exchange by definition),
///   - the producer is an operator (sources keep their ingestion thread),
///   - both endpoints' chaining knobs are on (JobGraph::SetChaining),
///   - the producer has exactly one out-edge and the consumer exactly one
///     in-edge (no fan-out/fan-in inside a chain),
///   - both nodes have equal parallelism (subtask i hands to subtask i).
/// Opting every operator out (SetChaining(id, false)) makes each operator
/// its own chain, with a real exchange channel on every edge.
ChainLayout ComputeChainLayout(const JobGraph& graph);

/// Opts every operator of `graph` out of chaining (SetChaining per node),
/// so each operator runs as its own task behind a real exchange channel on
/// every edge: the unchained side of chaining A/B runs and invariance
/// tests.
void UnchainAll(JobGraph* graph);

}  // namespace cep2asp

#endif  // CEP2ASP_RUNTIME_JOB_GRAPH_H_

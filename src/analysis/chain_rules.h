#ifndef CEP2ASP_ANALYSIS_CHAIN_RULES_H_
#define CEP2ASP_ANALYSIS_CHAIN_RULES_H_

#include "analysis/diagnostic.h"
#include "runtime/job_graph.h"

namespace cep2asp {

/// \brief Chain-planning lint pass (diagnostic code I315).
///
/// Reports one info diagnostic per operator->operator forward edge that
/// the chain planner (ComputeChainLayout) left unfused, naming the reason
/// from the planner's own verdict: fan-out, fan-in, parallelism mismatch,
/// or a chaining opt-out on either endpoint. Each such edge pays a real
/// exchange channel the pipeline could otherwise skip, so the findings
/// are tuning hints, not correctness problems.
///
/// Source->operator edges and non-forward (hash/broadcast) edges are
/// never reported — those channels are structural, not missed fusions.
/// This pass is deliberately separate from AnalyzeJobGraph: executors and
/// ExecutionResult::diagnostics stay info-free, and a clean graph still
/// produces an empty AnalyzeJobGraph report.
DiagnosticReport AnalyzeChaining(const JobGraph& graph);

}  // namespace cep2asp

#endif  // CEP2ASP_ANALYSIS_CHAIN_RULES_H_

#include "analysis/diagnostic.h"

#include <algorithm>

namespace cep2asp {

const char* DiagnosticSeverityToString(DiagnosticSeverity severity) {
  switch (severity) {
    case DiagnosticSeverity::kWarning:
      return "warning";
    case DiagnosticSeverity::kError:
      return "error";
    case DiagnosticSeverity::kInfo:
      return "info";
  }
  return "?";
}

namespace {

struct CodeInfo {
  DiagnosticCode code;
  DiagnosticSeverity severity;
  const char* description;
};

// The diagnostic-code registry: every rule the analyzer implements, with
// its fixed severity and the one-line description shown by plan_lint
// --codes. Append-only; numbers are never reused.
constexpr CodeInfo kRegistry[] = {
    {DiagnosticCode::kPatternNoRoot, DiagnosticSeverity::kError,
     "pattern has no structure tree"},
    {DiagnosticCode::kPatternWindowNotPositive, DiagnosticSeverity::kError,
     "pattern WITHIN window is zero or negative"},
    {DiagnosticCode::kPatternSlideInvalid, DiagnosticSeverity::kError,
     "window slide is zero, negative, or exceeds the window"},
    {DiagnosticCode::kPatternFilterUnsatisfiable, DiagnosticSeverity::kWarning,
     "atom filter is contradictory; the atom can never match"},
    {DiagnosticCode::kPatternIterCountInvalid, DiagnosticSeverity::kError,
     "ITER repetition count m < 1 can never match"},
    {DiagnosticCode::kPatternIterConstraintUnused, DiagnosticSeverity::kWarning,
     "consecutive-event constraint on ITER with m == 1 never applies"},
    {DiagnosticCode::kPatternPredicateVarOutOfRange, DiagnosticSeverity::kError,
     "cross predicate references a match position outside the pattern"},
    {DiagnosticCode::kPatternPushdownMissed, DiagnosticSeverity::kWarning,
     "cross predicate references a single variable; push it into the atom "
     "filter"},

    {DiagnosticCode::kPlanNodeMalformed, DiagnosticSeverity::kError,
     "logical node has the wrong number of inputs for its kind"},
    {DiagnosticCode::kPlanWindowSpanMismatch, DiagnosticSeverity::kError,
     "windowed node's span differs from the plan window"},
    {DiagnosticCode::kPlanWindowSpecInvalid, DiagnosticSeverity::kError,
     "window spec is invalid (size <= 0, slide <= 0, or slide > size)"},
    {DiagnosticCode::kPlanPredicateIndexOutOfRange, DiagnosticSeverity::kError,
     "predicate references an event index outside the node's output arity"},
    {DiagnosticCode::kPlanSeqOrderLost, DiagnosticSeverity::kError,
     "a SEQ order constraint of the pattern is not enforced by the plan"},
    {DiagnosticCode::kPlanIntermediateJoinDuplicates, DiagnosticSeverity::kError,
     "intermediate window join emits per-overlap duplicates that multiply "
     "through the join chain"},
    {DiagnosticCode::kPlanRootJoinDeduplicated, DiagnosticSeverity::kWarning,
     "root join deduplicates; sliding semantics normally keeps per-overlap "
     "duplicates"},
    {DiagnosticCode::kPlanJoinKeyMismatch, DiagnosticSeverity::kError,
     "join sides are partitioned by different keys; matches are lost"},
    {DiagnosticCode::kPlanJoinInputUnkeyed, DiagnosticSeverity::kWarning,
     "join input has no key assignment; partitioning falls back to the raw "
     "event id"},
    {DiagnosticCode::kPlanAggregateMinCountInvalid, DiagnosticSeverity::kWarning,
     "aggregate min_count < 1 fires for every non-empty window"},
    {DiagnosticCode::kPlanReorderInvalid, DiagnosticSeverity::kError,
     "reorder permutation is not a bijection over the tuple positions"},
    {DiagnosticCode::kPlanUnionArityMismatch, DiagnosticSeverity::kError,
     "union inputs produce tuples of different arity"},
    {DiagnosticCode::kPlanJoinPositionsOverlap, DiagnosticSeverity::kError,
     "join sides cover the same match position"},
    {DiagnosticCode::kPlanKeyAttrNonIntegral, DiagnosticSeverity::kWarning,
     "partition key derives from a continuous-valued attribute; key "
     "extraction truncates double -> int64, so non-integral values collapse "
     "into the same partition silently (debug builds assert)"},

    {DiagnosticCode::kGraphInputPortUnfed, DiagnosticSeverity::kError,
     "operator input port has no incoming edge"},
    {DiagnosticCode::kGraphInputPortMultiplyFed, DiagnosticSeverity::kError,
     "operator input port has more than one incoming edge"},
    {DiagnosticCode::kGraphCycle, DiagnosticSeverity::kError,
     "job graph contains a cycle"},
    {DiagnosticCode::kGraphNoSource, DiagnosticSeverity::kError,
     "job graph has no source nodes"},
    {DiagnosticCode::kGraphSourceUnconnected, DiagnosticSeverity::kWarning,
     "source has no outgoing edges; its stream is discarded"},
    {DiagnosticCode::kGraphOperatorUnreachable, DiagnosticSeverity::kWarning,
     "operator has no upstream source; it will never receive tuples or "
     "watermarks"},
    {DiagnosticCode::kGraphTerminalNotSink, DiagnosticSeverity::kWarning,
     "terminal operator is not a sink; its emissions are dropped"},
    {DiagnosticCode::kGraphStatefulUnkeyed, DiagnosticSeverity::kWarning,
     "operator keys its state but some input path assigns no partition key"},
    {DiagnosticCode::kGraphFanInAccountingBroken, DiagnosticSeverity::kError,
     "node fan-in accounting disagrees with the edges; SPSC channel "
     "selection would be unsound"},
    {DiagnosticCode::kGraphWindowSpanMismatch, DiagnosticSeverity::kError,
     "sliding-window operators of one job disagree on (size, slide)"},
    {DiagnosticCode::kGraphWindowSpecInvalid, DiagnosticSeverity::kError,
     "windowed operator carries an invalid window spec"},
    {DiagnosticCode::kGraphKeyedParallelNotHashed, DiagnosticSeverity::kError,
     "keyed stateful operator runs parallel but an input edge is not "
     "hash-partitioned; keys would spread over subtasks arbitrarily"},
    {DiagnosticCode::kGraphParallelismExceedsKeys, DiagnosticSeverity::kWarning,
     "parallelism exceeds the declared key domain; excess subtasks can never "
     "receive tuples"},
    {DiagnosticCode::kGraphParallelUnsupported, DiagnosticSeverity::kError,
     "parallelism > 1 on a node that cannot run data-parallel (no subtask "
     "clone support, or stateful without keyed partitioning)"},
    {DiagnosticCode::kGraphForwardEdgeNotChained, DiagnosticSeverity::kInfo,
     "forward edge between operators was not fused into a chain (fan-out, "
     "fan-in, parallelism mismatch, or chaining opt-out); it pays a real "
     "exchange channel"},
    {DiagnosticCode::kGraphExprCompilation, DiagnosticSeverity::kInfo,
     "per-node expression-execution report: whether a filter/map runs "
     "compiled ExprProgram bytecode or the interpreted fallback, and why"},
    {DiagnosticCode::kGraphFilterAlwaysFalse, DiagnosticSeverity::kError,
     "interval analysis proves the filter rejects every tuple its declared "
     "source ranges can produce; everything downstream is dead"},
    {DiagnosticCode::kGraphFilterAlwaysTrue, DiagnosticSeverity::kWarning,
     "interval analysis proves the filter passes every tuple its declared "
     "source ranges can produce; the operator is removable"},
    {DiagnosticCode::kGraphRangeReport, DiagnosticSeverity::kInfo,
     "derived per-operator attribute intervals, key domains, and "
     "selectivity bounds (range pass; plan_lint --ranges)"},
    {DiagnosticCode::kGraphExprVerifyFailed, DiagnosticSeverity::kError,
     "compiled expression bytecode failed static verification (malformed "
     "encoding: bad opcode, out-of-range operand, or unbalanced stack)"},
};

const CodeInfo* FindInfo(DiagnosticCode code) {
  for (const CodeInfo& info : kRegistry) {
    if (info.code == code) return &info;
  }
  return nullptr;
}

}  // namespace

DiagnosticSeverity DiagnosticCodeSeverity(DiagnosticCode code) {
  const CodeInfo* info = FindInfo(code);
  return info ? info->severity : DiagnosticSeverity::kError;
}

std::string DiagnosticCodeName(DiagnosticCode code) {
  char letter = '?';
  switch (DiagnosticCodeSeverity(code)) {
    case DiagnosticSeverity::kError:
      letter = 'E';
      break;
    case DiagnosticSeverity::kWarning:
      letter = 'W';
      break;
    case DiagnosticSeverity::kInfo:
      letter = 'I';
      break;
  }
  return "CEP2ASP-" + std::string(1, letter) +
         std::to_string(static_cast<int>(code));
}

const char* DiagnosticCodeDescription(DiagnosticCode code) {
  const CodeInfo* info = FindInfo(code);
  return info ? info->description : "unregistered diagnostic code";
}

const std::vector<DiagnosticCode>& AllDiagnosticCodes() {
  static const std::vector<DiagnosticCode> codes = [] {
    std::vector<DiagnosticCode> out;
    for (const CodeInfo& info : kRegistry) out.push_back(info.code);
    std::sort(out.begin(), out.end());
    return out;
  }();
  return codes;
}

std::string Diagnostic::ToString() const {
  std::string out = DiagnosticCodeName(code);
  if (!location.empty()) out += " [" + location + "]";
  out += " " + message;
  return out;
}

void DiagnosticReport::Add(DiagnosticCode code, std::string location,
                           std::string message) {
  Diagnostic d;
  d.code = code;
  d.severity = DiagnosticCodeSeverity(code);
  d.location = std::move(location);
  d.message = std::move(message);
  diagnostics_.push_back(std::move(d));
}

void DiagnosticReport::Merge(const DiagnosticReport& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(),
                      other.diagnostics_.end());
}

int DiagnosticReport::error_count() const {
  return static_cast<int>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [](const Diagnostic& d) {
                      return d.severity == DiagnosticSeverity::kError;
                    }));
}

int DiagnosticReport::warning_count() const {
  return static_cast<int>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [](const Diagnostic& d) {
                      return d.severity == DiagnosticSeverity::kWarning;
                    }));
}

int DiagnosticReport::info_count() const {
  return static_cast<int>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [](const Diagnostic& d) {
                      return d.severity == DiagnosticSeverity::kInfo;
                    }));
}

bool DiagnosticReport::Has(DiagnosticCode code) const {
  return std::any_of(diagnostics_.begin(), diagnostics_.end(),
                     [code](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic* DiagnosticReport::FirstError() const {
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == DiagnosticSeverity::kError) return &d;
  }
  return nullptr;
}

Status DiagnosticReport::ToStatus() const {
  const Diagnostic* first = FirstError();
  if (first == nullptr) return Status::OK();
  return Status::FailedPrecondition(first->ToString());
}

std::string DiagnosticReport::ToString() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += d.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace cep2asp

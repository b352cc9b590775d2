#include "translator/logical_plan.h"

#include "event/event_type.h"

namespace cep2asp {

const char* LogicalOpKindToString(LogicalOpKind kind) {
  switch (kind) {
    case LogicalOpKind::kScan:
      return "Scan";
    case LogicalOpKind::kFilter:
      return "Filter";
    case LogicalOpKind::kKeyByAttr:
      return "KeyByAttr";
    case LogicalOpKind::kKeyByConst:
      return "KeyByConst";
    case LogicalOpKind::kUnion:
      return "Union";
    case LogicalOpKind::kWindowJoin:
      return "WindowJoin";
    case LogicalOpKind::kIntervalJoin:
      return "IntervalJoin";
    case LogicalOpKind::kAggregate:
      return "Aggregate";
    case LogicalOpKind::kIterChainApply:
      return "IterChainApply";
    case LogicalOpKind::kNseqMark:
      return "NseqMark";
    case LogicalOpKind::kReorder:
      return "Reorder";
  }
  return "?";
}

std::string LogicalOp::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + LogicalOpKindToString(kind);
  // Appends only: GCC 12 flags `"literal" + std::string&&` with -Wrestrict
  // false positives, which -Werror builds turn into errors.
  auto wrap = [&out](const char* open, const std::string& body,
                     const char* close) {
    out += open;
    out += body;
    out += close;
  };
  switch (kind) {
    case LogicalOpKind::kScan:
      wrap("(", EventTypeRegistry::Global()->Name(scan_type), ")");
      break;
    case LogicalOpKind::kFilter:
      wrap("(", predicate.ToString(), ")");
      break;
    case LogicalOpKind::kKeyByAttr:
      wrap("(", AttributeName(key_attr), ")");
      break;
    case LogicalOpKind::kKeyByConst:
      wrap("(", std::to_string(const_key), ")");
      break;
    case LogicalOpKind::kWindowJoin:
      wrap("[W=", std::to_string(window.size), ",s=");
      wrap("", std::to_string(window.slide), "]");
      if (!predicate.IsTrue()) wrap("(", predicate.ToString(), ")");
      break;
    case LogicalOpKind::kIntervalJoin:
      wrap("[", std::to_string(interval.lower), ",");
      wrap("", std::to_string(interval.upper), "]");
      if (!predicate.IsTrue()) wrap("(", predicate.ToString(), ")");
      break;
    case LogicalOpKind::kAggregate:
      wrap("(", AggregateFnToString(aggregate_fn), ", n>=");
      wrap("", std::to_string(min_count), ")");
      break;
    case LogicalOpKind::kIterChainApply:
      wrap("(chain>=", std::to_string(min_count), ")");
      break;
    case LogicalOpKind::kNseqMark:
      wrap("(", EventTypeRegistry::Global()->Name(nseq_positive), " vs !");
      wrap("", EventTypeRegistry::Global()->Name(nseq_negated), ")");
      break;
    default:
      break;
  }
  out += "\n";
  for (const auto& input : inputs) out += input->ToString(indent + 1);
  return out;
}

int LogicalOp::CountKind(LogicalOpKind target) const {
  int count = kind == target ? 1 : 0;
  for (const auto& input : inputs) count += input->CountKind(target);
  return count;
}

}  // namespace cep2asp

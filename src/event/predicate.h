#ifndef CEP2ASP_EVENT_PREDICATE_H_
#define CEP2ASP_EVENT_PREDICATE_H_

#include <functional>
#include <string>
#include <vector>

#include "event/event.h"

namespace cep2asp {

enum class CmpOp : uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };

const char* CmpOpToString(CmpOp op);

/// Applies `op` to two doubles. Inline: this is the innermost branch of
/// every predicate evaluation — the bytecode interpreter (expr_program.cc)
/// and the interpreted term loop (predicate.cc) live in different TUs and
/// both need it folded into their dispatch, not a call.
inline bool EvalCmp(double lhs, CmpOp op, double rhs) {
  switch (op) {
    case CmpOp::kLt:
      return lhs < rhs;
    case CmpOp::kLe:
      return lhs <= rhs;
    case CmpOp::kGt:
      return lhs > rhs;
    case CmpOp::kGe:
      return lhs >= rhs;
    case CmpOp::kEq:
      return lhs == rhs;
    case CmpOp::kNe:
      return lhs != rhs;
  }
  return false;
}

/// \brief Reference to an attribute of one pattern variable.
///
/// `var` is the variable's position in the pattern (e.g. in
/// SEQ(T1 e1, T2 e2) variable e1 has var = 0). After translation the same
/// index addresses the constituent event's position inside a composed
/// tuple; the translator remaps indices when joins reorder variables.
struct AttrRef {
  int var = 0;
  Attribute attr = Attribute::kValue;

  friend bool operator==(const AttrRef& a, const AttrRef& b) {
    return a.var == b.var && a.attr == b.attr;
  }
};

/// \brief One comparison: attr OP (attr [+ offset] | constant).
///
/// The optional `rhs_offset` expresses window-style constraints such as
/// e2.ts < e1.ts + W directly in the predicate IR (needed when the window
/// constraint survives as a predicate, e.g. pairwise bounds of n-ary
/// conjunctions under interval joins).
struct Comparison {
  AttrRef lhs;
  CmpOp op = CmpOp::kLt;
  bool rhs_is_attr = false;
  AttrRef rhs_attr;
  double rhs_const = 0.0;
  double rhs_offset = 0.0;  // added to the rhs attribute value

  static Comparison AttrConst(AttrRef lhs, CmpOp op, double constant) {
    Comparison c;
    c.lhs = lhs;
    c.op = op;
    c.rhs_is_attr = false;
    c.rhs_const = constant;
    return c;
  }

  static Comparison AttrAttr(AttrRef lhs, CmpOp op, AttrRef rhs,
                             double rhs_offset = 0.0) {
    Comparison c;
    c.lhs = lhs;
    c.op = op;
    c.rhs_is_attr = true;
    c.rhs_attr = rhs;
    c.rhs_offset = rhs_offset;
    return c;
  }

  /// Largest variable index mentioned.
  int MaxVar() const;

  /// True if every referenced variable equals `var`.
  bool ReferencesOnly(int var) const;

  /// True if this is `a.x = b.y` with a != b (an Equi Join candidate, O3).
  bool IsCrossVarEquality() const;

  /// Rewrites variable indices: new_index = mapping[old_index].
  /// Indices outside `mapping` are a programming error.
  Comparison Remap(const std::vector<int>& mapping) const;

  /// Evaluates against a variable resolver. The resolver must return the
  /// event bound to the given variable index. Kept for callers with
  /// non-positional bindings (CEP partial matches, SEA semantics); the
  /// hot paths below avoid the std::function indirection entirely.
  bool Eval(const std::function<const SimpleEvent&(int)>& resolve) const;

  /// Evaluates against events stored positionally — no resolver, no
  /// allocation, just two attribute loads and a compare.
  bool EvalOnEvents(const SimpleEvent* events, size_t count) const;

  /// Evaluates against the concatenation of two event rows without
  /// building it: variable i is left[i] for i < left_count, else
  /// right[i - left_count].
  bool EvalOnPair(const SimpleEvent* left, size_t left_count,
                  const SimpleEvent* right) const;

  /// Evaluates with every variable reference bound to `event` (broadcast;
  /// caller guarantees the term is single-variable).
  bool EvalOnEvent(const SimpleEvent& event) const;

  std::string ToString() const;
};

/// \brief A conjunction of comparisons (the WHERE clause of a pattern).
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Comparison> terms) : terms_(std::move(terms)) {}

  static Predicate True() { return Predicate(); }

  void Add(Comparison term) { terms_.push_back(std::move(term)); }

  const std::vector<Comparison>& terms() const { return terms_; }
  bool IsTrue() const { return terms_.empty(); }

  int MaxVar() const;

  bool Eval(const std::function<const SimpleEvent&(int)>& resolve) const;

  /// Evaluates against events stored positionally (variable i = events[i]).
  bool EvalOnEvents(const SimpleEvent* events, size_t count) const;

  /// Evaluates against the concatenation of two event rows (a join's left
  /// and right row) without copying them into one array.
  bool EvalOnPair(const SimpleEvent* left, size_t left_count,
                  const SimpleEvent* right) const;

  /// Evaluates against a composed tuple whose event positions correspond to
  /// variable indices.
  bool EvalOnTuple(const Tuple& tuple) const;

  /// Evaluates a single-variable predicate against one event, treating all
  /// refs as that event (caller guarantees ReferencesOnly).
  bool EvalOnEvent(const SimpleEvent& event) const;

  Predicate Remap(const std::vector<int>& mapping) const;

  std::string ToString() const;

 private:
  std::vector<Comparison> terms_;
};

// Inline: the sliding-window join calls these once per probed pair.
inline bool Comparison::EvalOnPair(const SimpleEvent* left, size_t left_count,
                                   const SimpleEvent* right) const {
  auto at = [&](int var) -> const SimpleEvent& {
    CEP2ASP_DCHECK(var >= 0);
    const size_t v = static_cast<size_t>(var);
    return v < left_count ? left[v] : right[v - left_count];
  };
  const double lhs_value = GetAttribute(at(lhs.var), lhs.attr);
  const double rhs_value =
      rhs_is_attr ? GetAttribute(at(rhs_attr.var), rhs_attr.attr) + rhs_offset
                  : rhs_const;
  return EvalCmp(lhs_value, op, rhs_value);
}

inline bool Predicate::EvalOnPair(const SimpleEvent* left, size_t left_count,
                                  const SimpleEvent* right) const {
  for (const Comparison& c : terms_) {
    if (!c.EvalOnPair(left, left_count, right)) return false;
  }
  return true;
}

}  // namespace cep2asp

#endif  // CEP2ASP_EVENT_PREDICATE_H_

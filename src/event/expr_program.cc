#include "event/expr_program.h"

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"

namespace cep2asp {
namespace {

/// Fixed evaluation stack: straight-line comparison code never holds more
/// than two operands, the slack is headroom for future ops.
constexpr size_t kMaxStack = 8;

/// Builds a stack-form instruction (a/b operands + pool index).
ExprInsn StackInsn(ExprOp op, uint8_t a, uint8_t b, uint8_t imm) {
  ExprInsn insn;
  insn.op = op;
  insn.a = a;
  insn.b = b;
  insn.imm = imm;
  return insn;
}

/// Builds a fused term instruction: lhs (var, attr), cmp, rhs (var, attr),
/// const-pool index.
ExprInsn TermInsn(ExprOp op, uint8_t lvar, uint8_t lattr, CmpOp cmp,
                  uint8_t rvar, uint8_t rattr, uint8_t imm) {
  ExprInsn insn;
  insn.op = op;
  insn.a = lvar;
  insn.b = lattr;
  insn.c = static_cast<uint8_t>(cmp);
  insn.d = rvar;
  insn.e = rattr;
  insn.imm = imm;
  return insn;
}

}  // namespace

uint8_t ExprProgram::InternConst(double value) {
  // Compare bit patterns, not values: NaN constants must intern too, and
  // comparing through uint64_t (rather than memcmp on doubles) keeps the
  // intent explicit for both readers and flp37-style lints.
  uint64_t value_bits = 0;
  std::memcpy(&value_bits, &value, sizeof(value_bits));
  for (size_t i = 0; i < const_pool_.size(); ++i) {
    uint64_t pool_bits = 0;
    std::memcpy(&pool_bits, &const_pool_[i], sizeof(pool_bits));
    if (pool_bits == value_bits) {
      return static_cast<uint8_t>(i);
    }
  }
  if (const_pool_.size() >= 256) {
    Fail();
    return 0;
  }
  const_pool_.push_back(value);
  return static_cast<uint8_t>(const_pool_.size() - 1);
}

uint8_t ExprProgram::InternKey(int64_t value) {
  for (size_t i = 0; i < key_pool_.size(); ++i) {
    if (key_pool_[i] == value) return static_cast<uint8_t>(i);
  }
  if (key_pool_.size() >= 256) {
    Fail();
    return 0;
  }
  key_pool_.push_back(value);
  return static_cast<uint8_t>(key_pool_.size() - 1);
}

void ExprProgram::EmitComparison(const Comparison& term, VarMode mode,
                                 bool fuse_terms) {
  const auto var_of = [mode](int var) { return mode == VarMode::kBroadcast ? 0 : var; };
  const int lhs_var = var_of(term.lhs.var);
  if (lhs_var < 0 || lhs_var > 255) {
    Fail();
    return;
  }
  const uint8_t lvar = static_cast<uint8_t>(lhs_var);
  const uint8_t lattr = static_cast<uint8_t>(term.lhs.attr);
  if (term.rhs_is_attr) {
    const int rhs_var = var_of(term.rhs_attr.var);
    if (rhs_var < 0 || rhs_var > 255) {
      Fail();
      return;
    }
    const uint8_t rvar = static_cast<uint8_t>(rhs_var);
    const uint8_t rattr = static_cast<uint8_t>(term.rhs_attr.attr);
    if (fuse_terms) {
      if (term.rhs_offset != 0.0) {
        code_.push_back(TermInsn(ExprOp::kCmpAttrAttrOffFail, lvar, lattr,
                                 term.op, rvar, rattr,
                                 InternConst(term.rhs_offset)));
      } else {
        code_.push_back(
            TermInsn(ExprOp::kCmpAttrAttrFail, lvar, lattr, term.op, rvar,
                     rattr, 0));
      }
      return;
    }
    code_.push_back(StackInsn(ExprOp::kLoadAttr, lvar, lattr, 0));
    code_.push_back(StackInsn(ExprOp::kLoadAttr, rvar, rattr, 0));
    if (term.rhs_offset != 0.0) {
      code_.push_back(
          StackInsn(ExprOp::kAddOffset, 0, 0, InternConst(term.rhs_offset)));
    }
  } else {
    if (fuse_terms) {
      code_.push_back(TermInsn(ExprOp::kCmpAttrConstFail, lvar, lattr, term.op,
                               0, 0, InternConst(term.rhs_const)));
      return;
    }
    code_.push_back(StackInsn(ExprOp::kLoadAttr, lvar, lattr, 0));
    code_.push_back(
        StackInsn(ExprOp::kLoadConst, 0, 0, InternConst(term.rhs_const)));
  }
  code_.push_back(
      StackInsn(ExprOp::kCmp, static_cast<uint8_t>(term.op), 0, 0));
  code_.push_back(StackInsn(ExprOp::kAndFail, 0, 0, 0));
}

ExprProgram ExprProgram::Filter(const Predicate& pred, VarMode mode,
                                bool fuse_terms) {
  ExprProgram out;
  for (const Comparison& term : pred.terms()) {
    out.EmitComparison(term, mode, fuse_terms);
  }
  out.code_.push_back(StackInsn(ExprOp::kHalt, 0, 0, 0));
  return out;
}

ExprProgram ExprProgram::KeyByAttribute(int event_index, Attribute attr) {
  ExprProgram out;
  if (event_index < 0 || event_index > 255) {
    out.Fail();
    return out;
  }
  out.code_.push_back(StackInsn(ExprOp::kStoreKeyAttr,
                                static_cast<uint8_t>(event_index),
                                static_cast<uint8_t>(attr), 0));
  out.code_.push_back(StackInsn(ExprOp::kHalt, 0, 0, 0));
  return out;
}

ExprProgram ExprProgram::KeyByConstant(int64_t key) {
  ExprProgram out;
  out.code_.push_back(
      StackInsn(ExprOp::kStoreKeyConst, 0, 0, out.InternKey(key)));
  out.code_.push_back(StackInsn(ExprOp::kHalt, 0, 0, 0));
  return out;
}

ExprProgram ExprProgram::FromRaw(std::vector<ExprInsn> code,
                                 std::vector<double> const_pool,
                                 std::vector<int64_t> key_pool) {
  ExprProgram out;
  out.code_ = std::move(code);
  out.const_pool_ = std::move(const_pool);
  out.key_pool_ = std::move(key_pool);
  return out;
}

ExprProgram ExprProgram::Fuse(const ExprProgram& first,
                              const ExprProgram& second) {
  ExprProgram out;
  out.ok_ = first.ok_ && second.ok_;
  out.const_pool_ = first.const_pool_;
  out.key_pool_ = first.key_pool_;
  out.code_ = first.code_;
  // Drop first's terminating kHalt; a failing kAndFail inside still exits
  // before second runs, which is exactly the pipeline's filter→map order.
  if (!out.code_.empty() && out.code_.back().op == ExprOp::kHalt) {
    out.code_.pop_back();
  }
  for (ExprInsn insn : second.code_) {
    switch (insn.op) {
      case ExprOp::kLoadConst:
      case ExprOp::kAddOffset:
      case ExprOp::kCmpAttrConstFail:
      case ExprOp::kCmpAttrAttrOffFail:
        insn.imm = out.InternConst(second.const_pool_[insn.imm]);
        break;
      case ExprOp::kStoreKeyConst:
        insn.imm = out.InternKey(second.key_pool_[insn.imm]);
        break;
      default:
        break;
    }
    out.code_.push_back(insn);
  }
  return out;
}

bool ExprProgram::assigns_key() const {
  for (const ExprInsn& insn : code_) {
    if (insn.op == ExprOp::kStoreKeyAttr || insn.op == ExprOp::kStoreKeyConst) {
      return true;
    }
  }
  return false;
}

/// The interpreter core. `tuple` is null when key stores must be skipped
/// (EvalOnEvents). Threaded dispatch (computed goto) under GCC/Clang: one
/// indirect jump per instruction instead of a loop + switch, the idiom
/// behind every fast bytecode VM. The portable switch fallback is
/// semantically identical.
static bool ExecProgram(const ExprInsn* pc, const double* const_pool,
                        const int64_t* key_pool, const SimpleEvent* events,
                        size_t count, Tuple* tuple) {
  double stack[kMaxStack];
  size_t sp = 0;
  (void)count;

#if defined(__GNUC__) || defined(__clang__)
  // Table order must match the ExprOp enumerator order.
  static const void* kDispatch[] = {
      &&op_load_attr,       &&op_load_const, &&op_add_offset,
      &&op_cmp,             &&op_and_fail,   &&op_store_key_attr,
      &&op_store_key_const, &&op_halt,       &&op_cmp_attr_const_fail,
      &&op_cmp_attr_attr_fail, &&op_cmp_attr_attr_off_fail,
  };
#define CEP2ASP_EXPR_NEXT() goto* kDispatch[static_cast<uint8_t>((pc)->op)]
  CEP2ASP_EXPR_NEXT();

op_load_attr:
  CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
  CEP2ASP_DCHECK(sp < kMaxStack);
  stack[sp++] = GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
  ++pc;
  CEP2ASP_EXPR_NEXT();

op_load_const:
  CEP2ASP_DCHECK(sp < kMaxStack);
  stack[sp++] = const_pool[pc->imm];
  ++pc;
  CEP2ASP_EXPR_NEXT();

op_add_offset:
  CEP2ASP_DCHECK(sp > 0);
  stack[sp - 1] += const_pool[pc->imm];
  ++pc;
  CEP2ASP_EXPR_NEXT();

op_cmp : {
  CEP2ASP_DCHECK(sp >= 2);
  const double rhs = stack[--sp];
  const double lhs = stack[--sp];
  stack[sp++] = EvalCmp(lhs, static_cast<CmpOp>(pc->a), rhs) ? 1.0 : 0.0;
  ++pc;
  CEP2ASP_EXPR_NEXT();
}

op_and_fail:
  CEP2ASP_DCHECK(sp > 0);
  if (stack[--sp] == 0.0) return false;
  ++pc;
  CEP2ASP_EXPR_NEXT();

op_store_key_attr:
  CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
  if (tuple != nullptr) {
    tuple->set_key(AttributeToKey(
        GetAttribute(events[pc->a], static_cast<Attribute>(pc->b))));
  }
  ++pc;
  CEP2ASP_EXPR_NEXT();

op_store_key_const:
  if (tuple != nullptr) tuple->set_key(key_pool[pc->imm]);
  ++pc;
  CEP2ASP_EXPR_NEXT();

op_halt:
  return true;

op_cmp_attr_const_fail : {
  CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
  const double lhs = GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
  if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), const_pool[pc->imm])) {
    return false;
  }
  ++pc;
  CEP2ASP_EXPR_NEXT();
}

op_cmp_attr_attr_fail : {
  CEP2ASP_DCHECK(pc->a < count && pc->d < count) << "expr var out of range";
  const double lhs = GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
  const double rhs = GetAttribute(events[pc->d], static_cast<Attribute>(pc->e));
  if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), rhs)) return false;
  ++pc;
  CEP2ASP_EXPR_NEXT();
}

op_cmp_attr_attr_off_fail : {
  CEP2ASP_DCHECK(pc->a < count && pc->d < count) << "expr var out of range";
  const double lhs = GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
  const double rhs =
      GetAttribute(events[pc->d], static_cast<Attribute>(pc->e)) +
      const_pool[pc->imm];
  if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), rhs)) return false;
  ++pc;
  CEP2ASP_EXPR_NEXT();
}
#undef CEP2ASP_EXPR_NEXT

#else  // portable fallback
  for (;; ++pc) {
    switch (pc->op) {
      case ExprOp::kLoadAttr:
        CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
        CEP2ASP_DCHECK(sp < kMaxStack);
        stack[sp++] = GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
        break;
      case ExprOp::kLoadConst:
        CEP2ASP_DCHECK(sp < kMaxStack);
        stack[sp++] = const_pool[pc->imm];
        break;
      case ExprOp::kAddOffset:
        CEP2ASP_DCHECK(sp > 0);
        stack[sp - 1] += const_pool[pc->imm];
        break;
      case ExprOp::kCmp: {
        CEP2ASP_DCHECK(sp >= 2);
        const double rhs = stack[--sp];
        const double lhs = stack[--sp];
        stack[sp++] = EvalCmp(lhs, static_cast<CmpOp>(pc->a), rhs) ? 1.0 : 0.0;
        break;
      }
      case ExprOp::kAndFail:
        CEP2ASP_DCHECK(sp > 0);
        if (stack[--sp] == 0.0) return false;
        break;
      case ExprOp::kStoreKeyAttr:
        CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
        if (tuple != nullptr) {
          tuple->set_key(AttributeToKey(
              GetAttribute(events[pc->a], static_cast<Attribute>(pc->b))));
        }
        break;
      case ExprOp::kStoreKeyConst:
        if (tuple != nullptr) tuple->set_key(key_pool[pc->imm]);
        break;
      case ExprOp::kHalt:
        return true;
      case ExprOp::kCmpAttrConstFail: {
        CEP2ASP_DCHECK(pc->a < count) << "expr var out of range";
        const double lhs =
            GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
        if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), const_pool[pc->imm])) {
          return false;
        }
        break;
      }
      case ExprOp::kCmpAttrAttrFail: {
        CEP2ASP_DCHECK(pc->a < count && pc->d < count)
            << "expr var out of range";
        const double lhs =
            GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
        const double rhs =
            GetAttribute(events[pc->d], static_cast<Attribute>(pc->e));
        if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), rhs)) return false;
        break;
      }
      case ExprOp::kCmpAttrAttrOffFail: {
        CEP2ASP_DCHECK(pc->a < count && pc->d < count)
            << "expr var out of range";
        const double lhs =
            GetAttribute(events[pc->a], static_cast<Attribute>(pc->b));
        const double rhs =
            GetAttribute(events[pc->d], static_cast<Attribute>(pc->e)) +
            const_pool[pc->imm];
        if (!EvalCmp(lhs, static_cast<CmpOp>(pc->c), rhs)) return false;
        break;
      }
    }
  }
#endif
}

namespace {

/// Monomorphizes a comparison loop over its CmpOp: the comparator becomes
/// a template parameter of the inner loop instead of a per-element branch.
template <typename F>
void WithCmp(CmpOp op, F f) {
  switch (op) {
    case CmpOp::kLt:
      f([](double l, double r) { return l < r; });
      return;
    case CmpOp::kLe:
      f([](double l, double r) { return l <= r; });
      return;
    case CmpOp::kGt:
      f([](double l, double r) { return l > r; });
      return;
    case CmpOp::kGe:
      f([](double l, double r) { return l >= r; });
      return;
    case CmpOp::kEq:
      f([](double l, double r) { return l == r; });
      return;
    case CmpOp::kNe:
      f([](double l, double r) { return l != r; });
      return;
  }
}

inline Tuple* TupleAt(char* base, size_t stride_bytes, size_t i) {
  return reinterpret_cast<Tuple*>(base + i * stride_bytes);
}

}  // namespace

void ExprProgram::RunBatch(Tuple* first, size_t stride_bytes, size_t count,
                           uint8_t* mask) const {
  char* base = reinterpret_cast<char*>(first);
  for (size_t i = 0; i < count; ++i) mask[i] = 1;
  if (code_.empty()) return;
  CEP2ASP_DCHECK(ok_) << "running a failed compilation";
  for (const ExprInsn& insn : code_) {
    switch (insn.op) {
      case ExprOp::kCmpAttrConstFail: {
        const Attribute attr = static_cast<Attribute>(insn.b);
        const double rhs = const_pool_[insn.imm];
        WithCmp(static_cast<CmpOp>(insn.c), [&](auto cmp) {
          for (size_t i = 0; i < count; ++i) {
            const Tuple* t = TupleAt(base, stride_bytes, i);
            CEP2ASP_DCHECK(insn.a < t->size()) << "expr var out of range";
            mask[i] &= static_cast<uint8_t>(
                cmp(GetAttribute(t->begin()[insn.a], attr), rhs));
          }
        });
        break;
      }
      case ExprOp::kCmpAttrAttrFail:
      case ExprOp::kCmpAttrAttrOffFail: {
        const Attribute lattr = static_cast<Attribute>(insn.b);
        const Attribute rattr = static_cast<Attribute>(insn.e);
        const double offset = insn.op == ExprOp::kCmpAttrAttrOffFail
                                  ? const_pool_[insn.imm]
                                  : 0.0;
        WithCmp(static_cast<CmpOp>(insn.c), [&](auto cmp) {
          for (size_t i = 0; i < count; ++i) {
            const Tuple* t = TupleAt(base, stride_bytes, i);
            CEP2ASP_DCHECK(insn.a < t->size() && insn.d < t->size())
                << "expr var out of range";
            mask[i] &= static_cast<uint8_t>(
                cmp(GetAttribute(t->begin()[insn.a], lattr),
                    GetAttribute(t->begin()[insn.d], rattr) + offset));
          }
        });
        break;
      }
      case ExprOp::kStoreKeyAttr: {
        const Attribute attr = static_cast<Attribute>(insn.b);
        for (size_t i = 0; i < count; ++i) {
          if (!mask[i]) continue;
          Tuple* t = TupleAt(base, stride_bytes, i);
          CEP2ASP_DCHECK(insn.a < t->size()) << "expr var out of range";
          t->set_key(AttributeToKey(GetAttribute(t->begin()[insn.a], attr)));
        }
        break;
      }
      case ExprOp::kStoreKeyConst: {
        const int64_t key = key_pool_[insn.imm];
        for (size_t i = 0; i < count; ++i) {
          if (mask[i]) TupleAt(base, stride_bytes, i)->set_key(key);
        }
        break;
      }
      case ExprOp::kHalt:
        return;
      default:
        // Stack-form program (tests / hand-fused): per-tuple semantics.
        for (size_t i = 0; i < count; ++i) {
          Tuple* t = TupleAt(base, stride_bytes, i);
          mask[i] = static_cast<uint8_t>(Run(t));
        }
        return;
    }
  }
}

bool ExprProgram::Run(Tuple* tuple) const {
  if (code_.empty()) return true;
  CEP2ASP_DCHECK(ok_) << "running a failed compilation";
  return ExecProgram(code_.data(), const_pool_.data(), key_pool_.data(),
                     tuple->begin(), tuple->size(), tuple);
}

bool ExprProgram::EvalOnEvents(const SimpleEvent* events, size_t count) const {
  if (code_.empty()) return true;
  CEP2ASP_DCHECK(ok_) << "running a failed compilation";
  return ExecProgram(code_.data(), const_pool_.data(), key_pool_.data(), events,
                     count, nullptr);
}

std::string ExprProgram::ToString() const {
  std::string out;
  for (size_t i = 0; i < code_.size(); ++i) {
    const ExprInsn& insn = code_[i];
    out += std::to_string(i);
    out += ": ";
    switch (insn.op) {
      case ExprOp::kLoadAttr:
        out += "load e" + std::to_string(insn.a) + "." +
               AttributeName(static_cast<Attribute>(insn.b));
        break;
      case ExprOp::kLoadConst:
        out += "const " + FormatDouble(const_pool_[insn.imm]);
        break;
      case ExprOp::kAddOffset:
        out += "add " + FormatDouble(const_pool_[insn.imm]);
        break;
      case ExprOp::kCmp:
        out += "cmp ";
        out += CmpOpToString(static_cast<CmpOp>(insn.a));
        break;
      case ExprOp::kAndFail:
        out += "and-fail";
        break;
      case ExprOp::kStoreKeyAttr:
        out += "key := e" + std::to_string(insn.a) + "." +
               AttributeName(static_cast<Attribute>(insn.b));
        break;
      case ExprOp::kStoreKeyConst:
        out += "key := " + std::to_string(key_pool_[insn.imm]);
        break;
      case ExprOp::kHalt:
        out += "halt";
        break;
      case ExprOp::kCmpAttrConstFail:
        out += "fail unless e" + std::to_string(insn.a) + "." +
               AttributeName(static_cast<Attribute>(insn.b)) + " " +
               CmpOpToString(static_cast<CmpOp>(insn.c)) + " " +
               FormatDouble(const_pool_[insn.imm]);
        break;
      case ExprOp::kCmpAttrAttrFail:
        out += "fail unless e" + std::to_string(insn.a) + "." +
               AttributeName(static_cast<Attribute>(insn.b)) + " " +
               CmpOpToString(static_cast<CmpOp>(insn.c)) + " e" +
               std::to_string(insn.d) + "." +
               AttributeName(static_cast<Attribute>(insn.e));
        break;
      case ExprOp::kCmpAttrAttrOffFail:
        out += "fail unless e" + std::to_string(insn.a) + "." +
               AttributeName(static_cast<Attribute>(insn.b)) + " " +
               CmpOpToString(static_cast<CmpOp>(insn.c)) + " e" +
               std::to_string(insn.d) + "." +
               AttributeName(static_cast<Attribute>(insn.e)) + " + " +
               FormatDouble(const_pool_[insn.imm]);
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace cep2asp

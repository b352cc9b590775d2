#ifndef CEP2ASP_EVENT_EXPR_PROGRAM_H_
#define CEP2ASP_EVENT_EXPR_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "event/event.h"
#include "event/predicate.h"

namespace cep2asp {

/// Opcodes of the predicate/key bytecode. The machine is a tiny stack
/// machine over doubles: comparisons push 1.0 / 0.0, the conjunction
/// short-circuits via kAndFail, and key stores write the tuple's partition
/// key as a side effect. Programs are straight-line (no jumps other than
/// the fail exit), so one linear pass executes a whole fused filter→map
/// prefix with no virtual calls and no std::function.
enum class ExprOp : uint8_t {
  /// push GetAttribute(events[a], Attribute(b))
  kLoadAttr,
  /// push const_pool[imm]
  kLoadConst,
  /// stack.top += const_pool[imm]  (rhs_offset of window-style terms)
  kAddOffset,
  /// rhs = pop, lhs = pop, push EvalCmp(lhs, CmpOp(a), rhs) ? 1.0 : 0.0
  kCmp,
  /// if pop == 0.0: halt returning false  (AND short-circuit)
  kAndFail,
  /// key := int64(GetAttribute(events[a], Attribute(b))); debug builds
  /// CEP2ASP_DCHECK the cast round-trips (non-integral key attributes are
  /// a plan bug — see W213)
  kStoreKeyAttr,
  /// key := key_pool[imm]  (exact int64, not squeezed through a double)
  kStoreKeyConst,
  /// halt returning true
  kHalt,

  // --- fused term forms ----------------------------------------------------
  // One whole conjunction term per instruction. Dispatch is the dominant
  // interpreter cost, and every term the compiler sees is exactly
  // load, load[, add-offset], cmp, and-fail — so the emitter folds the
  // sequence into a single opcode (one indirect jump per term instead of
  // four or five). The stack ops above remain the definitional semantics;
  // Filter(..., fuse_terms=false) emits them for differential testing.

  /// halt returning false unless
  /// EvalCmp(attr(events[a], b), CmpOp(c), const_pool[imm])
  kCmpAttrConstFail,
  /// halt returning false unless
  /// EvalCmp(attr(events[a], b), CmpOp(c), attr(events[d], e))
  kCmpAttrAttrFail,
  /// like kCmpAttrAttrFail with const_pool[imm] added to the rhs
  kCmpAttrAttrOffFail,
};

/// One 8-byte instruction. Operand meaning depends on the opcode: for the
/// stack ops `a` is a variable index or CmpOp, `b` an Attribute and `imm`
/// a pool index; the fused term forms use a/b = lhs (var, attr), c = the
/// CmpOp, d/e = rhs (var, attr), imm = a const-pool index.
struct ExprInsn {
  ExprOp op = ExprOp::kHalt;
  uint8_t a = 0;
  uint8_t b = 0;
  uint8_t c = 0;
  uint8_t d = 0;
  uint8_t e = 0;
  uint8_t imm = 0;
  uint8_t pad = 0;
};

/// \brief A compiled predicate / key-assignment: the "compile, don't
/// interpret" replacement for Predicate::EvalOnTuple + MapOperator key
/// lambdas on translator-generated stateless prefixes.
///
/// Compilation can fail only on capacity (more than 255 pooled constants
/// or a variable index above 255) — callers test `ok()` and fall back to
/// the interpreted path. Execution semantics are bit-identical to the
/// interpreter: comparisons go through the shared EvalCmp, so NaN ordering
/// matches IEEE (all comparisons but != are false).
class ExprProgram {
 public:
  /// How predicate variable indices address the tuple's events.
  enum class VarMode : uint8_t {
    /// Every variable reads event 0 (Predicate::EvalOnEvent semantics —
    /// the per-type source filters).
    kBroadcast,
    /// Variable i reads event i (Predicate::EvalOnTuple semantics).
    kPositional,
  };

  ExprProgram() = default;

  /// Compiles a conjunction into a filter program (ends in kHalt = pass).
  /// `fuse_terms` selects the fused one-instruction-per-term encoding
  /// (default, what production plans run); false emits the unfused stack
  /// sequence — same semantics, used to differential-test the base ISA.
  static ExprProgram Filter(const Predicate& pred, VarMode mode,
                            bool fuse_terms = true);

  /// Compiles key := events[event_index].attr.
  static ExprProgram KeyByAttribute(int event_index, Attribute attr);

  /// Compiles key := constant (kept as exact int64 in the key pool).
  static ExprProgram KeyByConstant(int64_t key);

  /// Fuses `first` then `second` into one program: first's kHalt is
  /// dropped, second's pool indices are rebased. A tuple failing first
  /// never reaches second — exactly the operator pipeline's semantics for
  /// a filter feeding a map.
  static ExprProgram Fuse(const ExprProgram& first, const ExprProgram& second);

  /// False when compilation overflowed an 8-bit operand; such a program
  /// must not be run (callers keep the interpreted operator instead).
  bool ok() const { return ok_; }

  /// True when the program writes the partition key.
  bool assigns_key() const;

  size_t num_instructions() const { return code_.size(); }
  bool empty() const { return code_.empty(); }

  /// Runs the program against the tuple's events; key stores mutate the
  /// tuple. Returns the filter verdict (true when no filter terms exist).
  bool Run(Tuple* tuple) const;

  /// Vectorized execution: runs the program over `count` tuples laid out
  /// `stride_bytes` apart (tuple i at `(char*)first + i * stride_bytes` —
  /// a strided view over e.g. an executor MessageBatch, without this
  /// layer knowing the surrounding struct). Writes the filter verdict
  /// into mask[i] (1 pass / 0 fail) and applies key stores to passing
  /// tuples.
  ///
  /// The point is loop interchange: instead of dispatching every
  /// instruction per tuple, each fused term opcode runs as one tight
  /// branch-predictable loop across the whole batch, ANDing into the
  /// selection mask — the columnar execution model of vectorized query
  /// engines. Programs containing stack-form instructions fall back to
  /// per-tuple Run (the production compiler only emits fused terms, so
  /// this path is tests-only).
  void RunBatch(Tuple* first, size_t stride_bytes, size_t count,
                uint8_t* mask) const;

  /// Runs the filter portion against positional events without a tuple;
  /// key stores are skipped. For tests and join-condition reuse.
  bool EvalOnEvents(const SimpleEvent* events, size_t count) const;

  /// Disassembly, one instruction per line ("0: load e0.value" ...).
  std::string ToString() const;

  // --- introspection (verifier / analysis / tooling) -----------------------

  const std::vector<ExprInsn>& code() const { return code_; }
  const std::vector<double>& const_pool() const { return const_pool_; }
  const std::vector<int64_t>& key_pool() const { return key_pool_; }

  /// Assembles a program directly from raw encodings, bypassing the
  /// emitter. The result is NOT validated — that is the point: it feeds
  /// the verifier's mutation corpus and lets tooling reconstruct programs
  /// from serialized form. `ok()` is true regardless of content.
  static ExprProgram FromRaw(std::vector<ExprInsn> code,
                             std::vector<double> const_pool,
                             std::vector<int64_t> key_pool);

 private:
  uint8_t InternConst(double value);
  uint8_t InternKey(int64_t value);
  void EmitComparison(const Comparison& term, VarMode mode, bool fuse_terms);
  void Fail() { ok_ = false; }

  std::vector<ExprInsn> code_;
  std::vector<double> const_pool_;
  std::vector<int64_t> key_pool_;
  bool ok_ = true;
};

}  // namespace cep2asp

#endif  // CEP2ASP_EVENT_EXPR_PROGRAM_H_

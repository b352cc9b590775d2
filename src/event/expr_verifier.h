#ifndef CEP2ASP_EVENT_EXPR_VERIFIER_H_
#define CEP2ASP_EVENT_EXPR_VERIFIER_H_

#include <cstddef>

#include "common/status.h"
#include "event/expr_program.h"

namespace cep2asp {

/// \brief Static well-formedness checker for ExprProgram bytecode.
///
/// The interpreter trusts its input: operands index pools and the event
/// array without bounds checks in release builds, and the dispatch table
/// is indexed by the raw opcode byte. Verify() proves the properties the
/// executors rely on, so a malformed encoding (a bug in the emitter, a
/// corrupted serialized program, a hand-assembled test program) is
/// rejected before it can read out of bounds:
///
///  - every opcode is a defined ExprOp enumerator;
///  - the program is empty or ends in kHalt, and no instruction follows
///    the first kHalt (straight-line code has exactly one fall-through
///    exit — anything after it would be unreachable or, worse, reachable
///    through a decoder bug);
///  - event operands are < `max_events` (the declared schema capacity),
///    Attribute operands are valid slots, CmpOp operands are valid
///    comparators, and pool indices are within the respective pool;
///  - the abstract evaluation stack never underflows, never exceeds the
///    interpreter's fixed kMaxStack, and is exactly empty at kHalt
///    (a non-empty stack at halt means a comparison result was computed
///    and silently dropped — always an emitter bug).
///
/// Both encodings are covered: fused term opcodes are stack-neutral,
/// stack-form opcodes are modeled push/pop exactly as the interpreter
/// executes them. Straight-line code means a single linear pass verifies
/// all paths (the only branch — kAndFail / fused-fail exits — leaves the
/// program, so every instruction has exactly one in-program successor).
class ExprVerifier {
 public:
  /// Interpreter stack capacity the verifier checks against; mirrors the
  /// constant in expr_program.cc.
  static constexpr size_t kMaxStack = 8;

  /// Verifies `program` against a schema of `max_events` events per tuple.
  /// Translator-emitted programs run in VarMode::kBroadcast where every
  /// operand was already resolved to event 0, so they verify with
  /// `max_events == 1`; positional programs pass the pattern arity.
  /// Returns OK or an InvalidArgument naming the offending instruction.
  static Status Verify(const ExprProgram& program, size_t max_events);
};

}  // namespace cep2asp

#endif  // CEP2ASP_EVENT_EXPR_VERIFIER_H_

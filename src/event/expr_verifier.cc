#include "event/expr_verifier.h"

#include <string>

namespace cep2asp {
namespace {

Status Bad(size_t pc, const std::string& what) {
  return Status::InvalidArgument("expr program insn " + std::to_string(pc) +
                                 ": " + what);
}

bool ValidAttr(uint8_t attr) {
  return attr <= static_cast<uint8_t>(Attribute::kAuxTs);
}

bool ValidCmp(uint8_t cmp) { return cmp <= static_cast<uint8_t>(CmpOp::kNe); }

}  // namespace

Status ExprVerifier::Verify(const ExprProgram& program, size_t max_events) {
  if (!program.ok()) {
    return Status::InvalidArgument("expr program: compilation failed (ok()==false)");
  }
  const std::vector<ExprInsn>& code = program.code();
  if (code.empty()) return Status::OK();  // empty program == accept-all
  if (max_events == 0) {
    return Status::InvalidArgument("expr program: schema capacity is zero");
  }

  const size_t consts = program.const_pool().size();
  const size_t keys = program.key_pool().size();
  size_t depth = 0;      // abstract evaluation stack depth
  bool halted = false;   // a kHalt has been seen

  for (size_t pc = 0; pc < code.size(); ++pc) {
    const ExprInsn& insn = code[pc];
    if (halted) {
      return Bad(pc, "instruction after kHalt (unreachable code)");
    }
    if (static_cast<uint8_t>(insn.op) >
        static_cast<uint8_t>(ExprOp::kCmpAttrAttrOffFail)) {
      return Bad(pc, "undefined opcode " +
                         std::to_string(static_cast<int>(insn.op)));
    }
    switch (insn.op) {
      case ExprOp::kLoadAttr:
        if (insn.a >= max_events) return Bad(pc, "event operand out of range");
        if (!ValidAttr(insn.b)) return Bad(pc, "invalid attribute slot");
        if (depth >= kMaxStack) return Bad(pc, "stack overflow");
        ++depth;
        break;
      case ExprOp::kLoadConst:
        if (insn.imm >= consts) return Bad(pc, "const-pool index out of range");
        if (depth >= kMaxStack) return Bad(pc, "stack overflow");
        ++depth;
        break;
      case ExprOp::kAddOffset:
        if (insn.imm >= consts) return Bad(pc, "const-pool index out of range");
        if (depth == 0) return Bad(pc, "stack underflow");
        break;
      case ExprOp::kCmp:
        if (!ValidCmp(insn.a)) return Bad(pc, "invalid comparator");
        if (depth < 2) return Bad(pc, "stack underflow");
        --depth;  // pop 2, push 1
        break;
      case ExprOp::kAndFail:
        if (depth == 0) return Bad(pc, "stack underflow");
        --depth;
        break;
      case ExprOp::kStoreKeyAttr:
        if (insn.a >= max_events) return Bad(pc, "event operand out of range");
        if (!ValidAttr(insn.b)) return Bad(pc, "invalid attribute slot");
        break;
      case ExprOp::kStoreKeyConst:
        if (insn.imm >= keys) return Bad(pc, "key-pool index out of range");
        break;
      case ExprOp::kHalt:
        if (depth != 0) {
          return Bad(pc, "non-empty stack at kHalt (dropped value)");
        }
        halted = true;
        break;
      case ExprOp::kCmpAttrConstFail:
        if (insn.a >= max_events) return Bad(pc, "event operand out of range");
        if (!ValidAttr(insn.b)) return Bad(pc, "invalid attribute slot");
        if (!ValidCmp(insn.c)) return Bad(pc, "invalid comparator");
        if (insn.imm >= consts) return Bad(pc, "const-pool index out of range");
        break;
      case ExprOp::kCmpAttrAttrFail:
        if (insn.a >= max_events || insn.d >= max_events) {
          return Bad(pc, "event operand out of range");
        }
        if (!ValidAttr(insn.b) || !ValidAttr(insn.e)) {
          return Bad(pc, "invalid attribute slot");
        }
        if (!ValidCmp(insn.c)) return Bad(pc, "invalid comparator");
        break;
      case ExprOp::kCmpAttrAttrOffFail:
        if (insn.a >= max_events || insn.d >= max_events) {
          return Bad(pc, "event operand out of range");
        }
        if (!ValidAttr(insn.b) || !ValidAttr(insn.e)) {
          return Bad(pc, "invalid attribute slot");
        }
        if (!ValidCmp(insn.c)) return Bad(pc, "invalid comparator");
        if (insn.imm >= consts) return Bad(pc, "const-pool index out of range");
        break;
    }
  }
  if (!halted) {
    return Status::InvalidArgument(
        "expr program: falls through past the last instruction (no kHalt)");
  }
  return Status::OK();
}

}  // namespace cep2asp

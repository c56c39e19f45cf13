// Static bytecode verification.
//
// Providers execute code authored by untrusted remote consumers, so every
// program is verified before first execution (results are cached by content
// hash). The verifier guarantees, per function:
//
//   * every operand index is in range (locals, jump targets, callees,
//     intrinsic ids),
//   * control flow cannot fall off the end of the code array,
//   * the operand stack never underflows, its depth at any instruction is
//     flow-independent (classic Java-style bytecode verification), and it
//     is exactly 1 at every `ret`/`halt`,
//   * the static stack depth stays under a fixed bound.
//
// Value *types* are checked dynamically by the interpreter; the verifier
// makes memory-safety violations unreachable, the interpreter turns type
// confusion into clean traps.
#pragma once

#include "common/status.hpp"
#include "tvm/program.hpp"

namespace tasklets::tvm {

struct VerifyLimits {
  std::uint32_t max_stack_depth = 1024;  // static operand-stack bound
};

[[nodiscard]] Status verify(const Program& program, const VerifyLimits& limits = {});

// Verification plus fast-path plan construction. Accepts exactly the
// programs verify() accepts, and additionally proves per-basic-block static
// facts the interpreter's fast-path engine hoists out of its hot loop:
//
//   * worst-case fuel of a full block run (so the per-instruction fuel
//     check moves to block entry),
//   * worst-case operand-stack depth relative to block entry (so the
//     per-instruction stack-limit check moves to block entry),
//   * operand tags where a forward dataflow over {int, float, array}
//     proves them monomorphic — those instructions are rewritten to
//     unchecked/fused quickened forms (opcode.hpp) in an index-aligned
//     copy of the code.
//
// Parameter tags are speculated, not proven: one extra dataflow pass finds,
// per parameter, the tag every checked instruction consuming it demands,
// and the quickened code is proven under that assumption. The interpreter
// runs it only for frames whose state matches (the frame rule,
// interpreter.hpp).
//
// The plan is host-local derived data: it is never serialized and has no
// effect on program identity. See program.hpp for the structures.
[[nodiscard]] Result<ExecPlan> analyze(const Program& program,
                                       const VerifyLimits& limits = {});

// The operand-stack depth *before* each instruction, per function, as
// established by verification (-1 = unreachable instruction). Fails when the
// program does not verify. Used by snapshot restore (interpreter.hpp) to
// prove that a resumed machine state is consistent with the bytecode before
// the interpreter touches it.
[[nodiscard]] Result<std::vector<std::vector<int>>> stack_depth_map(
    const Program& program, const VerifyLimits& limits = {});

}  // namespace tasklets::tvm

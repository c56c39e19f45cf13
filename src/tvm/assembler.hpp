// Textual assembly for TVM bytecode.
//
// Format (one instruction per line, ';' starts a comment):
//
//   .func main arity=1 locals=3
//     load 0
//     push_i 2
//     clt_i
//     jz recurse          ; labels resolve to instruction indices
//     load 0
//     ret
//   recurse:
//     ...
//   .end
//   .entry main
//
// Operands: `jmp/jz/jnz` accept labels or absolute indices, `call` accepts a
// function name or index (forward references allowed), `intrin` accepts an
// intrinsic name, `push_f` accepts a float literal, `push_i` and the rest
// accept integers.
//
// Used by the test suite and by hand-written kernels; the TCL compiler emits
// Program objects directly.
#pragma once

#include <string>
#include <string_view>

#include "common/status.hpp"
#include "tvm/program.hpp"

namespace tasklets::tvm {

[[nodiscard]] Result<Program> assemble(std::string_view source);

// Round-trippable listing of a program (assemble(disassemble(p)) == p).
[[nodiscard]] std::string disassemble(const Program& program);

// What analyze() made of `program` (not round-trippable): per function its
// speculated parameter tags, each block's leader with its proven fuel and
// stack growth, and at each ip the quickened or fused op the fast engine
// dispatches (vm_op_name) where it differs from the bytecode.
[[nodiscard]] std::string plan_listing(const Program& program,
                                       const ExecPlan& plan);

}  // namespace tasklets::tvm

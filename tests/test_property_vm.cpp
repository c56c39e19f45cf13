// Property tests for the TVM's core safety contract:
//
//   1. Verifier soundness: any program accepted by the verifier executes
//      without memory-unsafe behaviour — every run ends in a value or a
//      clean trap Status, never a crash (asan/ubsan builds check the rest).
//   2. Determinism: accepted programs produce identical (result, fuel)
//      across repeated runs.
//   3. Serialization closure: arbitrary byte mutations of encoded programs
//      either fail to decode, fail to verify, or execute cleanly.
//
// Random programs are generated instruction-by-instruction from the full
// opcode set with plausible-but-unchecked operands, so most are rejected by
// the verifier; the accepted minority exercises the interpreter.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include <bit>

#include "tvm/assembler.hpp"
#include "tvm/interpreter.hpp"
#include "tvm/verifier.hpp"
#include "tcl/compiler.hpp"

namespace tasklets::tvm {
namespace {

Instr random_instr(Rng& rng, int code_len, int num_locals, int num_functions) {
  const auto op = static_cast<OpCode>(rng.next_below(kNumOpCodes));
  Instr instr;
  instr.op = op;
  switch (op) {
    case OpCode::kPushInt:
      instr.operand = rng.uniform_int(-1000, 1000);
      break;
    case OpCode::kPushFloat:
      instr.operand = static_cast<std::int64_t>(
          std::bit_cast<std::uint64_t>(rng.uniform(-100.0, 100.0)));
      break;
    case OpCode::kLoadLocal:
    case OpCode::kStoreLocal:
      // Mostly valid, sometimes out of range.
      instr.operand = rng.uniform_int(0, num_locals + 1);
      break;
    case OpCode::kJump:
    case OpCode::kJumpIfZero:
    case OpCode::kJumpIfNotZero:
      instr.operand = rng.uniform_int(-2, code_len + 2);
      break;
    case OpCode::kCall:
      instr.operand = rng.uniform_int(0, num_functions);
      break;
    case OpCode::kIntrinsic:
      instr.operand = rng.uniform_int(0, kNumIntrinsics + 1);
      break;
    default:
      instr.operand = 0;
      break;
  }
  return instr;
}

// Fully random programs: most are invalid; used to fuzz the *verifier*.
Program random_program(Rng& rng) {
  Program program;
  const int num_functions = static_cast<int>(1 + rng.next_below(3));
  for (int f = 0; f < num_functions; ++f) {
    Function fn;
    fn.name = "f" + std::to_string(f);
    fn.arity = static_cast<std::uint32_t>(rng.next_below(3));
    fn.num_locals = fn.arity + static_cast<std::uint32_t>(rng.next_below(4));
    const int code_len = static_cast<int>(1 + rng.next_below(24));
    for (int i = 0; i < code_len; ++i) {
      fn.code.push_back(
          random_instr(rng, code_len, static_cast<int>(fn.num_locals),
                       num_functions));
    }
    program.add_function(std::move(fn));
  }
  program.set_entry(static_cast<std::uint32_t>(rng.next_below(num_functions)));
  return program;
}

// Depth-tracked random programs: every emitted instruction respects the
// current static stack depth and operand ranges, so the program verifies by
// construction — but value *types* are still completely random, which is
// exactly what the interpreter's dynamic checks must absorb.
Program random_verified_program(Rng& rng) {
  Program program;
  const int num_functions = static_cast<int>(1 + rng.next_below(3));
  for (int f = 0; f < num_functions; ++f) {
    Function fn;
    fn.name = "f" + std::to_string(f);
    fn.arity = static_cast<std::uint32_t>(rng.next_below(3));
    fn.num_locals = fn.arity + 1 + static_cast<std::uint32_t>(rng.next_below(4));
    int depth = 0;
    const int body_len = static_cast<int>(4 + rng.next_below(28));
    for (int i = 0; i < body_len; ++i) {
      // Candidate ops whose pops fit the current depth. Control flow is
      // exercised by the TCL fuzz sweep; here we stress data operations.
      for (int attempt = 0; attempt < 32; ++attempt) {
        Instr instr = random_instr(rng, /*code_len=*/1,
                                   static_cast<int>(fn.num_locals) - 1,
                                   num_functions);
        const OpInfo& info = op_info(instr.op);
        if (instr.op == OpCode::kJump || instr.op == OpCode::kJumpIfZero ||
            instr.op == OpCode::kJumpIfNotZero || instr.op == OpCode::kReturn ||
            instr.op == OpCode::kHalt) {
          continue;
        }
        int pops = info.pops;
        if (instr.op == OpCode::kCall) {
          instr.operand = static_cast<std::int64_t>(rng.next_below(
              static_cast<std::uint64_t>(num_functions)));
          // Self/forward calls recurse unboundedly often; the call-depth
          // limit traps them cleanly, which is part of the property.
          pops = static_cast<int>(rng.next_below(3));  // target arity unknown yet
          // Use a placeholder arity-0..2; fix below once all functions exist.
          // To keep construction simple, only call already-built functions.
          if (instr.operand >= f) continue;
          pops = static_cast<int>(
              program.function(static_cast<std::uint32_t>(instr.operand)).arity);
        }
        if (instr.op == OpCode::kIntrinsic) {
          instr.operand = static_cast<std::int64_t>(rng.next_below(kNumIntrinsics));
          pops = intrinsic_info(static_cast<Intrinsic>(instr.operand)).arity;
        }
        if (instr.op == OpCode::kLoadLocal || instr.op == OpCode::kStoreLocal) {
          instr.operand = static_cast<std::int64_t>(
              rng.next_below(fn.num_locals));
        }
        if (depth < pops) continue;
        fn.code.push_back(instr);
        depth += info.pushes - pops;
        break;
      }
    }
    // Normalise to exactly one value, then return.
    while (depth > 1) {
      fn.code.push_back(Instr{OpCode::kPop, 0});
      --depth;
    }
    if (depth == 0) {
      fn.code.push_back(Instr{OpCode::kPushInt, rng.uniform_int(-5, 5)});
    }
    fn.code.push_back(Instr{OpCode::kReturn, 0});
    program.add_function(std::move(fn));
  }
  program.set_entry(static_cast<std::uint32_t>(rng.next_below(num_functions)));
  return program;
}

std::vector<HostArg> args_for(const Program& program, Rng& rng) {
  std::vector<HostArg> args;
  const auto& entry = program.function(program.entry());
  for (std::uint32_t i = 0; i < entry.arity; ++i) {
    switch (rng.next_below(3)) {
      case 0: args.emplace_back(rng.uniform_int(-10, 10)); break;
      case 1: args.emplace_back(rng.uniform(-5.0, 5.0)); break;
      default:
        args.emplace_back(std::vector<std::int64_t>{1, 2, 3});
        break;
    }
  }
  return args;
}

// A run "behaves": either ok, or a Status from the known trap taxonomy.
void expect_clean(const Result<ExecOutcome>& outcome) {
  if (outcome.is_ok()) return;
  const StatusCode code = outcome.status().code();
  EXPECT_TRUE(code == StatusCode::kAborted ||
              code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kResourceExhausted ||
              code == StatusCode::kInvalidArgument ||
              code == StatusCode::kInternal)
      << outcome.status().to_string();
  // kInternal would indicate interpreter corruption; flag it specifically.
  EXPECT_NE(code, StatusCode::kInternal) << outcome.status().to_string();
}

class VerifiedExecutionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifiedExecutionSweep, AcceptedProgramsRunCleanAndDeterministic) {
  Rng rng(GetParam());
  ExecLimits limits;
  limits.max_fuel = 200'000;  // random loops rarely terminate; bound tightly
  limits.max_call_depth = 64;
  limits.max_heap_cells = 1 << 16;

  // Phase 1: depth-tracked programs — must all verify, and must execute
  // cleanly and deterministically (dynamic type traps are expected and fine).
  for (int round = 0; round < 300; ++round) {
    const Program program = random_verified_program(rng);
    ASSERT_TRUE(verify(program).is_ok())
        << "constructed program failed verification:\n" << disassemble(program);
    const auto args = args_for(program, rng);
    const auto first = execute(program, args, limits);
    expect_clean(first);
    const auto second = execute(program, args, limits);
    expect_clean(second);
    ASSERT_EQ(first.is_ok(), second.is_ok());
    if (first.is_ok()) {
      EXPECT_TRUE(args_equal(first->result, second->result));
      EXPECT_EQ(first->fuel_used, second->fuel_used);
    } else {
      EXPECT_EQ(first.status().code(), second.status().code());
    }
  }
  // Phase 2: fully random programs — the verifier must never crash and the
  // (rare) accepted ones must still execute cleanly.
  for (int round = 0; round < 300; ++round) {
    const Program program = random_program(rng);
    if (!verify(program).is_ok()) continue;
    expect_clean(execute(program, args_for(program, rng), limits));
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, VerifiedExecutionSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class MutationSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationSweep, MutatedEncodingsNeverMisbehave) {
  Rng rng(GetParam());
  // Start from a real program.
  auto base = assemble(R"(
    .func helper arity=1 locals=2
      load 0
      push_i 3
      mul_i
      ret
    .end
    .func main arity=1 locals=2
      load 0
      call helper
      push_i 1
      add_i
      halt
    .end
    .entry main
  )");
  ASSERT_TRUE(base.is_ok());
  const Bytes pristine = base->serialize();

  ExecLimits limits;
  limits.max_fuel = 100'000;
  int decoded_ok = 0;
  for (int round = 0; round < 2000; ++round) {
    Bytes mutated = pristine;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] ^= static_cast<std::byte>(1 + rng.next_below(255));
    }
    auto program = Program::deserialize(mutated);
    if (!program.is_ok()) continue;  // rejected at the container layer: fine
    ++decoded_ok;
    if (!verify(*program).is_ok()) continue;  // rejected by the verifier: fine
    // Survived both gates: must execute cleanly.
    expect_clean(execute(*program, {std::int64_t{4}}, limits));
  }
  // Single-byte flips often land in operands and still decode.
  EXPECT_GT(decoded_ok, 0);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, MutationSweep, ::testing::Values(101, 202, 303));

class TclFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Compiler output always verifies: sema + codegen maintain the stack
// discipline by construction — check it on deeply nested random programs.
TEST_P(TclFuzzSweep, CompiledProgramsAlwaysVerify) {
  Rng rng(GetParam());
  for (int round = 0; round < 60; ++round) {
    // Random nest of loops/conditionals around arithmetic on two locals.
    std::string body = "int a = 1; int b = 2;\n";
    const int depth = 1 + static_cast<int>(rng.next_below(4));
    std::string opening, closing;
    for (int d = 0; d < depth; ++d) {
      switch (rng.next_below(3)) {
        case 0:
          opening += "if (a < b + " + std::to_string(rng.uniform_int(0, 5)) + ") {\n";
          closing = "}\n" + closing;
          break;
        case 1:
          opening += "for (int i" + std::to_string(d) + " = 0; i" +
                     std::to_string(d) + " < 3; i" + std::to_string(d) +
                     " = i" + std::to_string(d) + " + 1) {\n";
          closing = "}\n" + closing;
          break;
        default:
          opening += "while (a < " + std::to_string(rng.uniform_int(2, 9)) + ") {\n";
          closing = "a = a + 1;\n}\n" + closing;
          break;
      }
    }
    body += opening + "b = b + a;\n" + closing + "return a * 100 + b;\n";
    const std::string source = "int main() {\n" + body + "}\n";
    tcl::CompileOptions options;
    options.verify = false;  // verify explicitly below to attribute failures
    auto program = tcl::compile(source, options);
    ASSERT_TRUE(program.is_ok())
        << program.status().to_string() << "\n" << source;
    EXPECT_TRUE(verify(*program).is_ok()) << source;
    ExecLimits limits;
    limits.max_fuel = 1'000'000;
    const auto outcome = execute(*program, {}, limits);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string() << "\n" << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, TclFuzzSweep, ::testing::Values(7, 77, 777));

// --- differential engine sweep ------------------------------------------------
//
// The fast-path engine's hard invariant (interpreter.hpp): observable
// behavior is bit-identical to the reference stepper. Random verified
// programs run through both engines — whole runs, sliced runs with
// mid-program suspension, and cross-engine resume (a snapshot taken under
// one engine restored under the other) — comparing results, fuel,
// instruction counts, trap status (code AND message, which carries the trap
// site), and every intermediate snapshot byte-for-byte.

// Everything observable from one sliced run.
struct RunTrace {
  bool ok = false;
  std::string error;  // full status (code + message) when !ok
  HostArg result;
  std::uint64_t fuel = 0;
  std::uint64_t instructions = 0;
  std::uint32_t peak_call_depth = 0;
  std::vector<Bytes> snapshots;  // state bytes at each suspension
};

RunTrace run_sliced(const Program& program, const std::vector<HostArg>& args,
                    const ExecLimits& limits, std::uint64_t fuel_slice,
                    Engine first_engine, Engine resume_engine) {
  RunTrace trace;
  ExecOptions first_options;
  first_options.engine = first_engine;
  ExecOptions resume_options;
  resume_options.engine = resume_engine;
  auto slice = execute_slice(program, args, limits, fuel_slice, first_options);
  for (int hops = 0;; ++hops) {
    if (!slice.is_ok()) {
      trace.ok = false;
      trace.error = slice.status().to_string();
      return trace;
    }
    if (auto* exec = std::get_if<ExecOutcome>(&*slice)) {
      trace.ok = true;
      trace.result = exec->result;
      trace.fuel = exec->fuel_used;
      trace.instructions = exec->instructions;
      trace.peak_call_depth = exec->peak_call_depth;
      return trace;
    }
    auto& suspension = std::get<Suspension>(*slice);
    trace.snapshots.push_back(suspension.state);
    if (hops > 100'000) {
      ADD_FAILURE() << "sliced run failed to terminate";
      return trace;
    }
    slice = resume_slice(program, suspension, limits, fuel_slice,
                         resume_options);
  }
}

void expect_traces_equal(const RunTrace& a, const RunTrace& b,
                         const Program& program, std::string_view label) {
  ASSERT_EQ(a.ok, b.ok) << label << "\n" << a.error << "\n" << b.error << "\n"
                        << disassemble(program);
  if (a.ok) {
    EXPECT_TRUE(args_equal(a.result, b.result)) << label << "\n"
                                                << disassemble(program);
    EXPECT_EQ(a.fuel, b.fuel) << label << "\n" << disassemble(program);
    EXPECT_EQ(a.instructions, b.instructions)
        << label << "\n" << disassemble(program);
    EXPECT_EQ(a.peak_call_depth, b.peak_call_depth)
        << label << "\n" << disassemble(program);
  } else {
    EXPECT_EQ(a.error, b.error) << label << "\n" << disassemble(program);
  }
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size())
      << label << "\n" << disassemble(program);
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_EQ(a.snapshots[i], b.snapshots[i])
        << label << ": snapshot " << i << " differs\n" << disassemble(program);
  }
}

class EngineDifferentialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDifferentialSweep, FastEngineMatchesReferenceBitExactly) {
  Rng rng(GetParam());
  ExecLimits limits;
  limits.max_fuel = 100'000;
  limits.max_call_depth = 64;
  limits.max_heap_cells = 1 << 16;
  ExecOptions fast_options;
  fast_options.engine = Engine::kFast;
  ExecOptions ref_options;
  ref_options.engine = Engine::kReference;

  for (int round = 0; round < 200; ++round) {
    const Program program = random_verified_program(rng);
    ASSERT_TRUE(verify(program).is_ok()) << disassemble(program);
    const auto args = args_for(program, rng);

    // Whole runs: identical outcome, fuel, instruction count, call depth —
    // or the identical trap, down to the message text (which pins the trap
    // site: "... in 'fn' at instruction N").
    const auto fast = execute(program, args, limits, fast_options);
    const auto ref = execute(program, args, limits, ref_options);
    ASSERT_EQ(fast.is_ok(), ref.is_ok())
        << fast.status().to_string() << "\n" << ref.status().to_string()
        << "\n" << disassemble(program);
    if (fast.is_ok()) {
      EXPECT_TRUE(args_equal(fast->result, ref->result)) << disassemble(program);
      EXPECT_EQ(fast->fuel_used, ref->fuel_used) << disassemble(program);
      EXPECT_EQ(fast->instructions, ref->instructions) << disassemble(program);
      EXPECT_EQ(fast->peak_call_depth, ref->peak_call_depth)
          << disassemble(program);
    } else {
      EXPECT_EQ(fast.status().to_string(), ref.status().to_string())
          << disassemble(program);
    }

    // Sliced runs: identical suspension points with bit-identical snapshot
    // bytes, and snapshots restore across engines (fast-suspend →
    // reference-resume and vice versa reproduce the single-engine run).
    const std::uint64_t slice = 8 + rng.next_below(200);
    const RunTrace ff =
        run_sliced(program, args, limits, slice, Engine::kFast, Engine::kFast);
    const RunTrace rr = run_sliced(program, args, limits, slice,
                                   Engine::kReference, Engine::kReference);
    const RunTrace fr = run_sliced(program, args, limits, slice,
                                   Engine::kFast, Engine::kReference);
    const RunTrace rf = run_sliced(program, args, limits, slice,
                                   Engine::kReference, Engine::kFast);
    expect_traces_equal(ff, rr, program, "fast/fast vs ref/ref");
    expect_traces_equal(ff, fr, program, "fast/fast vs fast/ref");
    expect_traces_equal(ff, rf, program, "fast/fast vs ref/fast");
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, EngineDifferentialSweep,
                         ::testing::Values(11, 22, 33, 44, 55));

// --- speculation, fused windows and block chaining ---------------------------
//
// Random loop programs shaped so the analysis speculates parameter tags and
// fuses every 4-slot window (compare-and-branch with a local or immediate
// bound, three-address add/sub, immediate array store) inside loops whose
// blocks chain. Compare kinds, add/sub choices and constants are random;
// the loop stores into an 8-cell array, so it ends by its compares or by a
// bounds trap at the store. Argument tags are random per run, so entry and
// call arguments agree with or contradict the speculated tags; small fuel
// limits and slices land traps and suspensions at every block boundary.
Program random_loop_program(Rng& rng) {
  static constexpr std::string_view kCmps[] = {"ceq_i", "cne_i", "clt_i",
                                               "cle_i", "cgt_i", "cge_i"};
  auto cmp = [&] { return std::string(kCmps[rng.next_below(6)]); };
  auto add_or_sub = [&] {
    return std::string(rng.next_below(2) == 0 ? "add_i" : "sub_i");
  };
  auto imm = [&] { return std::to_string(rng.uniform_int(-4, 12)); };
  const std::string bound = rng.next_below(2) == 0 ? "load 0" : "push_i " + imm();
  const std::string source =
      ".func helper arity=2 locals=3\n"
      "  load 0\n  load 1\n  " + add_or_sub() + "\n  store 2\n"
      "  load 2\n  push_i " + imm() + "\n  " + cmp() + "\n  jz other\n"
      "  load 2\n  ret\n"
      "other:\n  load 0\n  ret\n.end\n"
      // Locals: 0 bound, 1 step, 2 passed to helper; 3 i, 4 acc, 5 array.
      ".func main arity=3 locals=7\n"
      "  push_i 8\n  newarr\n  store 5\n"
      "loop:\n"
      "  load 3\n  " + bound + "\n  " + cmp() + "\n  jz done\n"
      "  load 5\n  load 3\n  push_i " + imm() + "\n  astore\n"
      "  load 4\n  load 1\n  " + add_or_sub() + "\n  store 4\n"
      "  load 4\n  push_i " + imm() + "\n  " + add_or_sub() + "\n  store 4\n"
      "  load 4\n  load 2\n  call helper\n  store 6\n"
      "  load 3\n  push_i 1\n  add_i\n  store 3\n"
      "  load 6\n  push_i " + imm() + "\n  " + cmp() + "\n  jz done\n"
      "  jmp loop\n"
      "done:\n  load 4\n  ret\n.end\n"
      ".entry main\n";
  auto program = assemble(source);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string() << "\n" << source;
  return std::move(program).value();
}

class SpeculationDifferentialSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpeculationDifferentialSweep, FusedChainedLoopsMatchReferenceBitExactly) {
  Rng rng(GetParam());
  auto fib = tcl::compile(R"(
    int fib(int n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    int main(int n) { return fib(n); }
  )");
  ASSERT_TRUE(fib.is_ok()) << fib.status().to_string();
  for (int round = 0; round < 150; ++round) {
    // Every fifth round runs recursion instead: fib's parameter is
    // speculated int, main's is not, so a float reaches a fib frame.
    const bool recursive = round % 5 == 0;
    const Program program = recursive ? *fib : random_loop_program(rng);
    ASSERT_TRUE(verify(program).is_ok()) << disassemble(program);
    std::vector<HostArg> args = args_for(program, rng);
    if (recursive && rng.next_below(2) == 0) {
      args[0] = HostArg{static_cast<std::int64_t>(rng.next_below(12))};
    }
    ExecLimits limits;
    limits.max_fuel = 40 + rng.next_below(600);
    limits.max_call_depth = 64;
    // Half the runs suspend every few instructions, so resumes land inside
    // the first blocks too, before a contradicting argument is consumed.
    const std::uint64_t slice = 1 + rng.next_below(rng.next_below(2) ? 40 : 6);
    const RunTrace rr = run_sliced(program, args, limits, slice,
                                   Engine::kReference, Engine::kReference);
    expect_traces_equal(run_sliced(program, args, limits, slice, Engine::kFast,
                                   Engine::kFast),
                        rr, program, "fast/fast vs ref/ref");
    expect_traces_equal(run_sliced(program, args, limits, slice, Engine::kFast,
                                   Engine::kReference),
                        rr, program, "fast/ref vs ref/ref");
    expect_traces_equal(run_sliced(program, args, limits, slice,
                                   Engine::kReference, Engine::kFast),
                        rr, program, "ref/fast vs ref/ref");
    expect_traces_equal(run_sliced(program, args, limits, 0, Engine::kFast,
                                   Engine::kFast),
                        run_sliced(program, args, limits, 0, Engine::kReference,
                                   Engine::kReference),
                        program, "whole run");
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SpeculationDifferentialSweep,
                         ::testing::Values(61, 62, 63));

}  // namespace
}  // namespace tasklets::tvm

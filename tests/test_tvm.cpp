// Unit tests for the Tasklet VM: values, programs & serialization, the
// assembler/disassembler, the verifier, and interpreter semantics including
// traps, limits and determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tvm/assembler.hpp"
#include "tvm/interpreter.hpp"
#include "tvm/marshal.hpp"
#include "tvm/program.hpp"
#include "tvm/value.hpp"
#include "tvm/verifier.hpp"

namespace tasklets::tvm {
namespace {

// Assembles or aborts the test.
Program asm_or_die(std::string_view src) {
  auto result = assemble(src);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result).value();
}

// Runs with default limits, expecting success, returning the result arg.
HostArg run_ok(const Program& program, std::vector<HostArg> args = {}) {
  auto outcome = verify_and_execute(program, args);
  EXPECT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  return outcome.is_ok() ? std::move(outcome).value().result : HostArg{std::int64_t{0}};
}

std::int64_t run_int(const Program& program, std::vector<HostArg> args = {}) {
  const HostArg r = run_ok(program, std::move(args));
  EXPECT_TRUE(std::holds_alternative<std::int64_t>(r));
  return std::get<std::int64_t>(r);
}

double run_float(const Program& program, std::vector<HostArg> args = {}) {
  const HostArg r = run_ok(program, std::move(args));
  EXPECT_TRUE(std::holds_alternative<double>(r));
  return std::get<double>(r);
}

// --- Value -------------------------------------------------------------------

TEST(ValueTest, TagsAndAccessors) {
  const Value i = Value::from_int(-7);
  const Value f = Value::from_float(2.5);
  const Value a = Value::from_array(3);
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(f.is_float());
  EXPECT_TRUE(a.is_array());
  EXPECT_EQ(i.as_int(), -7);
  EXPECT_DOUBLE_EQ(f.as_float(), 2.5);
  EXPECT_EQ(a.as_array(), 3u);
}

TEST(ValueTest, EqualityRequiresMatchingTag) {
  EXPECT_EQ(Value::from_int(1), Value::from_int(1));
  EXPECT_NE(Value::from_int(1), Value::from_float(1.0));
  EXPECT_NE(Value::from_int(1), Value::from_int(2));
}

TEST(ValueTest, ToDoubleCoerces) {
  EXPECT_DOUBLE_EQ(Value::from_int(3).to_double(), 3.0);
  EXPECT_DOUBLE_EQ(Value::from_float(3.5).to_double(), 3.5);
}

TEST(ValueTest, ToStringRenders) {
  EXPECT_EQ(Value::from_int(42).to_string(), "42");
  EXPECT_EQ(Value::from_array(2).to_string(), "array#2");
}

// --- Program serialization ----------------------------------------------------

Program sample_program() {
  return asm_or_die(R"(
    .func add2 arity=1 locals=1
      load 0
      push_i 2
      add_i
      ret
    .end
    .func main arity=1 locals=1
      load 0
      call add2
      halt
    .end
    .entry main
  )");
}

TEST(ProgramTest, SerializeDeserializeRoundTrip) {
  const Program p = sample_program();
  const Bytes encoded = p.serialize();
  auto decoded = Program::deserialize(encoded);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(*decoded, p);
}

TEST(ProgramTest, ContentHashStableAndSensitive) {
  const Program p = sample_program();
  EXPECT_EQ(p.content_hash(), sample_program().content_hash());
  Program q = p;
  Function extra;
  extra.name = "noop";
  extra.num_locals = 0;
  extra.code = {Instr{OpCode::kPushInt, 0}, Instr{OpCode::kReturn, 0}};
  q.add_function(extra);
  EXPECT_NE(q.content_hash(), p.content_hash());
}

TEST(ProgramTest, DeserializeRejectsBadMagic) {
  Bytes bad = sample_program().serialize();
  bad[0] = std::byte{0xFF};
  EXPECT_EQ(Program::deserialize(bad).status().code(), StatusCode::kDataLoss);
}

TEST(ProgramTest, DeserializeRejectsTruncation) {
  const Bytes good = sample_program().serialize();
  for (std::size_t cut : {std::size_t{5}, good.size() / 2, good.size() - 1}) {
    const std::span<const std::byte> prefix(good.data(), cut);
    EXPECT_FALSE(Program::deserialize(prefix).is_ok()) << "cut=" << cut;
  }
}

TEST(ProgramTest, DeserializeRejectsTrailingGarbage) {
  Bytes padded = sample_program().serialize();
  padded.push_back(std::byte{0});
  EXPECT_FALSE(Program::deserialize(padded).is_ok());
}

TEST(ProgramTest, DeserializeRejectsUnknownOpcode) {
  // Hand-craft: replace a known opcode byte with 0xEE. Find it by encoding a
  // tiny program whose single instruction byte is locatable from the end.
  Program p;
  Function fn;
  fn.name = "m";
  fn.num_locals = 0;
  fn.code = {Instr{OpCode::kPushInt, 1}, Instr{OpCode::kHalt, 0}};
  p.add_function(fn);
  Bytes enc = p.serialize();
  // Last two bytes: halt opcode; push_i occupies opcode+operand before it.
  enc[enc.size() - 1] = std::byte{0xEE};
  EXPECT_FALSE(Program::deserialize(enc).is_ok());
}

TEST(ProgramTest, FindFunction) {
  const Program p = sample_program();
  EXPECT_TRUE(p.find_function("add2").is_ok());
  EXPECT_EQ(p.find_function("nope").status().code(), StatusCode::kNotFound);
}

TEST(ProgramTest, InstructionCount) {
  EXPECT_EQ(sample_program().instruction_count(), 7u);
}

// --- Assembler / disassembler ---------------------------------------------------

TEST(AssemblerTest, LabelsResolveForwardAndBackward) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=2
      push_i 0
      store 1
    loop:
      load 0
      jz done
      load 1
      load 0
      add_i
      store 1
      load 0
      push_i 1
      sub_i
      store 0
      jmp loop
    done:
      load 1
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p, {std::int64_t{5}}), 15);  // 5+4+3+2+1
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  const auto r = assemble(".func main arity=0 locals=0\n  bogus_op\n.end\n.entry main\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(AssemblerTest, RejectsUndefinedLabel) {
  const auto r = assemble(R"(
    .func main arity=0 locals=0
      jmp nowhere
    .end
    .entry main
  )");
  EXPECT_FALSE(r.is_ok());
}

TEST(AssemblerTest, RejectsUndefinedCallTarget) {
  const auto r = assemble(R"(
    .func main arity=0 locals=0
      call missing
      halt
    .end
    .entry main
  )");
  EXPECT_FALSE(r.is_ok());
}

TEST(AssemblerTest, RejectsMissingEntry) {
  const auto r = assemble(".func f arity=0 locals=0\n  push_i 0\n  halt\n.end\n");
  EXPECT_FALSE(r.is_ok());
}

TEST(AssemblerTest, RejectsDuplicateFunction) {
  const auto r = assemble(R"(
    .func f arity=0 locals=0
      push_i 0
      halt
    .end
    .func f arity=0 locals=0
      push_i 0
      halt
    .end
    .entry f
  )");
  EXPECT_FALSE(r.is_ok());
}

TEST(AssemblerTest, RejectsOperandArityMismatch) {
  EXPECT_FALSE(assemble(".func m arity=0 locals=0\n  push_i\n  halt\n.end\n.entry m\n").is_ok());
  EXPECT_FALSE(assemble(".func m arity=0 locals=0\n  pop 3\n  halt\n.end\n.entry m\n").is_ok());
}

TEST(AssemblerTest, DisassembleRoundTrip) {
  const Program p = sample_program();
  const std::string listing = disassemble(p);
  auto p2 = assemble(listing);
  ASSERT_TRUE(p2.is_ok()) << p2.status().to_string() << "\n" << listing;
  EXPECT_EQ(*p2, p);
}

TEST(AssemblerTest, DisassembleRoundTripWithFloatsAndIntrinsics) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=0
      push_f 3.25
      push_f -0.5
      mul_f
      intrin fabs
      intrin sqrt
      halt
    .end
    .entry main
  )");
  auto p2 = assemble(disassemble(p));
  ASSERT_TRUE(p2.is_ok());
  EXPECT_EQ(*p2, p);
  EXPECT_DOUBLE_EQ(run_float(p), std::sqrt(3.25 * 0.5));
}

TEST(AssemblerTest, FloatSpecialValuesRoundTrip) {
  // NaN and infinities must survive disassemble -> assemble.
  Program p;
  Function fn;
  fn.name = "m";
  fn.code = {
      Instr{OpCode::kPushFloat, static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(
                                    std::numeric_limits<double>::infinity()))},
      Instr{OpCode::kPop, 0},
      Instr{OpCode::kPushFloat, static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(
                                    -std::numeric_limits<double>::infinity()))},
      Instr{OpCode::kPop, 0},
      Instr{OpCode::kPushFloat, 0},
      Instr{OpCode::kHalt, 0},
  };
  p.add_function(fn);
  auto p2 = assemble(disassemble(p));
  ASSERT_TRUE(p2.is_ok()) << p2.status().to_string() << "\n" << disassemble(p);
  EXPECT_EQ(*p2, p);
}

// --- Verifier -------------------------------------------------------------------

TEST(VerifierTest, AcceptsWellFormed) {
  EXPECT_TRUE(verify(sample_program()).is_ok());
}

TEST(VerifierTest, RejectsEmptyProgram) {
  Program p;
  EXPECT_FALSE(verify(p).is_ok());
}

TEST(VerifierTest, RejectsStackUnderflow) {
  Program p;
  Function fn;
  fn.name = "m";
  fn.code = {Instr{OpCode::kAddInt, 0}, Instr{OpCode::kHalt, 0}};
  p.add_function(fn);
  const Status s = verify(p);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("underflow"), std::string::npos);
}

TEST(VerifierTest, RejectsFallOffEnd) {
  Program p;
  Function fn;
  fn.name = "m";
  fn.code = {Instr{OpCode::kPushInt, 1}};  // no ret/halt
  p.add_function(fn);
  EXPECT_FALSE(verify(p).is_ok());
}

TEST(VerifierTest, RejectsJumpOutOfRange) {
  Program p;
  Function fn;
  fn.name = "m";
  fn.code = {Instr{OpCode::kJump, 99}, Instr{OpCode::kPushInt, 0},
             Instr{OpCode::kHalt, 0}};
  p.add_function(fn);
  EXPECT_FALSE(verify(p).is_ok());
}

TEST(VerifierTest, RejectsBadLocalSlot) {
  Program p;
  Function fn;
  fn.name = "m";
  fn.num_locals = 1;
  fn.code = {Instr{OpCode::kLoadLocal, 5}, Instr{OpCode::kHalt, 0}};
  p.add_function(fn);
  EXPECT_FALSE(verify(p).is_ok());
}

TEST(VerifierTest, RejectsBadCallIndex) {
  Program p;
  Function fn;
  fn.name = "m";
  fn.code = {Instr{OpCode::kCall, 3}, Instr{OpCode::kHalt, 0}};
  p.add_function(fn);
  EXPECT_FALSE(verify(p).is_ok());
}

TEST(VerifierTest, RejectsBadIntrinsicId) {
  Program p;
  Function fn;
  fn.name = "m";
  fn.code = {Instr{OpCode::kPushInt, 0}, Instr{OpCode::kIntrinsic, 999},
             Instr{OpCode::kHalt, 0}};
  p.add_function(fn);
  EXPECT_FALSE(verify(p).is_ok());
}

TEST(VerifierTest, RejectsInconsistentMergeDepth) {
  // Two paths reach the same instruction with different stack depths.
  Program p;
  Function fn;
  fn.name = "m";
  fn.code = {
      Instr{OpCode::kPushInt, 1},       // 0: depth 0 -> 1
      Instr{OpCode::kJumpIfZero, 4},    // 1: pops -> depth 0, branch to 4
      Instr{OpCode::kPushInt, 7},       // 2: depth 0 -> 1
      Instr{OpCode::kPushInt, 8},       // 3: depth 1 -> 2
      Instr{OpCode::kHalt, 0},          // 4: reached with depth 0 and 2
  };
  p.add_function(fn);
  EXPECT_FALSE(verify(p).is_ok());
}

TEST(VerifierTest, RejectsNonSingletonReturnStack) {
  Program p;
  Function fn;
  fn.name = "m";
  fn.code = {Instr{OpCode::kPushInt, 1}, Instr{OpCode::kPushInt, 2},
             Instr{OpCode::kHalt, 0}};
  p.add_function(fn);
  const Status s = verify(p);
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("non-singleton"), std::string::npos);
}

TEST(VerifierTest, RejectsExcessiveStaticDepth) {
  Program p;
  Function fn;
  fn.name = "m";
  for (int i = 0; i < 20; ++i) fn.code.push_back(Instr{OpCode::kPushInt, i});
  for (int i = 0; i < 19; ++i) fn.code.push_back(Instr{OpCode::kAddInt, 0});
  fn.code.push_back(Instr{OpCode::kHalt, 0});
  p.add_function(fn);
  VerifyLimits limits;
  limits.max_stack_depth = 8;
  EXPECT_EQ(verify(p, limits).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(verify(p).is_ok());  // default limit is generous
}

TEST(VerifierTest, RejectsArityExceedingLocals) {
  Program p;
  Function fn;
  fn.name = "m";
  fn.arity = 3;
  fn.num_locals = 1;
  fn.code = {Instr{OpCode::kPushInt, 0}, Instr{OpCode::kHalt, 0}};
  p.add_function(fn);
  EXPECT_FALSE(verify(p).is_ok());
}

// --- Interpreter: arithmetic & control ---------------------------------------------

TEST(InterpreterTest, IntArithmetic) {
  const Program p = asm_or_die(R"(
    .func main arity=2 locals=2
      load 0
      load 1
      add_i
      load 0
      load 1
      sub_i
      mul_i
      halt
    .end
    .entry main
  )");
  // (7+3) * (7-3) = 40
  EXPECT_EQ(run_int(p, {std::int64_t{7}, std::int64_t{3}}), 40);
}

TEST(InterpreterTest, DivModSemantics) {
  const Program p = asm_or_die(R"(
    .func main arity=2 locals=2
      load 0
      load 1
      div_i
      load 0
      load 1
      mod_i
      add_i
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p, {std::int64_t{17}, std::int64_t{5}}), 3 + 2);
  EXPECT_EQ(run_int(p, {std::int64_t{-17}, std::int64_t{5}}), -3 + -2);
}

TEST(InterpreterTest, SignedOverflowWraps) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=0
      push_i 9223372036854775807
      push_i 1
      add_i
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p), std::numeric_limits<std::int64_t>::min());
}

TEST(InterpreterTest, FloatArithmeticIeee) {
  const Program p = asm_or_die(R"(
    .func main arity=2 locals=2
      load 0
      load 1
      div_f
      halt
    .end
    .entry main
  )");
  EXPECT_DOUBLE_EQ(run_float(p, {1.0, 4.0}), 0.25);
  EXPECT_TRUE(std::isinf(run_float(p, {1.0, 0.0})));   // no trap: IEEE inf
  EXPECT_TRUE(std::isnan(run_float(p, {0.0, 0.0})));   // 0/0 = NaN
}

TEST(InterpreterTest, ShiftMasking) {
  const Program p = asm_or_die(R"(
    .func main arity=2 locals=2
      load 0
      load 1
      shl
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p, {std::int64_t{1}, std::int64_t{4}}), 16);
  // Shift count is masked to [0,63]: 64 behaves as 0.
  EXPECT_EQ(run_int(p, {std::int64_t{5}, std::int64_t{64}}), 5);
}

TEST(InterpreterTest, ArithmeticShiftRight) {
  const Program p = asm_or_die(R"(
    .func main arity=2 locals=2
      load 0
      load 1
      shr
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p, {std::int64_t{-8}, std::int64_t{1}}), -4);
}

TEST(InterpreterTest, RecursionFibonacci) {
  const Program p = asm_or_die(R"(
    .func fib arity=1 locals=1
      load 0
      push_i 2
      clt_i
      jz recurse
      load 0
      ret
    recurse:
      load 0
      push_i 1
      sub_i
      call fib
      load 0
      push_i 2
      sub_i
      call fib
      add_i
      ret
    .end
    .func main arity=1 locals=1
      load 0
      call fib
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p, {std::int64_t{10}}), 55);
  EXPECT_EQ(run_int(p, {std::int64_t{1}}), 1);
  EXPECT_EQ(run_int(p, {std::int64_t{0}}), 0);
}

TEST(InterpreterTest, ConversionOps) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=1
      load 0
      i2f
      push_f 2.0
      div_f
      f2i
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p, {std::int64_t{7}}), 3);  // 7/2.0=3.5 -> trunc 3
  EXPECT_EQ(run_int(p, {std::int64_t{-7}}), -3);  // trunc toward zero
}

TEST(InterpreterTest, DupSwapPop) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=0
      push_i 3
      push_i 9
      swap
      pop       ; drops 3
      dup
      mul_i     ; 9*9
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p), 81);
}

TEST(InterpreterTest, IntrinsicMath) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=1
      load 0
      intrin sqrt
      halt
    .end
    .entry main
  )");
  EXPECT_DOUBLE_EQ(run_float(p, {16.0}), 4.0);
}

TEST(InterpreterTest, IntIntrinsics) {
  const Program p = asm_or_die(R"(
    .func main arity=2 locals=2
      load 0
      intrin iabs
      load 1
      intrin iabs
      intrin imax
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p, {std::int64_t{-9}, std::int64_t{4}}), 9);
}

// --- Interpreter: arrays ------------------------------------------------------------

TEST(InterpreterTest, ArrayCreateStoreLoad) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=1
      push_i 3
      newarr
      store 0
      load 0
      push_i 1
      push_i 42
      astore
      load 0
      push_i 1
      aload
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p), 42);
}

TEST(InterpreterTest, ArrayArgumentAndResult) {
  // Doubles every element of the input int array.
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=2
      load 0
      alen
      store 1
    loop:
      load 1
      jz done
      load 1
      push_i 1
      sub_i
      store 1
      load 0
      load 1
      load 0
      load 1
      aload
      push_i 2
      mul_i
      astore
      jmp loop
    done:
      load 0
      halt
    .end
    .entry main
  )");
  const HostArg out = run_ok(p, {std::vector<std::int64_t>{1, 2, 3}});
  ASSERT_TRUE(std::holds_alternative<std::vector<std::int64_t>>(out));
  EXPECT_EQ(std::get<std::vector<std::int64_t>>(out),
            (std::vector<std::int64_t>{2, 4, 6}));
}

TEST(InterpreterTest, FloatArrayResult) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=1
      load 0
      halt
    .end
    .entry main
  )");
  const HostArg out = run_ok(p, {std::vector<double>{1.5, -2.5}});
  ASSERT_TRUE(std::holds_alternative<std::vector<double>>(out));
  EXPECT_EQ(std::get<std::vector<double>>(out), (std::vector<double>{1.5, -2.5}));
}

TEST(InterpreterTest, EmptyArrayRoundTrip) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=1
      load 0
      halt
    .end
    .entry main
  )");
  const HostArg out = run_ok(p, {std::vector<std::int64_t>{}});
  ASSERT_TRUE(std::holds_alternative<std::vector<std::int64_t>>(out));
  EXPECT_TRUE(std::get<std::vector<std::int64_t>>(out).empty());
}

// --- Interpreter: traps ---------------------------------------------------------------

Program trap_div_zero() {
  return asm_or_die(R"(
    .func main arity=1 locals=1
      push_i 1
      load 0
      div_i
      halt
    .end
    .entry main
  )");
}

TEST(InterpreterTest, DivideByZeroTraps) {
  const auto r = verify_and_execute(trap_div_zero(), {std::int64_t{0}});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_NE(r.status().message().find("division by zero"), std::string::npos);
}

TEST(InterpreterTest, DivIntMinByMinusOneTraps) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=0
      push_i -9223372036854775808
      push_i -1
      div_i
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(verify_and_execute(p, {}).status().code(), StatusCode::kAborted);
}

TEST(InterpreterTest, ModIntMinByMinusOneIsZero) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=0
      push_i -9223372036854775808
      push_i -1
      mod_i
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(run_int(p), 0);
}

TEST(InterpreterTest, ArrayOutOfBoundsTraps) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=1
      push_i 2
      newarr
      load 0
      aload
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(verify_and_execute(p, {std::int64_t{5}}).status().code(),
            StatusCode::kAborted);
  EXPECT_EQ(verify_and_execute(p, {std::int64_t{-1}}).status().code(),
            StatusCode::kAborted);
  EXPECT_TRUE(verify_and_execute(p, {std::int64_t{1}}).is_ok());
}

TEST(InterpreterTest, NegativeArrayLengthTraps) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=0
      push_i -3
      newarr
      alen
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(verify_and_execute(p, {}).status().code(), StatusCode::kAborted);
}

TEST(InterpreterTest, TypeConfusionTraps) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=0
      push_i 1
      push_f 2.0
      add_i
      halt
    .end
    .entry main
  )");
  const auto r = verify_and_execute(p, {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_NE(r.status().message().find("expected int"), std::string::npos);
}

TEST(InterpreterTest, FloatToIntRangeTraps) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=1
      load 0
      f2i
      halt
    .end
    .entry main
  )");
  EXPECT_EQ(verify_and_execute(p, {1e300}).status().code(), StatusCode::kAborted);
  EXPECT_EQ(verify_and_execute(p, {std::nan("")}).status().code(),
            StatusCode::kAborted);
  EXPECT_TRUE(verify_and_execute(p, {123.9}).is_ok());
}

TEST(InterpreterTest, EntryArityMismatch) {
  const auto r = verify_and_execute(sample_program(), {});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- Interpreter: limits -----------------------------------------------------------------

Program infinite_loop() {
  return asm_or_die(R"(
    .func main arity=0 locals=0
    spin:
      jmp spin
    .end
    .entry main
  )");
}

TEST(InterpreterTest, FuelExhaustion) {
  ExecLimits limits;
  limits.max_fuel = 1000;
  const auto r = execute(infinite_loop(), {}, limits);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(InterpreterTest, FuelIsDeterministic) {
  const Program p = sample_program();
  const auto a = verify_and_execute(p, {std::int64_t{5}});
  const auto b = verify_and_execute(p, {std::int64_t{5}});
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a->fuel_used, b->fuel_used);
  EXPECT_GT(a->fuel_used, 0u);
}

TEST(InterpreterTest, CallDepthLimit) {
  const Program p = asm_or_die(R"(
    .func spin arity=0 locals=0
      call spin
      ret
    .end
    .func main arity=0 locals=0
      call spin
      halt
    .end
    .entry main
  )");
  ExecLimits limits;
  limits.max_call_depth = 32;
  const auto r = execute(p, {}, limits);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(InterpreterTest, HeapLimit) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=0
      push_i 1000000
      newarr
      alen
      halt
    .end
    .entry main
  )");
  ExecLimits limits;
  limits.max_heap_cells = 1000;
  EXPECT_EQ(execute(p, {}, limits).status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(execute(p, {}, ExecLimits{}).is_ok());
}

TEST(InterpreterTest, PeakCallDepthReported) {
  const auto r = verify_and_execute(sample_program(), {std::int64_t{1}});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->peak_call_depth, 2u);  // main -> add2
}

TEST(InterpreterTest, HaltInsideNestedCallStopsMachine) {
  const Program p = asm_or_die(R"(
    .func inner arity=0 locals=0
      push_i 99
      halt
    .end
    .func main arity=0 locals=0
      call inner
      push_i 1
      add_i
      halt
    .end
    .entry main
  )");
  // halt in `inner` must yield 99, not 100.
  EXPECT_EQ(run_int(p), 99);
}

// --- Marshalling -----------------------------------------------------------------------

TEST(MarshalTest, EncodeDecodeRoundTrip) {
  const std::vector<HostArg> args = {
      std::int64_t{-5},
      3.75,
      std::vector<std::int64_t>{1, -2, 3},
      std::vector<double>{0.5, -0.25},
      std::vector<std::int64_t>{},
  };
  ByteWriter w;
  encode_args(w, args);
  ByteReader r(w.buffer());
  auto decoded = decode_args(r);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  ASSERT_EQ(decoded->size(), args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    EXPECT_TRUE(args_equal((*decoded)[i], args[i])) << "arg " << i;
  }
}

TEST(MarshalTest, DecodeRejectsBadTag) {
  ByteWriter w;
  w.write_varint(1);
  w.write_u8(99);  // bad tag
  ByteReader r(w.buffer());
  EXPECT_FALSE(decode_args(r).is_ok());
}

TEST(MarshalTest, ArgsEqualExactFloats) {
  EXPECT_TRUE(args_equal(HostArg{1.5}, HostArg{1.5}));
  EXPECT_FALSE(args_equal(HostArg{1.5}, HostArg{1.5000001}));
  EXPECT_FALSE(args_equal(HostArg{std::int64_t{1}}, HostArg{1.0}));
}

TEST(MarshalTest, WireSizeEstimates) {
  EXPECT_EQ(arg_wire_size(HostArg{std::int64_t{1}}), 9u);
  EXPECT_EQ(arg_wire_size(HostArg{std::vector<double>(10, 0.0)}), 82u);
}

TEST(MarshalTest, ToStringTruncatesLongArrays) {
  const HostArg big = std::vector<std::int64_t>(100, 7);
  const std::string s = to_string(big);
  EXPECT_NE(s.find("100 elements"), std::string::npos);
}

// --- Determinism property --------------------------------------------------------------

TEST(InterpreterProperty, DeterministicAcrossRuns) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=2
      push_i 1
      store 1
    loop:
      load 0
      jz done
      load 1
      load 0
      mul_i
      push_i 1000000007
      mod_i
      store 1
      load 0
      push_i 1
      sub_i
      store 0
      jmp loop
    done:
      load 1
      halt
    .end
    .entry main
  )");
  const auto first = verify_and_execute(p, {std::int64_t{500}});
  ASSERT_TRUE(first.is_ok());
  for (int i = 0; i < 5; ++i) {
    const auto again = verify_and_execute(p, {std::int64_t{500}});
    ASSERT_TRUE(again.is_ok());
    EXPECT_TRUE(args_equal(again->result, first->result));
    EXPECT_EQ(again->fuel_used, first->fuel_used);
  }
}

// --- Fast-path engine ---------------------------------------------------------

Result<ExecOutcome> run_engine(const Program& program,
                               const std::vector<HostArg>& args, Engine engine,
                               const ExecLimits& limits = {}) {
  ExecOptions options;
  options.engine = engine;
  return execute(program, args, limits, options);
}

TEST(FastEngineTest, AnalyzeQuickensProvenOpsAndKeepsCheckedOnes) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=2
      load 0
      push_i 10
      mul_i
      store 1
      load 0
      neg_f
      pop
      load 1
      push_i 3
      add_i
      halt
    .end
    .entry main
  )");
  auto plan = analyze(p);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  ASSERT_TRUE(plan->compatible_with(p));
  const auto& fp = plan->functions[0];
  ASSERT_EQ(fp.quick.size(), p.function(0).code.size());
  ASSERT_EQ(fp.block_of.size(), p.function(0).code.size());
  // Local 0 is a caller argument whose checked consumers disagree (mul_i
  // wants an int, neg_f a float), so nothing is speculated and the mul
  // keeps its checked form; local 1 was stored from an int-producing op,
  // so the second window fuses `push_i 3; add_i` into an immediate add.
  ASSERT_EQ(fp.param_tags.size(), 1u);
  EXPECT_EQ(fp.param_tags[0], SlotTag::kAny);
  EXPECT_EQ(fp.quick[2].op, OpCode::kMulInt);
  bool saw_imm_add = false;
  for (const Instr& instr : fp.quick) {
    if (instr.op == OpCode::kAddIntImmU) {
      saw_imm_add = true;
      EXPECT_EQ(instr.operand, 3);
    }
  }
  EXPECT_TRUE(saw_imm_add) << "push_i 3; add_i did not fuse";
}

TEST(FastEngineTest, FuelTrapParityWithReference) {
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=2
    loop:
      load 1
      push_i 1
      add_i
      store 1
      load 1
      load 0
      clt_i
      jnz loop
      load 1
      halt
    .end
    .entry main
  )");
  ExecLimits limits;
  limits.max_fuel = 777;
  const auto fast =
      run_engine(p, {std::int64_t{1'000'000}}, Engine::kFast, limits);
  const auto ref =
      run_engine(p, {std::int64_t{1'000'000}}, Engine::kReference, limits);
  ASSERT_FALSE(fast.is_ok());
  ASSERT_FALSE(ref.is_ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kDeadlineExceeded);
  // Message parity pins the trap site ("... at instruction N"): the fast
  // engine must burn fuel at exactly the reference's instruction.
  EXPECT_EQ(fast.status().to_string(), ref.status().to_string());
}

TEST(FastEngineTest, FusedArrayLoadTrapSiteMatchesReference) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=2
      push_i 4
      newarr
      store 0
      push_i 9
      store 1
      load 0
      load 1
      aload
      halt
    .end
    .entry main
  )");
  // `load 0; load 1; aload` fuses (both tags proven: array, int); the
  // out-of-bounds trap must still report the aload's own instruction index.
  const auto fast = run_engine(p, {}, Engine::kFast);
  const auto ref = run_engine(p, {}, Engine::kReference);
  ASSERT_FALSE(fast.is_ok());
  ASSERT_FALSE(ref.is_ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kAborted);
  EXPECT_EQ(fast.status().to_string(), ref.status().to_string());
  EXPECT_NE(fast.status().to_string().find("at instruction 7"),
            std::string::npos)
      << fast.status().to_string();
}

TEST(FastEngineTest, TypeConfusionTrapParity) {
  // Local 0 arrives from the caller and is speculated int from its add; a
  // float argument contradicts that, so the frame runs on the checked
  // stepper and must trap identically to the reference.
  const Program p = asm_or_die(R"(
    .func main arity=1 locals=1
      load 0
      push_i 1
      add_i
      halt
    .end
    .entry main
  )");
  const auto fast = run_engine(p, {2.5}, Engine::kFast);
  const auto ref = run_engine(p, {2.5}, Engine::kReference);
  ASSERT_FALSE(fast.is_ok());
  ASSERT_FALSE(ref.is_ok());
  EXPECT_EQ(fast.status().code(), StatusCode::kAborted);
  EXPECT_EQ(fast.status().to_string(), ref.status().to_string());
}

TEST(FastEngineTest, SuspensionSnapshotsMatchReferenceAtAnySlice) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=2
      push_i 0
      store 1
    loop:
      load 1
      push_i 1
      add_i
      store 1
      load 1
      push_i 60
      clt_i
      jnz loop
      load 1
      halt
    .end
    .entry main
  )");
  ExecLimits limits;
  ExecOptions fast_options;
  fast_options.engine = Engine::kFast;
  ExecOptions ref_options;
  ref_options.engine = Engine::kReference;
  for (const std::uint64_t slice :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{7},
        std::uint64_t{33}, std::uint64_t{100}}) {
    auto fast = execute_slice(p, {}, limits, slice, fast_options);
    auto ref = execute_slice(p, {}, limits, slice, ref_options);
    for (;;) {
      ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
      ASSERT_TRUE(ref.is_ok()) << ref.status().to_string();
      const bool fast_suspended = std::holds_alternative<Suspension>(*fast);
      ASSERT_EQ(fast_suspended, std::holds_alternative<Suspension>(*ref))
          << "slice=" << slice;
      if (!fast_suspended) break;
      auto& fs = std::get<Suspension>(*fast);
      auto& rs = std::get<Suspension>(*ref);
      ASSERT_EQ(fs.state, rs.state) << "slice=" << slice;
      EXPECT_EQ(fs.fuel_used, rs.fuel_used);
      EXPECT_EQ(fs.instructions, rs.instructions);
      fast = resume_slice(p, fs, limits, slice, fast_options);
      ref = resume_slice(p, rs, limits, slice, ref_options);
    }
    const auto& fast_done = std::get<ExecOutcome>(*fast);
    const auto& ref_done = std::get<ExecOutcome>(*ref);
    EXPECT_TRUE(args_equal(fast_done.result, ref_done.result));
    EXPECT_EQ(fast_done.fuel_used, ref_done.fuel_used) << "slice=" << slice;
    EXPECT_EQ(fast_done.instructions, ref_done.instructions);
  }
}

// Everything observable from one whole run, for engine comparisons.
std::string observe(const Result<ExecOutcome>& outcome) {
  if (!outcome.is_ok()) return "trap: " + outcome.status().to_string();
  return "ok: " + to_string(outcome->result) +
         " fuel=" + std::to_string(outcome->fuel_used) +
         " instructions=" + std::to_string(outcome->instructions) +
         " depth=" + std::to_string(outcome->peak_call_depth);
}

// Everything observable from a sliced run: the state bytes at every
// suspension, then the final outcome.
std::vector<std::string> observe_sliced(const Program& program,
                                        const std::vector<HostArg>& args,
                                        std::uint64_t slice, Engine first,
                                        Engine resume) {
  ExecOptions first_options;
  first_options.engine = first;
  ExecOptions resume_options;
  resume_options.engine = resume;
  std::vector<std::string> trace;
  auto result = execute_slice(program, args, {}, slice, first_options);
  while (result.is_ok() && std::holds_alternative<Suspension>(*result)) {
    const auto& suspension = std::get<Suspension>(*result);
    trace.emplace_back(reinterpret_cast<const char*>(suspension.state.data()),
                       suspension.state.size());
    trace.back() += " fuel=" + std::to_string(suspension.fuel_used) +
                    " instructions=" + std::to_string(suspension.instructions);
    result = resume_slice(program, suspension, {}, slice, resume_options);
  }
  trace.push_back(result.is_ok()
                      ? observe(std::get<ExecOutcome>(std::move(*result)))
                      : "trap: " + result.status().to_string());
  return trace;
}

// Whole runs under every fuel limit up to the run's own fuel (so fuel
// runs out at every instruction, inside fused windows and chained blocks
// too), and sliced runs at every slice size up to `max_slice` with both
// same- and cross-engine resume, must all match the reference engine.
void expect_parity_everywhere(const Program& program,
                              const std::vector<HostArg>& args,
                              std::uint64_t max_slice) {
  const auto full = run_engine(program, args, Engine::kReference);
  const std::uint64_t fuel = full.is_ok() ? full->fuel_used : 2'000;
  for (std::uint64_t max_fuel = 1; max_fuel <= fuel + 1; ++max_fuel) {
    ExecLimits limits;
    limits.max_fuel = max_fuel;
    ASSERT_EQ(observe(run_engine(program, args, Engine::kFast, limits)),
              observe(run_engine(program, args, Engine::kReference, limits)))
        << "max_fuel=" << max_fuel;
  }
  for (std::uint64_t slice = 1; slice <= max_slice; ++slice) {
    const auto rr = observe_sliced(program, args, slice, Engine::kReference,
                                   Engine::kReference);
    ASSERT_EQ(observe_sliced(program, args, slice, Engine::kFast, Engine::kFast),
              rr)
        << "slice=" << slice;
    ASSERT_EQ(observe_sliced(program, args, slice, Engine::kFast,
                             Engine::kReference),
              rr)
        << "slice=" << slice;
    ASSERT_EQ(observe_sliced(program, args, slice, Engine::kReference,
                             Engine::kFast),
              rr)
        << "slice=" << slice;
  }
}

TEST(FastEngineTest, ArgumentsContradictingSpeculationRunChecked) {
  // `bump` speculates int for its parameter (its add wants one) and
  // `count` for its bound; `main`'s parameter only flows into a call, so
  // nothing is speculated for it. Entry and call arguments of another tag
  // must run on the checked stepper and trap exactly like the reference.
  const Program p = asm_or_die(R"(
    .func bump arity=1 locals=2
      load 0
      push_i 1
      add_i
      store 1
      load 1
      ret
    .end
    .func count arity=1 locals=2
    loop:
      load 1
      load 0
      clt_i
      jz done
      load 1
      push_i 1
      add_i
      store 1
      jmp loop
    done:
      load 1
      ret
    .end
    .func main arity=1 locals=1
      push_i 41
      call bump
      load 0
      call bump
      add_i
      load 0
      call count
      add_i
      ret
    .end
    .entry main
  )");
  auto plan = analyze(p);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_EQ(plan->functions[0].param_tags, std::vector<SlotTag>{SlotTag::kInt});
  EXPECT_EQ(plan->functions[1].param_tags, std::vector<SlotTag>{SlotTag::kInt});
  EXPECT_EQ(plan->functions[2].param_tags, std::vector<SlotTag>{SlotTag::kAny});
  EXPECT_EQ(plan->functions[1].quick[0].op, OpCode::kCmpLtJzLLU);

  const HostArg int_arg{std::int64_t{5}};
  EXPECT_EQ(observe(run_engine(p, {int_arg}, Engine::kFast)),
            observe(run_engine(p, {int_arg}, Engine::kReference)));
  EXPECT_EQ(std::get<std::int64_t>(run_engine(p, {int_arg}, Engine::kFast)->result),
            42 + 6 + 5);
  for (const HostArg& arg :
       {HostArg{2.5}, HostArg{std::vector<std::int64_t>{1, 2}}}) {
    const auto fast = run_engine(p, {arg}, Engine::kFast);
    ASSERT_FALSE(fast.is_ok());
    EXPECT_NE(fast.status().to_string().find("in 'bump' at instruction 2"),
              std::string::npos)
        << fast.status().to_string();
    EXPECT_EQ(observe(fast), observe(run_engine(p, {arg}, Engine::kReference)));
  }
  // The same function entered from the host with a wrong-tag argument.
  Program entry_count = p;
  entry_count.set_entry(1);
  for (const HostArg& arg : {int_arg, HostArg{2.5}}) {
    EXPECT_EQ(observe(run_engine(entry_count, {arg}, Engine::kFast)),
              observe(run_engine(entry_count, {arg}, Engine::kReference)));
  }
  expect_parity_everywhere(p, {int_arg}, 24);
  expect_parity_everywhere(p, {HostArg{2.5}}, 8);
}

TEST(FastEngineTest, FusedWindowsMatchReferenceAtEveryFuelLimitAndSlice) {
  const Program p = asm_or_die(R"(
    .func main arity=2 locals=6
      push_i 8
      newarr
      store 2
    loop:
      load 3
      load 0
      clt_i
      jz done
      load 2
      load 3
      push_i 5
      astore
      load 4
      load 1
      sub_i
      store 4
      load 4
      push_i 3
      add_i
      store 4
      load 4
      load 3
      add_i
      store 5
      load 5
      push_i 2
      sub_i
      store 5
      load 3
      push_i 1
      add_i
      store 3
      load 4
      push_i -100
      cgt_i
      jz done
      jmp loop
    done:
      load 4
      ret
    .end
    .entry main
  )");
  auto plan = analyze(p);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  const auto& fp = plan->functions[0];
  EXPECT_EQ(fp.param_tags, (std::vector<SlotTag>{SlotTag::kInt, SlotTag::kInt}));
  const std::vector<std::pair<std::size_t, OpCode>> fused = {
      {3, OpCode::kCmpLtJzLLU},   {7, OpCode::kArrayStoreLLIU},
      {11, OpCode::kSubStoreLLU}, {15, OpCode::kAddStoreLIU},
      {19, OpCode::kAddStoreLLU}, {23, OpCode::kSubStoreLIU},
      {27, OpCode::kAddStoreLIU}, {31, OpCode::kCmpGtJzLIU}};
  for (const auto& [ip, op] : fused) {
    EXPECT_EQ(fp.quick[ip].op, op) << "ip " << ip << ": "
                                   << vm_op_name(fp.quick[ip].op);
  }

  // Completes; the immediate array store traps at its own instruction (the
  // window start + 3) once the index leaves the 8-cell array; a negative
  // step ends the loop through the second compare-and-branch; float and
  // array arguments contradict the speculation.
  const std::vector<std::vector<HostArg>> cases = {
      {std::int64_t{6}, std::int64_t{1}},
      {std::int64_t{12}, std::int64_t{1}},
      {std::int64_t{6}, std::int64_t{60}},
      {std::int64_t{6}, 0.5},
      {std::vector<std::int64_t>{1}, std::int64_t{1}}};
  for (const auto& args : cases) {
    EXPECT_EQ(observe(run_engine(p, args, Engine::kFast)),
              observe(run_engine(p, args, Engine::kReference)));
    expect_parity_everywhere(p, args, 40);
  }
  const auto oob = run_engine(p, cases[1], Engine::kFast);
  ASSERT_FALSE(oob.is_ok());
  EXPECT_NE(oob.status().to_string().find(
                "array index out of bounds in 'main' at instruction 10"),
            std::string::npos)
      << oob.status().to_string();
}

TEST(FastEngineTest, RecursionMatchesReferenceAtEveryFuelLimitAndSlice) {
  const Program p = asm_or_die(R"(
    .func fib arity=1 locals=1
      load 0
      push_i 2
      clt_i
      jz recurse
      load 0
      ret
    recurse:
      load 0
      push_i 1
      sub_i
      call fib
      load 0
      push_i 2
      sub_i
      call fib
      add_i
      ret
    .end
    .func main arity=1 locals=1
      load 0
      call fib
      halt
    .end
    .entry main
  )");
  auto plan = analyze(p);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_EQ(plan->functions[0].param_tags, std::vector<SlotTag>{SlotTag::kInt});
  EXPECT_EQ(plan->functions[0].quick[0].op, OpCode::kCmpLtJzLIU);
  expect_parity_everywhere(p, {std::int64_t{9}}, 30);
  // A float reaches fib through main, whose parameter has no speculation:
  // the first fib frame runs checked and traps like the reference.
  expect_parity_everywhere(p, {2.5}, 4);

  // The listing behind `taskletc dis --plan`.
  const std::string listing = plan_listing(p, *plan);
  for (const std::string_view line :
       {".func fib(int) locals=1", ".func main(any) locals=1",
        " block 0: fuel=4 depth=2", "     0  load 0                kCmpLtJzLIU",
        "     3  jz 6                  (fused)", "     5  ret\n"}) {
    EXPECT_NE(listing.find(line), std::string::npos) << line << "\n" << listing;
  }
}

TEST(FastEngineTest, IncompatiblePlanIsIgnoredNotTrusted) {
  const Program a = asm_or_die(R"(
    .func main arity=0 locals=1
      push_i 20
      push_i 22
      add_i
      halt
    .end
    .entry main
  )");
  const Program b = asm_or_die(R"(
    .func main arity=0 locals=1
      push_i 1
      halt
    .end
    .entry main
  )");
  auto plan_b = analyze(b);
  ASSERT_TRUE(plan_b.is_ok());
  // A plan for a different program must be detected and replaced by a fresh
  // analysis, never applied.
  ExecOptions options;
  options.plan = &*plan_b;
  const auto outcome = execute(a, {}, {}, options);
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_EQ(std::get<std::int64_t>(outcome->result), 42);
}

TEST(FastEngineTest, ProfilingForcesReferenceEngineAndStillCounts) {
  const Program p = asm_or_die(R"(
    .func main arity=0 locals=0
      push_i 2
      push_i 3
      mul_i
      halt
    .end
    .entry main
  )");
  ExecProfile profile;
  ExecOptions options;
  options.profile = &profile;
  const auto outcome = execute(p, {}, {}, options);
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_EQ(std::get<std::int64_t>(outcome->result), 6);
  EXPECT_EQ(profile.instructions, 4u);
  EXPECT_EQ(profile.ops[static_cast<std::size_t>(OpCode::kMulInt)].count, 1u);
}

}  // namespace
}  // namespace tasklets::tvm

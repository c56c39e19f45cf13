// TVM instruction set.
//
// A stack machine with typed arithmetic (the compiler resolves types
// statically and emits int- or float- flavoured opcodes), structured call
// frames, bounds-checked array storage and a small pure-math intrinsic
// library. Every instruction carries one optional 64-bit operand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace tasklets::tvm {

// Base opcode list in enum order, X-macro for building dense per-opcode
// tables (the fast engine's dispatch table in particular). Must mirror the
// enum exactly; opcode.cpp static_asserts the correspondence.
#define TASKLETS_BASE_OPS(X)                                                  \
  X(kNop) X(kPushInt) X(kPushFloat) X(kPop) X(kDup) X(kSwap)                  \
  X(kLoadLocal) X(kStoreLocal)                                                \
  X(kAddInt) X(kSubInt) X(kMulInt) X(kDivInt) X(kModInt) X(kNegInt)           \
  X(kAddFloat) X(kSubFloat) X(kMulFloat) X(kDivFloat) X(kNegFloat)            \
  X(kBitAnd) X(kBitOr) X(kBitXor) X(kShl) X(kShr)                             \
  X(kCmpEqInt) X(kCmpNeInt) X(kCmpLtInt) X(kCmpLeInt) X(kCmpGtInt)            \
  X(kCmpGeInt)                                                                \
  X(kCmpEqFloat) X(kCmpNeFloat) X(kCmpLtFloat) X(kCmpLeFloat) X(kCmpGtFloat)  \
  X(kCmpGeFloat)                                                              \
  X(kLogicalNot) X(kIntToFloat) X(kFloatToInt)                                \
  X(kJump) X(kJumpIfZero) X(kJumpIfNotZero)                                   \
  X(kCall) X(kReturn)                                                         \
  X(kNewArray) X(kArrayLoad) X(kArrayStore) X(kArrayLen)                      \
  X(kIntrinsic) X(kHalt)

// Quickened opcode list, X-macro so the enum, the name table and the fast
// engine's dispatch table stay in sync by construction (see the enum below
// for semantics).
#define TASKLETS_QUICKENED_OPS(X)                                             \
  /* int binops, tag checks removed */                                        \
  X(kAddIntU) X(kSubIntU) X(kMulIntU) X(kDivIntU) X(kModIntU)                 \
  X(kBitAndU) X(kBitOrU) X(kBitXorU) X(kShlU) X(kShrU)                        \
  X(kCmpEqIntU) X(kCmpNeIntU) X(kCmpLtIntU) X(kCmpLeIntU)                     \
  X(kCmpGtIntU) X(kCmpGeIntU)                                                 \
  X(kNegIntU) X(kLogicalNotU) X(kIntToFloatU)                                 \
  /* float binops, tag checks removed */                                      \
  X(kAddFloatU) X(kSubFloatU) X(kMulFloatU) X(kDivFloatU)                     \
  X(kCmpEqFloatU) X(kCmpNeFloatU) X(kCmpLtFloatU) X(kCmpLeFloatU)             \
  X(kCmpGtFloatU) X(kCmpGeFloatU)                                             \
  X(kNegFloatU) X(kFloatToIntU)                                               \
  /* branches on a proven-int condition */                                    \
  X(kJumpIfZeroU) X(kJumpIfNotZeroU)                                          \
  /* arrays with proven ref/index tags (bounds checks kept) */                \
  X(kArrayLoadU) X(kArrayStoreU) X(kArrayLenU)                                \
  /* intrinsic with proven argument tags */                                   \
  X(kIntrinsicU)                                                              \
  /* fused `push_i k; <op>`: operand = k, occupies 2 slots */                 \
  X(kAddIntImmU) X(kSubIntImmU) X(kMulIntImmU)                                \
  X(kCmpEqIntImmU) X(kCmpNeIntImmU) X(kCmpLtIntImmU) X(kCmpLeIntImmU)         \
  X(kCmpGtIntImmU) X(kCmpGeIntImmU)                                           \
  /* fused `push_f x; <op>`: operand = IEEE bits of x, occupies 2 slots */    \
  X(kAddFloatImmU) X(kSubFloatImmU) X(kMulFloatImmU) X(kDivFloatImmU)         \
  X(kCmpEqFloatImmU) X(kCmpNeFloatImmU) X(kCmpLtFloatImmU)                    \
  X(kCmpLeFloatImmU) X(kCmpGtFloatImmU) X(kCmpGeFloatImmU)                    \
  /* fused `load x; load y`: operand = x | y<<32, occupies 2 slots */         \
  X(kLoadLocal2)                                                              \
  /* fused `load ref; load idx; aload`: operand = ref | idx<<32, 3 slots; */  \
  /* LLU = tags proven, LLC = tag-checked at runtime with exact trap */       \
  /* message parity against the reference stepper */                          \
  X(kArrayLoadLLU) X(kArrayLoadLLC)                                           \
  /* 4-slot windows over proven ints; the handler reads its extra operands */ \
  /* from the window's later slots. Compare-and-branch: fused `load a; */     \
  /* load b|push_i k; cmp_<c>_iU; jz_U` (LL = two locals, LI = local and */   \
  /* immediate), a block terminator */                                        \
  X(kCmpEqJzLLU) X(kCmpNeJzLLU) X(kCmpLtJzLLU) X(kCmpLeJzLLU)                 \
  X(kCmpGtJzLLU) X(kCmpGeJzLLU)                                               \
  X(kCmpEqJzLIU) X(kCmpNeJzLIU) X(kCmpLtJzLIU) X(kCmpLeJzLIU)                 \
  X(kCmpGtJzLIU) X(kCmpGeJzLIU)                                               \
  /* three-address `load a; load b|push_i k; add_iU|sub_iU; store c` */       \
  X(kAddStoreLLU) X(kAddStoreLIU) X(kSubStoreLLU) X(kSubStoreLIU)             \
  /* `load r; load i; push_i k; astore_U`: trap site at the astore (+3) */    \
  X(kArrayStoreLLIU)

#define TASKLETS_DECLARE_OP(name) name,

enum class OpCode : std::uint8_t {
  // Stack & constants ------------------------------------------------------
  kNop = 0,
  kPushInt,    // operand: immediate int64
  kPushFloat,  // operand: IEEE-754 bit pattern of the double
  kPop,
  kDup,
  kSwap,

  // Locals (operand: slot index; parameters occupy the first slots) --------
  kLoadLocal,
  kStoreLocal,

  // Integer arithmetic ------------------------------------------------------
  kAddInt,
  kSubInt,
  kMulInt,
  kDivInt,  // traps on divide-by-zero and INT64_MIN / -1
  kModInt,  // traps on modulo-by-zero
  kNegInt,

  // Float arithmetic ---------------------------------------------------------
  kAddFloat,
  kSubFloat,
  kMulFloat,
  kDivFloat,  // IEEE semantics: x/0 is ±inf, 0/0 is NaN (no trap)
  kNegFloat,

  // Bit operations (int only) ------------------------------------------------
  kBitAnd,
  kBitOr,
  kBitXor,
  kShl,  // shift counts are masked to [0,63]
  kShr,  // arithmetic shift right

  // Comparisons: pop two, push int 0/1 ---------------------------------------
  kCmpEqInt,
  kCmpNeInt,
  kCmpLtInt,
  kCmpLeInt,
  kCmpGtInt,
  kCmpGeInt,
  kCmpEqFloat,
  kCmpNeFloat,
  kCmpLtFloat,
  kCmpLeFloat,
  kCmpGtFloat,
  kCmpGeFloat,

  // Logic on int truth values -------------------------------------------------
  kLogicalNot,  // pop x, push (x == 0)

  // Conversions -----------------------------------------------------------------
  kIntToFloat,
  kFloatToInt,  // truncates toward zero; traps if out of int64 range or NaN

  // Control flow (operand: absolute instruction index within the function) ----
  kJump,
  kJumpIfZero,     // pop int; jump when 0
  kJumpIfNotZero,  // pop int; jump when != 0

  // Calls (operand: function index). Arguments are popped (last on top) and
  // become the callee's first locals. Every function returns exactly one value.
  kCall,
  kReturn,

  // Arrays ---------------------------------------------------------------------
  kNewArray,    // pop length (int), push array ref; elements zero-initialised
  kArrayLoad,   // pop index, pop ref; push element
  kArrayStore,  // pop value, pop index, pop ref
  kArrayLen,    // pop ref, push length (int)

  // Intrinsics (operand: Intrinsic id). Pops per-arity args, pushes result. ----
  kIntrinsic,

  kHalt,  // stop with the top of stack as the program result

  // --- Quickened forms (fast-path engine only) -------------------------------
  //
  // Produced by the verifier's quickening pass (verifier.hpp::analyze) when
  // operand tags are proven monomorphic by dataflow, and consumed only by the
  // interpreter's fast-path engine. They are deliberately OUTSIDE
  // kNumOpCodes: the wire codec, the verifier and the reference stepper all
  // reject them, so a quickened instruction can never be serialized,
  // deserialized or verified — it exists only inside an ExecPlan.
  //
  // `U` suffix: tag checks removed (semantic traps — div0, bounds, f2i
  // range — are kept). `ImmU` suffix: fused `push_<k>; op` pair, the operand
  // is the immediate; occupies the pair's first slot, execution skips two
  // slots. `LL` prefix pair fusions read locals directly.
  TASKLETS_QUICKENED_OPS(TASKLETS_DECLARE_OP)

  kQuickOpLimit,  // sentinel: one past the last dispatchable opcode
};

constexpr std::uint8_t kNumOpCodes = static_cast<std::uint8_t>(OpCode::kHalt) + 1;
// Total dispatchable opcodes, including quickened forms (fast-engine table
// size). Quickened values live in [kNumOpCodes, kNumVmOps).
constexpr std::uint8_t kNumVmOps = static_cast<std::uint8_t>(OpCode::kQuickOpLimit);

// Pure-math intrinsics. Arity and result type are fixed per id.
enum class Intrinsic : std::uint8_t {
  kSqrt = 0,  // float -> float
  kSin,
  kCos,
  kTan,
  kExp,
  kLog,       // natural log
  kFloor,
  kCeil,
  kRound,
  kAbsFloat,
  kPow,       // (float, float) -> float
  kAtan2,     // (float, float) -> float
  kAbsInt,    // int -> int
  kMinInt,    // (int, int) -> int
  kMaxInt,
  kMinFloat,  // (float, float) -> float
  kMaxFloat,
};

constexpr std::uint8_t kNumIntrinsics = static_cast<std::uint8_t>(Intrinsic::kMaxFloat) + 1;

struct IntrinsicInfo {
  std::string_view name;
  int arity;        // 1 or 2
  bool float_args;  // whether args/result are float-typed
};

[[nodiscard]] const IntrinsicInfo& intrinsic_info(Intrinsic id) noexcept;
[[nodiscard]] std::optional<Intrinsic> intrinsic_by_name(std::string_view name) noexcept;

struct OpInfo {
  std::string_view name;   // assembler mnemonic
  bool has_operand;
  // Stack effect. For kCall/kIntrinsic, pops is resolved dynamically from the
  // callee arity / intrinsic table; these report pops = -1.
  int pops;
  int pushes;
};

[[nodiscard]] const OpInfo& op_info(OpCode op) noexcept;
[[nodiscard]] std::optional<OpCode> opcode_by_name(std::string_view mnemonic) noexcept;

[[nodiscard]] constexpr bool is_quickened(OpCode op) noexcept {
  return static_cast<std::uint8_t>(op) >= kNumOpCodes &&
         static_cast<std::uint8_t>(op) < kNumVmOps;
}

// Name of any dispatchable opcode, including quickened forms (base opcodes
// render their assembler mnemonic; quickened ones their enumerator name).
// For plan listings and fast-engine debugging only.
[[nodiscard]] std::string_view vm_op_name(OpCode op) noexcept;

// Code slots a dispatchable opcode covers: 1, or its fused window's width.
[[nodiscard]] std::size_t vm_op_slots(OpCode op) noexcept;

}  // namespace tasklets::tvm

#include "tvm/verifier.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tasklets::tvm {

namespace {

std::string at(const Function& fn, std::size_t ip) {
  return "in '" + fn.name + "' at instruction " + std::to_string(ip);
}

// Resolves the stack effect of an instruction; pops for calls and intrinsics
// come from the callee signature.
Status stack_effect(const Program& program, const Function& fn, std::size_t ip,
                    int& pops, int& pushes) {
  const Instr& instr = fn.code[ip];
  const OpInfo& info = op_info(instr.op);
  pops = info.pops;
  pushes = info.pushes;
  if (instr.op == OpCode::kCall) {
    const auto callee = static_cast<std::uint64_t>(instr.operand);
    pops = static_cast<int>(program.function(static_cast<std::uint32_t>(callee)).arity);
  } else if (instr.op == OpCode::kIntrinsic) {
    pops = intrinsic_info(static_cast<Intrinsic>(instr.operand)).arity;
  }
  return Status::ok();
}

Status verify_operands(const Program& program, const Function& fn) {
  const auto code_len = static_cast<std::int64_t>(fn.code.size());
  for (std::size_t ip = 0; ip < fn.code.size(); ++ip) {
    const Instr& instr = fn.code[ip];
    if (static_cast<std::uint8_t>(instr.op) >= kNumOpCodes) {
      return make_error(StatusCode::kDataLoss, "unknown opcode " + at(fn, ip));
    }
    switch (instr.op) {
      case OpCode::kLoadLocal:
      case OpCode::kStoreLocal:
        if (instr.operand < 0 || instr.operand >= static_cast<std::int64_t>(fn.num_locals)) {
          return make_error(StatusCode::kOutOfRange,
                            "local slot out of range " + at(fn, ip));
        }
        break;
      case OpCode::kJump:
      case OpCode::kJumpIfZero:
      case OpCode::kJumpIfNotZero:
        if (instr.operand < 0 || instr.operand >= code_len) {
          return make_error(StatusCode::kOutOfRange,
                            "jump target out of range " + at(fn, ip));
        }
        break;
      case OpCode::kCall:
        if (instr.operand < 0 ||
            instr.operand >= static_cast<std::int64_t>(program.function_count())) {
          return make_error(StatusCode::kOutOfRange,
                            "call target out of range " + at(fn, ip));
        }
        break;
      case OpCode::kIntrinsic:
        if (instr.operand < 0 || instr.operand >= kNumIntrinsics) {
          return make_error(StatusCode::kOutOfRange,
                            "unknown intrinsic " + at(fn, ip));
        }
        break;
      default:
        break;
    }
  }
  return Status::ok();
}

// Flow-insensitive-in, flow-sensitive-out stack-depth analysis: propagates a
// single depth to each instruction and rejects merge-point disagreements.
// On success `depths_out` (when non-null) receives the depth before each
// instruction (-1 = unreachable).
Status verify_stack(const Program& program, const Function& fn,
                    const VerifyLimits& limits,
                    std::vector<int>* depths_out = nullptr) {
  if (fn.code.empty()) {
    return make_error(StatusCode::kInvalidArgument,
                      "function '" + fn.name + "' has empty code");
  }
  constexpr int kUnvisited = -1;
  std::vector<int> depth_at(fn.code.size(), kUnvisited);
  std::deque<std::size_t> worklist;
  depth_at[0] = 0;
  worklist.push_back(0);

  auto propagate = [&](std::size_t target, int depth, std::size_t from) -> Status {
    if (target >= fn.code.size()) {
      return make_error(StatusCode::kInvalidArgument,
                        "control falls off code end " + at(fn, from));
    }
    if (depth_at[target] == kUnvisited) {
      depth_at[target] = depth;
      worklist.push_back(target);
    } else if (depth_at[target] != depth) {
      return make_error(StatusCode::kInvalidArgument,
                        "inconsistent stack depth at merge " + at(fn, target));
    }
    return Status::ok();
  };

  while (!worklist.empty()) {
    const std::size_t ip = worklist.front();
    worklist.pop_front();
    const Instr& instr = fn.code[ip];
    int pops = 0, pushes = 0;
    TASKLETS_RETURN_IF_ERROR(stack_effect(program, fn, ip, pops, pushes));
    const int depth = depth_at[ip];
    if (depth < pops) {
      return make_error(StatusCode::kInvalidArgument,
                        "operand stack underflow " + at(fn, ip));
    }
    const int next = depth - pops + pushes;
    if (next > static_cast<int>(limits.max_stack_depth)) {
      return make_error(StatusCode::kResourceExhausted,
                        "static stack depth exceeds limit " + at(fn, ip));
    }
    switch (instr.op) {
      case OpCode::kReturn:
      case OpCode::kHalt:
        // `ret`/`halt` consume the result; nothing may be left beneath it.
        if (depth != 1) {
          return make_error(StatusCode::kInvalidArgument,
                            "non-singleton stack at return " + at(fn, ip));
        }
        break;
      case OpCode::kJump:
        TASKLETS_RETURN_IF_ERROR(
            propagate(static_cast<std::size_t>(instr.operand), next, ip));
        break;
      case OpCode::kJumpIfZero:
      case OpCode::kJumpIfNotZero:
        TASKLETS_RETURN_IF_ERROR(
            propagate(static_cast<std::size_t>(instr.operand), next, ip));
        TASKLETS_RETURN_IF_ERROR(propagate(ip + 1, next, ip));
        break;
      default:
        TASKLETS_RETURN_IF_ERROR(propagate(ip + 1, next, ip));
        break;
    }
  }
  if (depths_out != nullptr) *depths_out = depth_at;
  return Status::ok();
}

// --- Fast-path plan construction ---------------------------------------------

// Abstract value for the quickening dataflow: a proven tag (kInt, kFloat and
// kArray share SlotTag's values), kTop for unknown, or, in the speculation
// pass only, kParam0 + i for parameter i exactly as the caller passed it.
enum class Tag : std::uint32_t { kInt, kFloat, kArray, kTop, kParam0 };

Tag param_origin(std::uint32_t i) {
  return static_cast<Tag>(static_cast<std::uint32_t>(Tag::kParam0) + i);
}

SlotTag slot_tag(Tag t) {
  return t < Tag::kTop ? static_cast<SlotTag>(t) : SlotTag::kAny;
}

Tag merge_tag(Tag a, Tag b) { return a == b ? a : Tag::kTop; }

struct AbsState {
  std::vector<Tag> stack;   // operand tags, bottom first
  std::vector<Tag> locals;  // local-slot tags

  // Pointwise merge; returns whether anything weakened.
  bool merge_from(const AbsState& other) {
    bool changed = false;
    for (std::size_t i = 0; i < stack.size(); ++i) {
      const Tag m = merge_tag(stack[i], other.stack[i]);
      if (m != stack[i]) {
        stack[i] = m;
        changed = true;
      }
    }
    for (std::size_t i = 0; i < locals.size(); ++i) {
      const Tag m = merge_tag(locals[i], other.locals[i]);
      if (m != locals[i]) {
        locals[i] = m;
        changed = true;
      }
    }
    return changed;
  }
};

// Applies one instruction's effect to the abstract state (success path; trap
// paths have no successors to feed). Sizes are guaranteed by the depth map.
void abs_apply(const Program& program, const Instr& instr, AbsState& s) {
  auto push = [&](Tag t) { s.stack.push_back(t); };
  auto pop = [&]() {
    const Tag t = s.stack.back();
    s.stack.pop_back();
    return t;
  };
  switch (instr.op) {
    case OpCode::kNop:
      break;
    case OpCode::kPushInt:
      push(Tag::kInt);
      break;
    case OpCode::kPushFloat:
      push(Tag::kFloat);
      break;
    case OpCode::kPop:
      pop();
      break;
    case OpCode::kDup:
      push(s.stack.back());
      break;
    case OpCode::kSwap:
      std::swap(s.stack[s.stack.size() - 1], s.stack[s.stack.size() - 2]);
      break;
    case OpCode::kLoadLocal:
      push(s.locals[static_cast<std::size_t>(instr.operand)]);
      break;
    case OpCode::kStoreLocal:
      s.locals[static_cast<std::size_t>(instr.operand)] = pop();
      break;
    case OpCode::kAddInt:
    case OpCode::kSubInt:
    case OpCode::kMulInt:
    case OpCode::kDivInt:
    case OpCode::kModInt:
    case OpCode::kBitAnd:
    case OpCode::kBitOr:
    case OpCode::kBitXor:
    case OpCode::kShl:
    case OpCode::kShr:
    case OpCode::kCmpEqInt:
    case OpCode::kCmpNeInt:
    case OpCode::kCmpLtInt:
    case OpCode::kCmpLeInt:
    case OpCode::kCmpGtInt:
    case OpCode::kCmpGeInt:
    case OpCode::kCmpEqFloat:
    case OpCode::kCmpNeFloat:
    case OpCode::kCmpLtFloat:
    case OpCode::kCmpLeFloat:
    case OpCode::kCmpGtFloat:
    case OpCode::kCmpGeFloat:
      pop();
      pop();
      push(Tag::kInt);
      break;
    case OpCode::kAddFloat:
    case OpCode::kSubFloat:
    case OpCode::kMulFloat:
    case OpCode::kDivFloat:
      pop();
      pop();
      push(Tag::kFloat);
      break;
    case OpCode::kNegInt:
    case OpCode::kLogicalNot:
    case OpCode::kFloatToInt:
      pop();
      push(Tag::kInt);
      break;
    case OpCode::kNegFloat:
    case OpCode::kIntToFloat:
      pop();
      push(Tag::kFloat);
      break;
    case OpCode::kJump:
      break;
    case OpCode::kJumpIfZero:
    case OpCode::kJumpIfNotZero:
      pop();
      break;
    case OpCode::kCall: {
      const auto& callee =
          program.function(static_cast<std::uint32_t>(instr.operand));
      for (std::uint32_t i = 0; i < callee.arity; ++i) pop();
      push(Tag::kTop);  // return values are not tracked across calls
      break;
    }
    case OpCode::kReturn:
    case OpCode::kHalt:
      break;  // terminal; no successors consume this state
    case OpCode::kNewArray:
      pop();
      push(Tag::kArray);
      break;
    case OpCode::kArrayLoad:
      pop();
      pop();
      push(Tag::kTop);  // element tags are not tracked
      break;
    case OpCode::kArrayStore:
      pop();
      pop();
      pop();
      break;
    case OpCode::kArrayLen:
      pop();
      push(Tag::kInt);
      break;
    case OpCode::kIntrinsic: {
      const IntrinsicInfo& info =
          intrinsic_info(static_cast<Intrinsic>(instr.operand));
      for (int i = 0; i < info.arity; ++i) pop();
      push(info.float_args ? Tag::kFloat : Tag::kInt);
      break;
    }
    default:
      break;  // quickened ops never appear in verified programs
  }
}

// Forward dataflow over operand/local tags from an entry state whose
// parameters carry `params`; `in_out[ip]` receives the state before each
// reachable instruction.
void infer_tags(const Program& program, const Function& fn,
                const std::vector<Tag>& params,
                std::vector<std::optional<AbsState>>& in_out) {
  in_out.assign(fn.code.size(), std::nullopt);
  AbsState entry;
  entry.locals.assign(fn.num_locals, Tag::kInt);  // zero-initialised slots
  std::copy(params.begin(), params.end(), entry.locals.begin());
  in_out[0] = entry;
  std::deque<std::size_t> worklist{0};
  auto flow = [&](std::size_t target, const AbsState& state) {
    if (!in_out[target].has_value()) {
      in_out[target] = state;
      worklist.push_back(target);
    } else if (in_out[target]->merge_from(state)) {
      worklist.push_back(target);
    }
  };
  while (!worklist.empty()) {
    const std::size_t ip = worklist.front();
    worklist.pop_front();
    const Instr& instr = fn.code[ip];
    AbsState out = *in_out[ip];
    abs_apply(program, instr, out);
    switch (instr.op) {
      case OpCode::kReturn:
      case OpCode::kHalt:
        break;
      case OpCode::kJump:
        flow(static_cast<std::size_t>(instr.operand), out);
        break;
      case OpCode::kJumpIfZero:
      case OpCode::kJumpIfNotZero:
        flow(static_cast<std::size_t>(instr.operand), out);
        flow(ip + 1, out);
        break;
      default:
        flow(ip + 1, out);
        break;
    }
  }
}

// The tag a checked instruction requires of its k-th operand from the top
// (k = 0 is the top), or kTop where it checks none.
Tag demanded_tag(const Instr& instr, std::size_t k) {
  switch (instr.op) {
    case OpCode::kAddInt:
    case OpCode::kSubInt:
    case OpCode::kMulInt:
    case OpCode::kDivInt:
    case OpCode::kModInt:
    case OpCode::kBitAnd:
    case OpCode::kBitOr:
    case OpCode::kBitXor:
    case OpCode::kShl:
    case OpCode::kShr:
    case OpCode::kCmpEqInt:
    case OpCode::kCmpNeInt:
    case OpCode::kCmpLtInt:
    case OpCode::kCmpLeInt:
    case OpCode::kCmpGtInt:
    case OpCode::kCmpGeInt:
      return k < 2 ? Tag::kInt : Tag::kTop;
    case OpCode::kAddFloat:
    case OpCode::kSubFloat:
    case OpCode::kMulFloat:
    case OpCode::kDivFloat:
    case OpCode::kCmpEqFloat:
    case OpCode::kCmpNeFloat:
    case OpCode::kCmpLtFloat:
    case OpCode::kCmpLeFloat:
    case OpCode::kCmpGtFloat:
    case OpCode::kCmpGeFloat:
      return k < 2 ? Tag::kFloat : Tag::kTop;
    case OpCode::kNegInt:
    case OpCode::kLogicalNot:
    case OpCode::kIntToFloat:
    case OpCode::kJumpIfZero:
    case OpCode::kJumpIfNotZero:
    case OpCode::kNewArray:
      return k == 0 ? Tag::kInt : Tag::kTop;
    case OpCode::kNegFloat:
    case OpCode::kFloatToInt:
      return k == 0 ? Tag::kFloat : Tag::kTop;
    case OpCode::kArrayLoad:
      return k == 0 ? Tag::kInt : k == 1 ? Tag::kArray : Tag::kTop;
    case OpCode::kArrayStore:  // the stored value (k = 0) takes any tag
      return k == 1 ? Tag::kInt : k == 2 ? Tag::kArray : Tag::kTop;
    case OpCode::kArrayLen:
      return k == 0 ? Tag::kArray : Tag::kTop;
    case OpCode::kIntrinsic: {
      const IntrinsicInfo& info =
          intrinsic_info(static_cast<Intrinsic>(instr.operand));
      if (k >= static_cast<std::size_t>(info.arity)) return Tag::kTop;
      return info.float_args ? Tag::kFloat : Tag::kInt;
    }
    default:
      return Tag::kTop;
  }
}

// The tag-check-free form of an instruction (itself when it has none).
OpCode unchecked_op(OpCode op) {
  switch (op) {
    case OpCode::kAddInt: return OpCode::kAddIntU;
    case OpCode::kSubInt: return OpCode::kSubIntU;
    case OpCode::kMulInt: return OpCode::kMulIntU;
    case OpCode::kDivInt: return OpCode::kDivIntU;
    case OpCode::kModInt: return OpCode::kModIntU;
    case OpCode::kBitAnd: return OpCode::kBitAndU;
    case OpCode::kBitOr: return OpCode::kBitOrU;
    case OpCode::kBitXor: return OpCode::kBitXorU;
    case OpCode::kShl: return OpCode::kShlU;
    case OpCode::kShr: return OpCode::kShrU;
    case OpCode::kCmpEqInt: return OpCode::kCmpEqIntU;
    case OpCode::kCmpNeInt: return OpCode::kCmpNeIntU;
    case OpCode::kCmpLtInt: return OpCode::kCmpLtIntU;
    case OpCode::kCmpLeInt: return OpCode::kCmpLeIntU;
    case OpCode::kCmpGtInt: return OpCode::kCmpGtIntU;
    case OpCode::kCmpGeInt: return OpCode::kCmpGeIntU;
    case OpCode::kNegInt: return OpCode::kNegIntU;
    case OpCode::kLogicalNot: return OpCode::kLogicalNotU;
    case OpCode::kIntToFloat: return OpCode::kIntToFloatU;
    case OpCode::kAddFloat: return OpCode::kAddFloatU;
    case OpCode::kSubFloat: return OpCode::kSubFloatU;
    case OpCode::kMulFloat: return OpCode::kMulFloatU;
    case OpCode::kDivFloat: return OpCode::kDivFloatU;
    case OpCode::kCmpEqFloat: return OpCode::kCmpEqFloatU;
    case OpCode::kCmpNeFloat: return OpCode::kCmpNeFloatU;
    case OpCode::kCmpLtFloat: return OpCode::kCmpLtFloatU;
    case OpCode::kCmpLeFloat: return OpCode::kCmpLeFloatU;
    case OpCode::kCmpGtFloat: return OpCode::kCmpGtFloatU;
    case OpCode::kCmpGeFloat: return OpCode::kCmpGeFloatU;
    case OpCode::kNegFloat: return OpCode::kNegFloatU;
    case OpCode::kFloatToInt: return OpCode::kFloatToIntU;
    case OpCode::kJumpIfZero: return OpCode::kJumpIfZeroU;
    case OpCode::kJumpIfNotZero: return OpCode::kJumpIfNotZeroU;
    case OpCode::kArrayLoad: return OpCode::kArrayLoadU;
    case OpCode::kArrayStore: return OpCode::kArrayStoreU;
    case OpCode::kArrayLen: return OpCode::kArrayLenU;
    case OpCode::kIntrinsic: return OpCode::kIntrinsicU;
    default: return op;
  }
}

// Rewrites one instruction to its unchecked form when the dataflow proved
// every tag it checks. Returns the original op otherwise.
OpCode quicken_op(const Instr& instr, const AbsState& in) {
  const auto& stack = in.stack;
  for (std::size_t k = 0; k < 3 && k < stack.size(); ++k) {
    const Tag want = demanded_tag(instr, k);
    if (want != Tag::kTop && stack[stack.size() - 1 - k] != want) {
      return instr.op;
    }
  }
  return unchecked_op(instr.op);
}

// Speculates each parameter's tag from `states`, a pass seeded with
// param_origin tags: the one tag that every checked instruction consuming
// the parameter unmodified demands, or kTop when none does or they differ.
std::vector<Tag> speculate_params(const Function& fn,
                                  const std::vector<std::optional<AbsState>>& states) {
  std::vector<std::optional<Tag>> demand(fn.arity);
  for (std::size_t ip = 0; ip < fn.code.size(); ++ip) {
    if (!states[ip].has_value()) continue;
    const auto& stack = states[ip]->stack;
    for (std::size_t k = 0; k < 3 && k < stack.size(); ++k) {
      const Tag want = demanded_tag(fn.code[ip], k);
      const Tag have = stack[stack.size() - 1 - k];
      if (want == Tag::kTop || have < Tag::kParam0) continue;
      auto& d = demand[static_cast<std::uint32_t>(have) -
                       static_cast<std::uint32_t>(Tag::kParam0)];
      d = !d.has_value() || *d == want ? want : Tag::kTop;
    }
  }
  std::vector<Tag> params(fn.arity, Tag::kTop);
  for (std::uint32_t i = 0; i < fn.arity; ++i) {
    if (demand[i].has_value()) params[i] = *demand[i];
  }
  return params;
}

std::int64_t pack_slots(std::int64_t lo, std::int64_t hi) {
  return lo | (hi << 32);
}

// Pairs `push_i k` / `push_f x` with a following unchecked binop into an
// immediate form. Returns kNop when the pair is not fusable.
OpCode imm_fused_op(OpCode push_op, OpCode next) {
  if (push_op == OpCode::kPushInt) {
    switch (next) {
      case OpCode::kAddIntU: return OpCode::kAddIntImmU;
      case OpCode::kSubIntU: return OpCode::kSubIntImmU;
      case OpCode::kMulIntU: return OpCode::kMulIntImmU;
      case OpCode::kCmpEqIntU: return OpCode::kCmpEqIntImmU;
      case OpCode::kCmpNeIntU: return OpCode::kCmpNeIntImmU;
      case OpCode::kCmpLtIntU: return OpCode::kCmpLtIntImmU;
      case OpCode::kCmpLeIntU: return OpCode::kCmpLeIntImmU;
      case OpCode::kCmpGtIntU: return OpCode::kCmpGtIntImmU;
      case OpCode::kCmpGeIntU: return OpCode::kCmpGeIntImmU;
      default: return OpCode::kNop;
    }
  }
  switch (next) {
    case OpCode::kAddFloatU: return OpCode::kAddFloatImmU;
    case OpCode::kSubFloatU: return OpCode::kSubFloatImmU;
    case OpCode::kMulFloatU: return OpCode::kMulFloatImmU;
    case OpCode::kDivFloatU: return OpCode::kDivFloatImmU;
    case OpCode::kCmpEqFloatU: return OpCode::kCmpEqFloatImmU;
    case OpCode::kCmpNeFloatU: return OpCode::kCmpNeFloatImmU;
    case OpCode::kCmpLtFloatU: return OpCode::kCmpLtFloatImmU;
    case OpCode::kCmpLeFloatU: return OpCode::kCmpLeFloatImmU;
    case OpCode::kCmpGtFloatU: return OpCode::kCmpGtFloatImmU;
    case OpCode::kCmpGeFloatU: return OpCode::kCmpGeFloatImmU;
    default: return OpCode::kNop;
  }
}

// Compare-and-branch form of an unchecked int compare followed by `jz_U`,
// with a local (LL) or immediate (LI) right operand. kNop when none.
OpCode cmp_jz_op(OpCode cmp, bool imm) {
  switch (cmp) {
    case OpCode::kCmpEqIntU: return imm ? OpCode::kCmpEqJzLIU : OpCode::kCmpEqJzLLU;
    case OpCode::kCmpNeIntU: return imm ? OpCode::kCmpNeJzLIU : OpCode::kCmpNeJzLLU;
    case OpCode::kCmpLtIntU: return imm ? OpCode::kCmpLtJzLIU : OpCode::kCmpLtJzLLU;
    case OpCode::kCmpLeIntU: return imm ? OpCode::kCmpLeJzLIU : OpCode::kCmpLeJzLLU;
    case OpCode::kCmpGtIntU: return imm ? OpCode::kCmpGtJzLIU : OpCode::kCmpGtJzLLU;
    case OpCode::kCmpGeIntU: return imm ? OpCode::kCmpGeJzLIU : OpCode::kCmpGeJzLLU;
    default: return OpCode::kNop;
  }
}

// Fuses windows inside a basic block, longest first. Safe because fused
// windows lie within one block (no branch lands mid-window) and the fast
// engine enters quickened code only at block starts; any other entry runs
// the original, unfused instructions on the checked stepper.
void fuse(const Function& fn, FunctionPlan& plan) {
  auto& quick = plan.quick;
  const auto& code = fn.code;
  auto same_block = [&](std::size_t a, std::size_t b) {
    return b < quick.size() && plan.block_of[a] != kNoBlock &&
           plan.block_of[a] == plan.block_of[b];
  };
  // The 3- or 4-slot fused op starting at `p` and its width (0: none).
  // Its first slot keeps the first load's operand; handlers read the
  // rest from the window's later slots.
  auto long_window = [&](std::size_t p) -> std::pair<OpCode, std::size_t> {
    if (code[p].op != OpCode::kLoadLocal) return {OpCode::kNop, 0};
    const bool rhs_local = same_block(p, p + 1) &&
                           code[p + 1].op == OpCode::kLoadLocal;
    const bool rhs_imm = same_block(p, p + 1) &&
                         code[p + 1].op == OpCode::kPushInt;
    if ((rhs_local || rhs_imm) && same_block(p, p + 3)) {
      const OpCode op2 = quick[p + 2].op;
      if (quick[p + 3].op == OpCode::kJumpIfZeroU &&
          cmp_jz_op(op2, rhs_imm) != OpCode::kNop) {
        return {cmp_jz_op(op2, rhs_imm), 4};
      }
      if (code[p + 3].op == OpCode::kStoreLocal && op2 == OpCode::kAddIntU) {
        return {rhs_imm ? OpCode::kAddStoreLIU : OpCode::kAddStoreLLU, 4};
      }
      if (code[p + 3].op == OpCode::kStoreLocal && op2 == OpCode::kSubIntU) {
        return {rhs_imm ? OpCode::kSubStoreLIU : OpCode::kSubStoreLLU, 4};
      }
      if (rhs_local && code[p + 2].op == OpCode::kPushInt &&
          quick[p + 3].op == OpCode::kArrayStoreU) {
        return {OpCode::kArrayStoreLLIU, 4};
      }
    }
    // `load ref; load idx; aload` -> one fused array read.
    if (rhs_local && same_block(p, p + 2)) {
      if (quick[p + 2].op == OpCode::kArrayLoadU) {
        return {OpCode::kArrayLoadLLU, 3};
      }
      if (quick[p + 2].op == OpCode::kArrayLoad) {
        return {OpCode::kArrayLoadLLC, 3};
      }
    }
    return {OpCode::kNop, 0};
  };
  std::size_t ip = 0;
  while (ip < quick.size()) {
    if (const auto [op, width] = long_window(ip); width != 0) {
      const bool packed = op == OpCode::kArrayLoadLLU || op == OpCode::kArrayLoadLLC;
      quick[ip] = Instr{op, packed ? pack_slots(code[ip].operand,
                                                code[ip + 1].operand)
                                   : code[ip].operand};
      ip += width;
      continue;
    }
    if (same_block(ip, ip + 1)) {
      // `push k; <unchecked binop>` -> immediate form.
      if (code[ip].op == OpCode::kPushInt || code[ip].op == OpCode::kPushFloat) {
        const OpCode fused = imm_fused_op(code[ip].op, quick[ip + 1].op);
        if (fused != OpCode::kNop) {
          quick[ip] = Instr{fused, code[ip].operand};
          ip += 2;
          continue;
        }
      }
      // `load x; load y` -> paired load, unless the second load starts a
      // longer window (which saves more).
      if (code[ip].op == OpCode::kLoadLocal &&
          code[ip + 1].op == OpCode::kLoadLocal &&
          long_window(ip + 1).second == 0) {
        quick[ip] = Instr{OpCode::kLoadLocal2,
                          pack_slots(code[ip].operand, code[ip + 1].operand)};
        ip += 2;
        continue;
      }
    }
    ++ip;
  }
}

Result<FunctionPlan> plan_function(const Program& program, const Function& fn,
                                   const VerifyLimits& limits) {
  TASKLETS_RETURN_IF_ERROR(verify_operands(program, fn));
  std::vector<int> depths;
  TASKLETS_RETURN_IF_ERROR(verify_stack(program, fn, limits, &depths));

  FunctionPlan plan;
  plan.quick = fn.code;
  plan.block_of.assign(fn.code.size(), kNoBlock);

  // Leaders: entry, branch targets, and successors of control transfers
  // (kCall ends a block because the machine leaves the frame).
  std::vector<bool> leader(fn.code.size(), false);
  leader[0] = true;
  for (std::size_t ip = 0; ip < fn.code.size(); ++ip) {
    switch (fn.code[ip].op) {
      case OpCode::kJump:
      case OpCode::kJumpIfZero:
      case OpCode::kJumpIfNotZero:
        leader[static_cast<std::size_t>(fn.code[ip].operand)] = true;
        [[fallthrough]];
      case OpCode::kCall:
      case OpCode::kReturn:
      case OpCode::kHalt:
        if (ip + 1 < fn.code.size()) leader[ip + 1] = true;
        break;
      default:
        break;
    }
  }

  // Blocks over reachable leaders. Reachability is uniform within a block:
  // mid-block instructions are reached only by fallthrough from their
  // leader (branches target leaders by construction).
  for (std::size_t begin = 0; begin < fn.code.size();) {
    std::size_t end = begin + 1;
    while (end < fn.code.size() && !leader[end]) ++end;
    if (depths[begin] >= 0) {
      BlockInfo info;
      info.begin = static_cast<std::uint32_t>(begin);
      info.end = static_cast<std::uint32_t>(end);
      const int entry_depth = depths[begin];
      int max_rel = 0;
      for (std::size_t ip = begin; ip < end; ++ip) {
        const Instr& instr = fn.code[ip];
        info.base_fuel += 1;
        if (instr.op == OpCode::kCall) info.base_fuel += 3;
        if (instr.op == OpCode::kIntrinsic) info.base_fuel += 4;
        if (instr.op == OpCode::kNewArray) info.variable_fuel = true;
        max_rel = std::max(max_rel, depths[ip] - entry_depth);
        plan.block_of[ip] = static_cast<std::uint32_t>(plan.blocks.size());
      }
      // Depth after the terminator also bounds the reserve the fast engine
      // needs (e.g. a trailing push).
      {
        int pops = 0, pushes = 0;
        TASKLETS_RETURN_IF_ERROR(
            stack_effect(program, fn, end - 1, pops, pushes));
        max_rel = std::max(max_rel,
                           depths[end - 1] - pops + pushes - entry_depth);
      }
      info.max_depth = static_cast<std::uint32_t>(max_rel);
      plan.blocks.push_back(info);
    }
    begin = end;
  }

  // Speculation: a pass that tags each parameter by its origin finds the tag
  // its checked consumers demand; when any is found, a second pass proves
  // the code under that assumption.
  std::vector<std::optional<AbsState>> states;
  std::vector<Tag> params;
  for (std::uint32_t i = 0; i < fn.arity; ++i) params.push_back(param_origin(i));
  infer_tags(program, fn, params, states);
  params = speculate_params(fn, states);
  if (std::any_of(params.begin(), params.end(),
                  [](Tag t) { return t != Tag::kTop; })) {
    infer_tags(program, fn, params, states);
  }
  for (const Tag t : params) plan.param_tags.push_back(slot_tag(t));
  for (const BlockInfo& block : plan.blocks) {
    const AbsState& in = *states[block.begin];
    auto& tags = plan.entry_tags.emplace_back();
    for (const Tag t : in.locals) tags.push_back(slot_tag(t));
    for (const Tag t : in.stack) tags.push_back(slot_tag(t));
  }

  // Quickening: rewrite ops whose consumed tags the dataflow proves, then
  // fuse windows.
  for (std::size_t ip = 0; ip < fn.code.size(); ++ip) {
    if (!states[ip].has_value()) continue;
    plan.quick[ip].op = quicken_op(fn.code[ip], *states[ip]);
  }
  fuse(fn, plan);
  return plan;
}

}  // namespace

Status verify(const Program& program, const VerifyLimits& limits) {
  if (program.function_count() == 0) {
    return make_error(StatusCode::kInvalidArgument, "program has no functions");
  }
  if (program.entry() >= program.function_count()) {
    return make_error(StatusCode::kOutOfRange, "entry index out of range");
  }
  for (const auto& fn : program.functions()) {
    if (fn.arity > fn.num_locals) {
      return make_error(StatusCode::kInvalidArgument,
                        "arity exceeds locals in '" + fn.name + "'");
    }
    TASKLETS_RETURN_IF_ERROR(verify_operands(program, fn));
    TASKLETS_RETURN_IF_ERROR(verify_stack(program, fn, limits));
  }
  return Status::ok();
}

Result<ExecPlan> analyze(const Program& program, const VerifyLimits& limits) {
  if (program.function_count() == 0) {
    return make_error(StatusCode::kInvalidArgument, "program has no functions");
  }
  if (program.entry() >= program.function_count()) {
    return make_error(StatusCode::kOutOfRange, "entry index out of range");
  }
  ExecPlan plan;
  plan.functions.reserve(program.function_count());
  for (const auto& fn : program.functions()) {
    if (fn.arity > fn.num_locals) {
      return make_error(StatusCode::kInvalidArgument,
                        "arity exceeds locals in '" + fn.name + "'");
    }
    TASKLETS_ASSIGN_OR_RETURN(auto fn_plan, plan_function(program, fn, limits));
    plan.functions.push_back(std::move(fn_plan));
  }
  return plan;
}

Result<std::vector<std::vector<int>>> stack_depth_map(const Program& program,
                                                      const VerifyLimits& limits) {
  if (program.function_count() == 0) {
    return make_error(StatusCode::kInvalidArgument, "program has no functions");
  }
  if (program.entry() >= program.function_count()) {
    return make_error(StatusCode::kOutOfRange, "entry index out of range");
  }
  std::vector<std::vector<int>> map;
  map.reserve(program.function_count());
  for (const auto& fn : program.functions()) {
    if (fn.arity > fn.num_locals) {
      return make_error(StatusCode::kInvalidArgument,
                        "arity exceeds locals in '" + fn.name + "'");
    }
    TASKLETS_RETURN_IF_ERROR(verify_operands(program, fn));
    std::vector<int> depths;
    TASKLETS_RETURN_IF_ERROR(verify_stack(program, fn, limits, &depths));
    map.push_back(std::move(depths));
  }
  return map;
}

}  // namespace tasklets::tvm

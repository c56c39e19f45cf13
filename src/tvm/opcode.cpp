#include "tvm/opcode.hpp"

#include <array>

namespace tasklets::tvm {

namespace {

constexpr std::array<OpInfo, kNumOpCodes> kOpTable = {{
    {"nop", false, 0, 0},
    {"push_i", true, 0, 1},
    {"push_f", true, 0, 1},
    {"pop", false, 1, 0},
    {"dup", false, 1, 2},
    {"swap", false, 2, 2},
    {"load", true, 0, 1},
    {"store", true, 1, 0},
    {"add_i", false, 2, 1},
    {"sub_i", false, 2, 1},
    {"mul_i", false, 2, 1},
    {"div_i", false, 2, 1},
    {"mod_i", false, 2, 1},
    {"neg_i", false, 1, 1},
    {"add_f", false, 2, 1},
    {"sub_f", false, 2, 1},
    {"mul_f", false, 2, 1},
    {"div_f", false, 2, 1},
    {"neg_f", false, 1, 1},
    {"band", false, 2, 1},
    {"bor", false, 2, 1},
    {"bxor", false, 2, 1},
    {"shl", false, 2, 1},
    {"shr", false, 2, 1},
    {"ceq_i", false, 2, 1},
    {"cne_i", false, 2, 1},
    {"clt_i", false, 2, 1},
    {"cle_i", false, 2, 1},
    {"cgt_i", false, 2, 1},
    {"cge_i", false, 2, 1},
    {"ceq_f", false, 2, 1},
    {"cne_f", false, 2, 1},
    {"clt_f", false, 2, 1},
    {"cle_f", false, 2, 1},
    {"cgt_f", false, 2, 1},
    {"cge_f", false, 2, 1},
    {"not", false, 1, 1},
    {"i2f", false, 1, 1},
    {"f2i", false, 1, 1},
    {"jmp", true, 0, 0},
    {"jz", true, 1, 0},
    {"jnz", true, 1, 0},
    {"call", true, -1, 1},
    {"ret", false, 1, 0},
    {"newarr", false, 1, 1},
    {"aload", false, 2, 1},
    {"astore", false, 3, 0},
    {"alen", false, 1, 1},
    {"intrin", true, -1, 1},
    {"halt", false, 1, 0},
}};

constexpr std::array<IntrinsicInfo, kNumIntrinsics> kIntrinsicTable = {{
    {"sqrt", 1, true},
    {"sin", 1, true},
    {"cos", 1, true},
    {"tan", 1, true},
    {"exp", 1, true},
    {"log", 1, true},
    {"floor", 1, true},
    {"ceil", 1, true},
    {"round", 1, true},
    {"fabs", 1, true},
    {"pow", 2, true},
    {"atan2", 2, true},
    {"iabs", 1, false},
    {"imin", 2, false},
    {"imax", 2, false},
    {"fmin", 2, true},
    {"fmax", 2, true},
}};

constexpr std::array<std::string_view,
                     kNumVmOps - kNumOpCodes> kQuickNames = {{
#define TASKLETS_OP_NAME(name) #name,
    TASKLETS_QUICKENED_OPS(TASKLETS_OP_NAME)
#undef TASKLETS_OP_NAME
}};

// TASKLETS_BASE_OPS must mirror the OpCode enum value-for-value: the fast
// engine indexes its dispatch table with the raw opcode byte.
constexpr std::array kBaseOpOrder = {
#define TASKLETS_OP_VALUE(name) OpCode::name,
    TASKLETS_BASE_OPS(TASKLETS_OP_VALUE)
#undef TASKLETS_OP_VALUE
};
static_assert(kBaseOpOrder.size() == kNumOpCodes,
              "TASKLETS_BASE_OPS is missing opcodes");
constexpr bool base_ops_in_enum_order() {
  for (std::size_t i = 0; i < kBaseOpOrder.size(); ++i) {
    if (kBaseOpOrder[i] != static_cast<OpCode>(i)) return false;
  }
  return true;
}
static_assert(base_ops_in_enum_order(),
              "TASKLETS_BASE_OPS is out of order w.r.t. the OpCode enum");
static_assert(static_cast<std::uint8_t>(OpCode::kAddIntU) == kNumOpCodes,
              "quickened opcodes must start right after kHalt");

}  // namespace

std::string_view vm_op_name(OpCode op) noexcept {
  const auto idx = static_cast<std::size_t>(op);
  if (idx < kNumOpCodes) return kOpTable[idx].name;
  if (idx < kNumVmOps) return kQuickNames[idx - kNumOpCodes];
  return "?";
}

std::size_t vm_op_slots(OpCode op) noexcept {
  // Fused families are contiguous in TASKLETS_QUICKENED_OPS.
  auto in = [op](OpCode first, OpCode last) { return op >= first && op <= last; };
  if (in(OpCode::kAddIntImmU, OpCode::kLoadLocal2)) return 2;
  if (in(OpCode::kArrayLoadLLU, OpCode::kArrayLoadLLC)) return 3;
  if (in(OpCode::kCmpEqJzLLU, OpCode::kArrayStoreLLIU)) return 4;
  return 1;
}

const OpInfo& op_info(OpCode op) noexcept {
  return kOpTable[static_cast<std::size_t>(op)];
}

std::optional<OpCode> opcode_by_name(std::string_view mnemonic) noexcept {
  for (std::size_t i = 0; i < kOpTable.size(); ++i) {
    if (kOpTable[i].name == mnemonic) return static_cast<OpCode>(i);
  }
  return std::nullopt;
}

const IntrinsicInfo& intrinsic_info(Intrinsic id) noexcept {
  return kIntrinsicTable[static_cast<std::size_t>(id)];
}

std::optional<Intrinsic> intrinsic_by_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kIntrinsicTable.size(); ++i) {
    if (kIntrinsicTable[i].name == name) return static_cast<Intrinsic>(i);
  }
  return std::nullopt;
}

}  // namespace tasklets::tvm

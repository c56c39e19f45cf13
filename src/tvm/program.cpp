#include "tvm/program.hpp"

namespace tasklets::tvm {

namespace {
constexpr std::uint32_t kMagic = 0x54564D31;  // "TVM1"
constexpr std::uint16_t kVersion = 1;
// Container-level sanity bounds; semantic limits live in the Verifier.
constexpr std::uint64_t kMaxFunctions = 4096;
constexpr std::uint64_t kMaxCodeLen = 1u << 20;
constexpr std::uint64_t kMaxLocals = 1u << 16;
}  // namespace

std::uint32_t Program::add_function(Function fn) {
  functions_.push_back(std::move(fn));
  return static_cast<std::uint32_t>(functions_.size() - 1);
}

Result<std::uint32_t> Program::find_function(std::string_view name) const {
  for (std::uint32_t i = 0; i < functions_.size(); ++i) {
    if (functions_[i].name == name) return i;
  }
  return make_error(StatusCode::kNotFound,
                    "no function named '" + std::string(name) + "'");
}

std::size_t Program::instruction_count() const noexcept {
  std::size_t n = 0;
  for (const auto& fn : functions_) n += fn.code.size();
  return n;
}

Bytes Program::serialize() const {
  ByteWriter w;
  w.write_u32(kMagic);
  w.write_u16(kVersion);
  w.write_varint(entry_);
  w.write_varint(functions_.size());
  for (const auto& fn : functions_) {
    w.write_string(fn.name);
    w.write_varint(fn.arity);
    w.write_varint(fn.num_locals);
    w.write_varint(fn.code.size());
    for (const auto& instr : fn.code) {
      w.write_u8(static_cast<std::uint8_t>(instr.op));
      if (op_info(instr.op).has_operand) {
        w.write_varint_signed(instr.operand);
      }
    }
  }
  return std::move(w).take();
}

Result<Program> Program::deserialize(std::span<const std::byte> data) {
  ByteReader r(data);
  TASKLETS_ASSIGN_OR_RETURN(auto magic, r.read_u32());
  if (magic != kMagic) {
    return make_error(StatusCode::kDataLoss, "bad bytecode magic");
  }
  TASKLETS_ASSIGN_OR_RETURN(auto version, r.read_u16());
  if (version != kVersion) {
    return make_error(StatusCode::kDataLoss, "unsupported bytecode version");
  }
  Program program;
  TASKLETS_ASSIGN_OR_RETURN(auto entry, r.read_varint());
  TASKLETS_ASSIGN_OR_RETURN(auto num_functions, r.read_varint());
  if (num_functions > kMaxFunctions) {
    return make_error(StatusCode::kDataLoss, "function count exceeds limit");
  }
  for (std::uint64_t f = 0; f < num_functions; ++f) {
    Function fn;
    TASKLETS_ASSIGN_OR_RETURN(fn.name, r.read_string());
    TASKLETS_ASSIGN_OR_RETURN(auto arity, r.read_varint());
    TASKLETS_ASSIGN_OR_RETURN(auto num_locals, r.read_varint());
    if (num_locals > kMaxLocals || arity > num_locals) {
      return make_error(StatusCode::kDataLoss, "invalid locals layout");
    }
    fn.arity = static_cast<std::uint32_t>(arity);
    fn.num_locals = static_cast<std::uint32_t>(num_locals);
    TASKLETS_ASSIGN_OR_RETURN(auto code_len, r.read_varint());
    if (code_len > kMaxCodeLen) {
      return make_error(StatusCode::kDataLoss, "code length exceeds limit");
    }
    fn.code.reserve(code_len);
    for (std::uint64_t i = 0; i < code_len; ++i) {
      TASKLETS_ASSIGN_OR_RETURN(auto op_byte, r.read_u8());
      if (op_byte >= kNumOpCodes) {
        return make_error(StatusCode::kDataLoss, "unknown opcode");
      }
      Instr instr;
      instr.op = static_cast<OpCode>(op_byte);
      if (op_info(instr.op).has_operand) {
        TASKLETS_ASSIGN_OR_RETURN(instr.operand, r.read_varint_signed());
      }
      fn.code.push_back(instr);
    }
    program.add_function(std::move(fn));
  }
  if (entry >= num_functions) {
    return make_error(StatusCode::kDataLoss, "entry index out of range");
  }
  program.set_entry(static_cast<std::uint32_t>(entry));
  if (!r.exhausted()) {
    return make_error(StatusCode::kDataLoss, "trailing bytes after program");
  }
  return program;
}

bool ExecPlan::compatible_with(const Program& program) const noexcept {
  if (functions.size() != program.function_count()) return false;
  for (std::size_t i = 0; i < functions.size(); ++i) {
    const Function& fn = program.functions()[i];
    const std::size_t code_len = fn.code.size();
    if (functions[i].quick.size() != code_len ||
        functions[i].block_of.size() != code_len ||
        functions[i].param_tags.size() != fn.arity ||
        functions[i].entry_tags.size() != functions[i].blocks.size()) {
      return false;
    }
  }
  return true;
}

std::uint64_t Program::content_hash() const {
  const Bytes encoded = serialize();
  return fnv1a(std::span<const std::byte>(encoded.data(), encoded.size()));
}

}  // namespace tasklets::tvm

// The portable bytecode container. A Program is the unit shipped from a
// consumer to a provider; it is fully self-contained (no external linkage)
// and has a stable binary encoding ("TVM1") so heterogeneous nodes agree on
// its meaning — this is the artifact that overcomes architecture and OS
// heterogeneity in the Tasklet system.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "tvm/opcode.hpp"

namespace tasklets::tvm {

struct Instr {
  OpCode op = OpCode::kNop;
  std::int64_t operand = 0;

  friend bool operator==(const Instr&, const Instr&) = default;
};

struct Function {
  std::string name;
  std::uint32_t arity = 0;       // parameters occupy locals [0, arity)
  std::uint32_t num_locals = 0;  // total local slots, including parameters
  std::vector<Instr> code;

  friend bool operator==(const Function&, const Function&) = default;
};

class Program {
 public:
  Program() = default;

  // Adds a function, returning its index (used as the kCall operand).
  std::uint32_t add_function(Function fn);

  [[nodiscard]] const std::vector<Function>& functions() const noexcept {
    return functions_;
  }
  [[nodiscard]] const Function& function(std::uint32_t idx) const {
    return functions_.at(idx);
  }
  [[nodiscard]] std::size_t function_count() const noexcept {
    return functions_.size();
  }

  [[nodiscard]] Result<std::uint32_t> find_function(std::string_view name) const;

  void set_entry(std::uint32_t idx) noexcept { entry_ = idx; }
  [[nodiscard]] std::uint32_t entry() const noexcept { return entry_; }

  // Total instruction count across functions; a cheap size proxy used in
  // transfer-cost models.
  [[nodiscard]] std::size_t instruction_count() const noexcept;

  // Stable binary encoding. serialize() always succeeds; deserialize()
  // validates the container structure (magic, version, counts, opcode range)
  // but not semantic well-formedness — run the Verifier for that.
  [[nodiscard]] Bytes serialize() const;
  [[nodiscard]] static Result<Program> deserialize(std::span<const std::byte> data);

  // Content hash over the serialized form: used as a cache key so providers
  // can skip re-verification of programs they have already seen.
  [[nodiscard]] std::uint64_t content_hash() const;

  friend bool operator==(const Program&, const Program&) = default;

 private:
  std::vector<Function> functions_;
  std::uint32_t entry_ = 0;
};

// --- Fast-path execution metadata --------------------------------------------
//
// Derived, host-local facts about a verified program, produced by
// verifier.hpp::analyze() and consumed by the interpreter's fast-path
// engine (interpreter.hpp). A plan never travels on the wire and does not
// participate in Program equality or content hashing: it is a cache of what
// the verifier proved, not part of the program's meaning.

// Static facts about one basic block.
struct BlockInfo {
  std::uint32_t begin = 0;  // first instruction (a leader)
  std::uint32_t end = 0;    // one past the terminator
  // Fuel charged by a full run of the block: 1 per instruction plus the
  // kCall (+3) and kIntrinsic (+4) surcharges. Excludes kNewArray's
  // data-dependent surcharge; see variable_fuel.
  std::uint64_t base_fuel = 0;
  // Worst-case operand-stack depth reached at any instruction boundary in
  // the block, relative to the depth at block entry. Lets the fast path
  // hoist the per-instruction stack-limit check to block entry.
  std::uint32_t max_depth = 0;
  // Block contains kNewArray, whose surcharge depends on the popped length:
  // fuel cannot be bounded statically, so the fast path runs the block
  // through the checked stepper.
  bool variable_fuel = false;
};

inline constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

// A value tag the analysis proved (or speculated) for a slot. The first three
// mirror ValueTag (value.hpp) value for value; kAny means nothing is known.
enum class SlotTag : std::uint8_t { kInt = 0, kFloat = 1, kArray = 2, kAny = 3 };

struct FunctionPlan {
  // Quickened copy of Function::code, index-aligned with the original so
  // ips, jump targets, trap sites and snapshots agree between engines.
  // Fused instructions occupy their window's first slot; the remaining
  // slots keep their original content (fused handlers read their extra
  // operands from there) but are skipped by the fast engine.
  std::vector<Instr> quick;
  std::vector<BlockInfo> blocks;
  // Instruction ip -> index into `blocks` (kNoBlock for unreachable code).
  std::vector<std::uint32_t> block_of;
  // Tag speculated per parameter from the checked instructions consuming
  // it (kAny: none or conflicting). `quick` is proven under this
  // assumption, so only a frame whose arguments match may run it.
  std::vector<SlotTag> param_tags;
  // Proven tags at each block's entry, index-aligned with `blocks`: every
  // local slot, then the function's operand stack bottom first. A frame
  // restored from a snapshot must match them at a block entry before it
  // runs quickened code.
  std::vector<std::vector<SlotTag>> entry_tags;
};

// Per-function plans, index-aligned with Program::functions().
struct ExecPlan {
  std::vector<FunctionPlan> functions;

  // Structural sanity check that this plan was built from `program` (shape
  // only — function and code sizes; it does not re-run the analysis).
  [[nodiscard]] bool compatible_with(const Program& program) const noexcept;
};

}  // namespace tasklets::tvm

// The TVM interpreter.
//
// Executes a verified Program against marshalled host arguments, with hard
// resource limits (fuel, operand stack, call depth, heap cells) so a
// provider can run untrusted tasklets without being wedged or exhausted.
//
// Determinism contract: for a given (program, args, limits), the result and
// the fuel consumed are identical on every conforming host. Fuel therefore
// doubles as the device-independent work measure the simulator converts to
// virtual service time via a device's speed factor.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "tvm/marshal.hpp"
#include "tvm/opcode.hpp"
#include "tvm/program.hpp"

namespace tasklets::tvm {

struct ExecLimits {
  std::uint64_t max_fuel = 500'000'000;
  std::uint32_t max_operand_stack = 1u << 16;  // values
  std::uint32_t max_call_depth = 512;
  std::uint64_t max_heap_cells = 1u << 24;  // values across all arrays
};

struct ExecOutcome {
  HostArg result;
  std::uint64_t fuel_used = 0;
  // Instructions retired. Unlike fuel this is plain per-run accounting: it
  // is NOT persisted in migration snapshots and restarts from 0 on resume.
  std::uint64_t instructions = 0;
  std::uint32_t peak_call_depth = 0;
};

// Optional per-opcode execution profile. Pass a pointer to execute()/
// execute_slice()/resume_slice() to turn profiling on; it adds a
// steady_clock read per instruction, so keep it off in benchmarks.
struct ExecProfile {
  struct OpEntry {
    std::uint64_t count = 0;
    std::uint64_t nanos = 0;
  };
  std::array<OpEntry, kNumOpCodes> ops{};
  std::uint64_t instructions = 0;

  void merge(const ExecProfile& other) noexcept;
  // Table of opcodes hit, sorted by total time, with count/total/avg columns.
  [[nodiscard]] std::string to_string() const;
  // Same data machine-readable, heaviest opcode first:
  // {"instructions":N,"ops":[{"op":...,"count":N,"total_ns":N,"avg_ns":X}]}
  [[nodiscard]] std::string to_json() const;
};

// --- Execution engines --------------------------------------------------------
//
// Two engines run the same bytecode:
//
//   kReference — the one-instruction-at-a-time checked stepper. It is the
//     executable specification: every dynamic check (fuel, operand-stack
//     limit, value tags) runs before every instruction.
//   kFast — a basic-block engine driven by a verifier ExecPlan
//     (verifier.hpp::analyze). Fuel and stack-limit checks are hoisted to
//     block entry using the plan's proven worst-case block facts, and
//     instructions whose operand tags the verifier proved are executed in
//     quickened/fused form. A retired block chains straight into the next
//     block of its frame when that block passes the same entry checks.
//     Blocks the plan cannot bound (data-dependent fuel, possible mid-block
//     fuel/stack trap or slice-target crossing, mid-block resume points)
//     drain through the reference stepper.
//
// The frame rule. The plan's tags are proven from a speculated tag per
// parameter, so a frame runs quickened code only once its state has matched
// them: its arguments on function entry, or, for a frame restored from a
// snapshot, its locals and operand stack at the first block entry it
// reaches. Any other frame runs on the reference stepper until it returns.
//
// Observable behavior is bit-identical between engines: results,
// `fuel_used`, `instructions`, trap codes/messages/sites, suspension points
// and snapshot bytes. This is a hard invariant — fuel doubles as the
// device-independent work measure (store memoization keys and the
// simulator's virtual service times depend on it), so the fast engine is
// never allowed to drift, only to reach the same numbers faster.
enum class Engine : std::uint8_t {
  kFast,
  kReference,
};

struct ExecOptions {
  // Per-opcode timing (see ExecProfile); non-null forces kReference.
  ExecProfile* profile = nullptr;
  // Cached analyze() result for this program, so repeat executions skip the
  // analysis. Null = analyze on entry (falling back to kReference if the
  // program does not verify). An incompatible plan is ignored.
  const ExecPlan* plan = nullptr;
  Engine engine = Engine::kFast;
};

// Runs the program's entry function. The caller is responsible for having
// verified the program (see verifier.hpp); the interpreter still performs
// dynamic type/bounds checks and traps cleanly, but relies on the verifier
// for operand-range and stack-shape safety.
//
// Trap taxonomy (Status codes):
//   kDeadlineExceeded   — fuel exhausted
//   kResourceExhausted  — operand stack / call depth / heap limit
//   kAborted            — deterministic runtime trap (type confusion,
//                         division by zero, array bounds, bad f2i)
//   kInvalidArgument    — argument count mismatch with entry arity
[[nodiscard]] Result<ExecOutcome> execute(const Program& program,
                                          const std::vector<HostArg>& args,
                                          const ExecLimits& limits = {},
                                          ExecProfile* profile = nullptr);

[[nodiscard]] Result<ExecOutcome> execute(const Program& program,
                                          const std::vector<HostArg>& args,
                                          const ExecLimits& limits,
                                          const ExecOptions& options);

// Convenience: verify + execute.
[[nodiscard]] Result<ExecOutcome> verify_and_execute(
    const Program& program, const std::vector<HostArg>& args,
    const ExecLimits& limits = {}, ExecProfile* profile = nullptr);

// --- Resumable execution: the tasklet-migration substrate ---------------------
//
// A running tasklet can be suspended at any instruction boundary into a
// Suspension: a self-contained, serializable machine state (operand stack,
// locals, call frames, heap, fuel) bound to its program by content hash.
// Ship the bytes to another device and resume there — execution continues
// bit-exactly where it stopped, which is what device-to-device tasklet
// migration needs.
//
// Restore validates untrusted snapshot bytes before the interpreter touches
// them: structural decoding, program-hash binding, call-chain consistency
// (every suspended caller sits right after a kCall to the next frame's
// function), operand-stack depth proven against the verifier's
// per-instruction depth map, array-handle range checks and resource limits.
// A snapshot failing these is rejected with kDataLoss/kInvalidArgument.
// Value tags are not checked at restore: a snapshot whose tags are forged
// but well-formed is accepted, and the frame rule above keeps each restored
// frame on the checked reference stepper unless its state matches the
// plan's proven tags at a block entry. Such a snapshot therefore traps (or
// completes) exactly as under kReference.

struct Suspension {
  Bytes state;                  // opaque "TSNP" encoding of the machine
  std::uint64_t fuel_used = 0;  // fuel consumed so far (scheduling input)
  // Instructions retired so far. In-memory only — not part of `state`, so
  // it survives same-host slicing but resets to 0 across a migration.
  std::uint64_t instructions = 0;
};

using SliceOutcome = std::variant<ExecOutcome, Suspension>;

// Runs until completion or until ~`fuel_slice` additional fuel is consumed
// (0 = unbounded, equivalent to execute()). The fuel ceiling in `limits`
// still applies across all slices.
[[nodiscard]] Result<SliceOutcome> execute_slice(const Program& program,
                                                 const std::vector<HostArg>& args,
                                                 const ExecLimits& limits,
                                                 std::uint64_t fuel_slice,
                                                 ExecProfile* profile = nullptr);

[[nodiscard]] Result<SliceOutcome> execute_slice(const Program& program,
                                                 const std::vector<HostArg>& args,
                                                 const ExecLimits& limits,
                                                 std::uint64_t fuel_slice,
                                                 const ExecOptions& options);

// Continues a suspended execution, on any host holding the same program.
// Snapshots are engine-agnostic: a suspension taken under one engine resumes
// under the other (both engines suspend only at instruction boundaries with
// fully reconciled state).
[[nodiscard]] Result<SliceOutcome> resume_slice(const Program& program,
                                                const Suspension& suspension,
                                                const ExecLimits& limits,
                                                std::uint64_t fuel_slice,
                                                ExecProfile* profile = nullptr);

[[nodiscard]] Result<SliceOutcome> resume_slice(const Program& program,
                                                const Suspension& suspension,
                                                const ExecLimits& limits,
                                                std::uint64_t fuel_slice,
                                                const ExecOptions& options);

// Reads the fuel-consumed-so-far field out of snapshot bytes without
// restoring the machine (schedulers use it to charge only remaining work).
[[nodiscard]] Result<std::uint64_t> snapshot_fuel(std::span<const std::byte> state);

}  // namespace tasklets::tvm

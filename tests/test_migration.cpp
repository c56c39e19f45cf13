// Tests for resumable execution — the tasklet-migration substrate:
// slice/suspend/resume equivalence, cross-"host" transfer of snapshots,
// rigorous rejection of forged snapshot bytes, and limits across slices.
#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "core/kernels.hpp"
#include "proto/messages.hpp"
#include "tcl/compiler.hpp"
#include "tvm/assembler.hpp"
#include "tvm/interpreter.hpp"

namespace tasklets::tvm {
namespace {

Program compiled(std::string_view source) {
  auto program = tcl::compile(source);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return std::move(program).value();
}

// Runs to completion via repeated suspend/resume with the given slice and
// returns (outcome, number of suspensions).
std::pair<ExecOutcome, int> run_sliced(const Program& program,
                                       const std::vector<HostArg>& args,
                                       std::uint64_t slice,
                                       const ExecLimits& limits = {}) {
  auto result = execute_slice(program, args, limits, slice);
  int suspensions = 0;
  for (;;) {
    EXPECT_TRUE(result.is_ok()) << result.status().to_string();
    if (!result.is_ok()) return {ExecOutcome{}, suspensions};
    if (auto* outcome = std::get_if<ExecOutcome>(&*result)) {
      return {std::move(*outcome), suspensions};
    }
    ++suspensions;
    const auto& suspension = std::get<Suspension>(*result);
    EXPECT_GT(suspension.state.size(), 0u);
    result = resume_slice(program, suspension, limits, slice);
  }
}

TEST(MigrationTest, SlicedExecutionMatchesOneShot) {
  const Program program = compiled(core::kernels::kFib);
  const std::vector<HostArg> args = {std::int64_t{18}};
  const auto oneshot = execute(program, args);
  ASSERT_TRUE(oneshot.is_ok());

  for (const std::uint64_t slice : {500, 5'000, 50'000}) {
    const auto [outcome, suspensions] = run_sliced(program, args, slice);
    EXPECT_TRUE(args_equal(outcome.result, oneshot->result)) << "slice " << slice;
    EXPECT_EQ(outcome.fuel_used, oneshot->fuel_used) << "slice " << slice;
    if (slice < oneshot->fuel_used) {
      EXPECT_GT(suspensions, 0) << "slice " << slice;
    }
  }
}

TEST(MigrationTest, ZeroSliceRunsToCompletion) {
  const Program program = compiled(core::kernels::kFib);
  auto result = execute_slice(program, {std::int64_t{12}}, {}, 0);
  ASSERT_TRUE(result.is_ok());
  ASSERT_TRUE(std::holds_alternative<ExecOutcome>(*result));
  EXPECT_EQ(std::get<std::int64_t>(std::get<ExecOutcome>(*result).result), 144);
}

TEST(MigrationTest, ArraysAndHeapSurviveSuspension) {
  const Program program = compiled(core::kernels::kSieve);
  const std::vector<HostArg> args = {std::int64_t{5000}};
  const auto oneshot = execute(program, args);
  ASSERT_TRUE(oneshot.is_ok());
  const auto [outcome, suspensions] = run_sliced(program, args, 10'000);
  EXPECT_GT(suspensions, 0);
  EXPECT_TRUE(args_equal(outcome.result, oneshot->result));
}

TEST(MigrationTest, SnapshotTransfersAcrossProgramInstances) {
  // "Device A" suspends; the snapshot plus the program's wire bytes travel
  // to "device B", which deserializes its own Program object and resumes.
  const Program device_a_program = compiled(core::kernels::kMandelbrotRow);
  const std::vector<HostArg> args = {std::int64_t{64}, std::int64_t{5},
                                     std::int64_t{16}, -2.0, 1.0, -1.2, 1.2,
                                     std::int64_t{64}};
  auto first = execute_slice(device_a_program, args, {}, 20'000);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(std::holds_alternative<Suspension>(*first));
  const auto& suspension = std::get<Suspension>(*first);

  const Bytes program_wire = device_a_program.serialize();
  auto device_b_program = Program::deserialize(program_wire);
  ASSERT_TRUE(device_b_program.is_ok());

  auto resumed = resume_slice(*device_b_program, suspension, {}, 0);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  ASSERT_TRUE(std::holds_alternative<ExecOutcome>(*resumed));

  const auto oneshot = execute(device_a_program, args);
  ASSERT_TRUE(oneshot.is_ok());
  EXPECT_TRUE(args_equal(std::get<ExecOutcome>(*resumed).result,
                         oneshot->result));
  EXPECT_EQ(std::get<ExecOutcome>(*resumed).fuel_used, oneshot->fuel_used);
}

TEST(MigrationTest, SnapshotBytesAreDeterministic) {
  const Program program = compiled(core::kernels::kSpin);
  const std::vector<HostArg> args = {std::int64_t{100'000}};
  auto a = execute_slice(program, args, {}, 12'345);
  auto b = execute_slice(program, args, {}, 12'345);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  ASSERT_TRUE(std::holds_alternative<Suspension>(*a));
  ASSERT_TRUE(std::holds_alternative<Suspension>(*b));
  EXPECT_EQ(std::get<Suspension>(*a).state, std::get<Suspension>(*b).state);
  EXPECT_EQ(std::get<Suspension>(*a).fuel_used,
            std::get<Suspension>(*b).fuel_used);
}

TEST(MigrationTest, WrongProgramRejected) {
  const Program program = compiled(core::kernels::kFib);
  const Program other = compiled(core::kernels::kSieve);
  auto suspended = execute_slice(program, {std::int64_t{20}}, {}, 1'000);
  ASSERT_TRUE(suspended.is_ok());
  const auto& suspension = std::get<Suspension>(*suspended);
  const auto resumed = resume_slice(other, suspension, {}, 0);
  ASSERT_FALSE(resumed.is_ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MigrationTest, BadMagicRejected) {
  const Program program = compiled(core::kernels::kFib);
  Suspension forged;
  forged.state = {std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4}};
  EXPECT_FALSE(resume_slice(program, forged, {}, 0).is_ok());
}

TEST(MigrationTest, FuelCeilingAppliesAcrossSlices) {
  const Program program = compiled(core::kernels::kFib);
  ExecLimits limits;
  limits.max_fuel = 5'000;  // fib(20) needs far more
  auto result = execute_slice(program, {std::int64_t{20}}, limits, 2'000);
  int rounds = 0;
  while (result.is_ok() && std::holds_alternative<Suspension>(*result) &&
         rounds < 10) {
    result = resume_slice(program, std::get<Suspension>(*result), limits, 2'000);
    ++rounds;
  }
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(MigrationTest, TrapAfterResumeIsReported) {
  // Spin for a while, then divide by zero: the trap happens after several
  // suspensions.
  const Program program = compiled(R"(
    int main(int n) {
      int acc = 0;
      for (int i = 0; i < n; i += 1) { acc += i; }
      return acc / (acc - acc);
    }
  )");
  auto result = execute_slice(program, {std::int64_t{5'000}}, {}, 3'000);
  int suspensions = 0;
  while (result.is_ok() && std::holds_alternative<Suspension>(*result)) {
    ++suspensions;
    result = resume_slice(program, std::get<Suspension>(*result), {}, 3'000);
  }
  EXPECT_GT(suspensions, 0);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_NE(result.status().message().find("division by zero"), std::string::npos);
}

TEST(MigrationTest, SnapshotFuelPeeksWithoutRestore) {
  const Program program = compiled(core::kernels::kSpin);
  auto suspended = execute_slice(program, {std::int64_t{100'000}}, {}, 7'000);
  ASSERT_TRUE(suspended.is_ok());
  const auto& suspension = std::get<Suspension>(*suspended);
  const auto fuel = snapshot_fuel(std::span<const std::byte>(
      suspension.state.data(), suspension.state.size()));
  ASSERT_TRUE(fuel.is_ok());
  EXPECT_EQ(*fuel, suspension.fuel_used);
  EXPECT_GE(*fuel, 7'000u);  // at least the slice target
}

TEST(MigrationTest, SnapshotFuelRejectsGarbage) {
  const Bytes garbage = {std::byte{9}, std::byte{9}, std::byte{9}};
  EXPECT_FALSE(snapshot_fuel(std::span<const std::byte>(garbage.data(),
                                                        garbage.size()))
                   .is_ok());
}

// Byte offset of local slot `slot` in TSNP snapshot bytes: past the header
// (magic, version, program hash, fuel, peak depth) and the operand stack.
std::size_t local_offset(const Bytes& state, std::size_t slot) {
  ByteReader r(std::span<const std::byte>(state.data(), state.size()));
  auto skip_value = [&r] {
    switch (r.read_u8().value()) {
      case 0: (void)r.read_varint_signed().value(); break;  // int
      case 1: (void)r.read_f64().value(); break;            // float
      default: (void)r.read_u32().value(); break;           // array handle
    }
  };
  (void)r.read_u32().value();
  (void)r.read_u16().value();
  (void)r.read_u64().value();
  (void)r.read_varint().value();
  (void)r.read_varint().value();
  const std::uint64_t stack_size = r.read_varint().value();
  for (std::uint64_t i = 0; i < stack_size; ++i) skip_value();
  (void)r.read_varint().value();  // locals count
  for (std::size_t i = 0; i < slot; ++i) skip_value();
  return state.size() - r.remaining();
}

// Restore checks a snapshot's structure, handles, call chain and depths but
// not its value tags. Here the array local of a suspended `aload` loop is
// re-encoded as an int whose low bits are a far-out-of-range heap handle.
// The loop's aload is quickened (its ref is proven an array), so only the
// frame rule keeps the forged int away from the unchecked array read: both
// engines must report the reference stepper's clean type trap.
TEST(MigrationTest, ForgedValueTagTrapsLikeReferenceInBothEngines) {
  auto assembled = assemble(R"(
    .func main arity=0 locals=3
      push_i 8
      newarr
      store 0
    loop:
      load 0
      load 1
      push_i 7
      band
      aload
      load 2
      add_i
      store 2
      load 1
      push_i 1
      add_i
      store 1
      load 1
      push_i 1000
      clt_i
      jnz loop
      load 2
      halt
    .end
    .entry main
  )");
  ASSERT_TRUE(assembled.is_ok()) << assembled.status().to_string();
  const Program program = std::move(assembled).value();
  for (const std::uint64_t slice : {40, 45, 64}) {
    auto suspended = execute_slice(program, {}, {}, slice);
    ASSERT_TRUE(suspended.is_ok());
    const auto& suspension = std::get<Suspension>(*suspended);

    const std::size_t at = local_offset(suspension.state, 0);
    ASSERT_EQ(suspension.state[at], std::byte{2}) << "local 0 is not an array";
    ByteWriter forged_value;
    forged_value.write_u8(0);  // int
    forged_value.write_varint_signed(0x7ffffff0);
    const Bytes value = std::move(forged_value).take();
    Bytes forged(suspension.state.begin(), suspension.state.begin() + at);
    forged.insert(forged.end(), value.begin(), value.end());
    forged.insert(forged.end(), suspension.state.begin() + at + 5,  // tag + u32
                  suspension.state.end());

    std::vector<std::string> traps;
    for (const Engine engine : {Engine::kFast, Engine::kReference}) {
      ExecOptions options;
      options.engine = engine;
      auto resumed = resume_slice(
          program, Suspension{forged, suspension.fuel_used}, {}, 0, options);
      ASSERT_FALSE(resumed.is_ok()) << "slice " << slice;
      EXPECT_EQ(resumed.status().code(), StatusCode::kAborted);
      traps.push_back(resumed.status().to_string());
    }
    EXPECT_EQ(traps[0], traps[1]) << "slice " << slice;
    EXPECT_NE(traps[1].find("expected array, got int in 'main' at instruction 7"),
              std::string::npos)
        << traps[1];
  }
}

// Property: arbitrary corruption of snapshot bytes must never reach an
// unsafe interpreter state — every mutated snapshot is either rejected or
// resumes to a clean result/trap.
class SnapshotFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotFuzzSweep, MutatedSnapshotsNeverMisbehave) {
  Rng rng(GetParam());
  const Program program = compiled(core::kernels::kSieve);
  auto suspended = execute_slice(program, {std::int64_t{2000}}, {}, 5'000);
  ASSERT_TRUE(suspended.is_ok());
  const Bytes pristine = std::get<Suspension>(*suspended).state;

  ExecLimits limits;
  limits.max_fuel = 500'000;
  int accepted = 0;
  for (int round = 0; round < 1'000; ++round) {
    Suspension mutated;
    mutated.state = pristine;
    const int flips = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < flips; ++f) {
      mutated.state[rng.next_below(mutated.state.size())] ^=
          static_cast<std::byte>(1 + rng.next_below(255));
    }
    auto resumed = resume_slice(program, mutated, limits, 0);
    if (!resumed.is_ok()) continue;  // rejected or clean trap: both fine
    ++accepted;
    // Accepted mutations (e.g. flipped data values) must still produce a
    // well-formed outcome.
    ASSERT_TRUE(std::holds_alternative<ExecOutcome>(*resumed));
  }
  // Data-only flips (heap/stack payload bytes) are legitimately accepted.
  EXPECT_LT(accepted, 1'000);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SnapshotFuzzSweep, ::testing::Values(51, 52, 53));

// --- snapshots crossing a faulty link ----------------------------------------------
//
// In the real system a snapshot travels inside an AttemptResult(kSuspended)
// frame from the draining provider to the broker, then inside an
// AssignTasklet.resume_snapshot to the next provider — over links the fault
// layer can duplicate, delay or corrupt. These tests put snapshot bytes
// through that wire path under each fault.

// Wraps a suspension the way the provider ships it and round-trips the
// encoded frame, returning the snapshot as the broker would store it.
Bytes through_wire(const Suspension& suspension) {
  proto::AttemptResult result;
  result.attempt = AttemptId{1};
  result.tasklet = TaskletId{1};
  result.outcome.status = proto::AttemptStatus::kSuspended;
  result.outcome.fuel_used = suspension.fuel_used;
  result.outcome.snapshot = suspension.state;
  const Bytes frame =
      proto::encode(proto::Envelope{NodeId{2}, NodeId{1}, std::move(result)});
  auto decoded = proto::decode(frame);
  EXPECT_TRUE(decoded.is_ok());
  return std::get<proto::AttemptResult>(decoded->payload).outcome.snapshot;
}

TEST(MigrationFaultTest, DuplicatedSnapshotFrameResumesIdentically) {
  const Program program = compiled(core::kernels::kSpin);
  auto suspended = execute_slice(program, {std::int64_t{50'000}}, {}, 20'000);
  ASSERT_TRUE(suspended.is_ok());
  const auto& suspension = std::get<Suspension>(*suspended);

  // The link duplicated the frame: the broker (and hence the next provider)
  // may see the same snapshot twice. Resuming each copy must give the same
  // outcome as resuming the original — snapshot restore has no side effects
  // on the bytes, so redelivery is idempotent.
  const Bytes first_copy = through_wire(suspension);
  const Bytes second_copy = through_wire(suspension);
  EXPECT_EQ(first_copy, second_copy);

  auto reference = resume_slice(program, suspension, {}, 0);
  ASSERT_TRUE(reference.is_ok());
  const auto& want = std::get<ExecOutcome>(*reference);
  for (const Bytes& copy : {first_copy, second_copy}) {
    auto resumed =
        resume_slice(program, Suspension{copy, suspension.fuel_used}, {}, 0);
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    const auto& got = std::get<ExecOutcome>(*resumed);
    EXPECT_TRUE(args_equal(got.result, want.result));
    EXPECT_EQ(got.fuel_used, want.fuel_used);
  }
}

TEST(MigrationFaultTest, CorruptedSnapshotFrameNeverMisbehaves) {
  const Program program = compiled(core::kernels::kSieve);
  auto suspended = execute_slice(program, {std::int64_t{2000}}, {}, 5'000);
  ASSERT_TRUE(suspended.is_ok());
  const auto& suspension = std::get<Suspension>(*suspended);

  proto::AttemptResult result;
  result.attempt = AttemptId{1};
  result.tasklet = TaskletId{1};
  result.outcome.status = proto::AttemptStatus::kSuspended;
  result.outcome.snapshot = suspension.state;
  const Bytes frame =
      proto::encode(proto::Envelope{NodeId{2}, NodeId{1}, std::move(result)});

  Rng rng(0x516);
  ExecLimits limits;
  limits.max_fuel = 500'000;
  int frames_decoded = 0;
  for (int round = 0; round < 400; ++round) {
    Bytes mutant = frame;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      mutant[rng.next_below(mutant.size())] ^=
          static_cast<std::byte>(1u << rng.next_below(8));
    }
    // Layer 1: the codec may reject the frame outright.
    auto decoded = proto::decode(mutant);
    if (!decoded.is_ok()) continue;
    const auto* delivered = std::get_if<proto::AttemptResult>(&decoded->payload);
    if (delivered == nullptr) continue;  // flipped into another message type
    ++frames_decoded;
    // Layer 2: snapshot restore validates the (possibly corrupted) bytes;
    // any Status is fine, crashing or resuming into garbage is not.
    auto resumed = resume_slice(
        program, Suspension{delivered->outcome.snapshot, 0}, limits, 0);
    if (resumed.is_ok()) {
      ASSERT_TRUE(std::holds_alternative<ExecOutcome>(*resumed));
    }
  }
  EXPECT_GT(frames_decoded, 0) << "no mutant exercised the restore path";
}

TEST(MigrationFaultTest, StaleSnapshotRedeliveryConvergesToSameResult) {
  // A delayed/reordered link can hand the next provider an *older* snapshot
  // of the same execution (e.g. the broker re-issues after a timeout and
  // the late frame wins the race). Resuming from an earlier checkpoint must
  // converge to exactly the same result and total fuel — staleness costs
  // recomputation, never correctness.
  const Program program = compiled(core::kernels::kSpin);
  const std::vector<HostArg> args = {std::int64_t{50'000}};
  auto early = execute_slice(program, args, {}, 10'000);
  auto late = execute_slice(program, args, {}, 40'000);
  ASSERT_TRUE(early.is_ok());
  ASSERT_TRUE(late.is_ok());
  const auto& early_snapshot = std::get<Suspension>(*early);
  const auto& late_snapshot = std::get<Suspension>(*late);
  ASSERT_LT(early_snapshot.fuel_used, late_snapshot.fuel_used);

  auto from_early = resume_slice(
      program, Suspension{through_wire(early_snapshot), 0}, {}, 0);
  auto from_late = resume_slice(
      program, Suspension{through_wire(late_snapshot), 0}, {}, 0);
  ASSERT_TRUE(from_early.is_ok());
  ASSERT_TRUE(from_late.is_ok());
  const auto& a = std::get<ExecOutcome>(*from_early);
  const auto& b = std::get<ExecOutcome>(*from_late);
  EXPECT_TRUE(args_equal(a.result, b.result));
  EXPECT_EQ(a.fuel_used, b.fuel_used);  // total fuel, not the remainder
}

}  // namespace
}  // namespace tasklets::tvm

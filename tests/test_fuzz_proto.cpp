// Seeded mutation fuzzing of every untrusted-bytes decoder: the message
// codec (proto/messages.cpp), the bytecode container (tvm/program.cpp),
// parameter marshalling (tvm/marshal.cpp) and snapshot restore
// (tvm/interpreter.cpp). For each corpus item the unmutated bytes must
// decode cleanly; truncated and bit-flipped variants must either be
// rejected with an error Status or produce a well-formed value — never
// crash, hang or trip a sanitizer. The CI sanitizer job runs this binary
// under ASan/UBSan, which is where memory bugs in the decoders would show.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/kernels.hpp"
#include "proto/messages.hpp"
#include "tcl/compiler.hpp"
#include "tvm/interpreter.hpp"
#include "tvm/marshal.hpp"
#include "tvm/program.hpp"
#include "tvm/verifier.hpp"

namespace tasklets {
namespace {

constexpr std::uint64_t kFuzzSeed = 0xF022EDB17E5;
constexpr int kMutantsPerItem = 300;

// Truncations, bit flips (1-8) and a mix of both, derived from one Rng so
// the whole run is reproducible from kFuzzSeed.
Bytes mutate(const Bytes& original, Rng& rng) {
  Bytes mutant = original;
  switch (rng.next_below(3)) {
    case 0:  // truncate
      mutant.resize(rng.next_below(mutant.size() + 1));
      break;
    case 1: {  // bit flips
      const std::uint64_t flips = 1 + rng.next_below(8);
      for (std::uint64_t i = 0; i < flips && !mutant.empty(); ++i) {
        mutant[static_cast<std::size_t>(rng.next_below(mutant.size()))] ^=
            static_cast<std::byte>(1u << rng.next_below(8));
      }
      break;
    }
    default:  // truncate, then flip
      mutant.resize(rng.next_below(mutant.size() + 1));
      for (std::uint64_t i = 0; i < 2 && !mutant.empty(); ++i) {
        mutant[static_cast<std::size_t>(rng.next_below(mutant.size()))] ^=
            static_cast<std::byte>(1u << rng.next_below(8));
      }
      break;
  }
  return mutant;
}

tvm::Program compiled_spin() {
  auto program = tcl::compile(core::kernels::kSpin, {});
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return std::move(program).value();
}

// --- message codec ----------------------------------------------------------------

std::vector<proto::Envelope> envelope_corpus() {
  using namespace proto;
  Capability cap;
  cap.device_class = DeviceClass::kMobile;
  cap.speed_fuel_per_sec = 42e6;
  cap.slots = 3;
  cap.locality = "site-a";

  AttemptOutcome ok_outcome;
  ok_outcome.result = std::vector<std::int64_t>{1, 2, 3};
  ok_outcome.fuel_used = 12345;
  AttemptOutcome suspended;
  suspended.status = AttemptStatus::kSuspended;
  suspended.snapshot = Bytes(64, std::byte{0xAB});

  TaskletSpec spec;
  spec.id = TaskletId{7};
  spec.job = JobId{3};
  VmBody vm;
  vm.program = compiled_spin().serialize();
  vm.args = {std::int64_t{1000}, 2.5, std::vector<double>{1.0, -0.5}};
  spec.body = std::move(vm);
  spec.qoc.redundancy = 3;
  spec.qoc.deadline = 5 * kSecond;
  spec.origin_locality = "site-b";

  AssignTasklet assign;
  assign.attempt = AttemptId{9};
  assign.tasklet = TaskletId{7};
  assign.body = SyntheticBody{1000, 7, 64};
  assign.resume_snapshot = Bytes(32, std::byte{0x5A});

  TaskletReport report;
  report.id = TaskletId{7};
  report.job = JobId{3};
  report.result = std::vector<double>{3.14};
  report.executed_by = NodeId{4};
  report.error = "err";

  const NodeId a{11};
  const NodeId b{22};
  std::vector<Envelope> corpus;
  corpus.push_back({a, b, RegisterProvider{cap, 7}});
  corpus.push_back({a, b, DeregisterProvider{true}});
  // r5 heartbeats: no held attempts, one, and a full 64-slot provider.
  corpus.push_back({a, b, Heartbeat{}});
  corpus.push_back({a, b, Heartbeat{{AttemptId{9}}}});
  Heartbeat busy;
  for (std::uint64_t i = 0; i < 64; ++i) {
    busy.attempts.push_back(AttemptId{(i << 33) + 5});
  }
  corpus.push_back({a, b, std::move(busy)});
  corpus.push_back({a, b, AttemptResult{AttemptId{9}, TaskletId{7}, ok_outcome}});
  corpus.push_back({a, b, AttemptResult{AttemptId{9}, TaskletId{7}, suspended}});
  // r3 content-store messages: digest-only submission and assignment, plus
  // the program pull pair.
  TaskletSpec digest_spec;
  digest_spec.id = TaskletId{8};
  DigestBody digest_body;
  digest_body.program_digest = store::Digest{0x1122334455667788ULL, 0x99aabbccddeeff00ULL};
  digest_body.args = {std::int64_t{15}};
  digest_spec.body = digest_body;
  digest_spec.qoc.memoize = true;

  AssignTasklet digest_assign;
  digest_assign.attempt = AttemptId{10};
  digest_assign.tasklet = TaskletId{8};
  digest_assign.body = digest_body;

  corpus.push_back({a, b, SubmitTasklet{std::move(spec), TraceContext{7, 9}}});
  corpus.push_back({a, b, CancelTasklet{TaskletId{7}}});
  corpus.push_back({a, b, std::move(assign)});
  corpus.push_back({a, b, TaskletDone{std::move(report)}});
  corpus.push_back({a, b, RegisterAck{7}});
  corpus.push_back({a, b, SubmitTasklet{std::move(digest_spec), TraceContext{}}});
  corpus.push_back({a, b, std::move(digest_assign)});
  corpus.push_back({a, b, FetchProgram{digest_body.program_digest}});
  corpus.push_back({a, b, ProgramData{digest_body.program_digest, Bytes(48, std::byte{0x3C})}});

  // r4 dataflow messages: a DAG submission whose sink binds both upstream
  // results, a per-node delegated result, and a terminal status with mixed
  // dispositions.
  dag::DagSpec dag_spec;
  dag_spec.id = DagId{21};
  dag_spec.job = JobId{3};
  VmBody dag_vm;
  dag_vm.program = Bytes(40, std::byte{0x7E});
  dag_vm.args = {std::int64_t{5}, std::int64_t{6}};
  dag_spec.nodes.push_back({TaskletBody{SyntheticBody{1000, 7, 64}}, {}});
  dag_spec.nodes.push_back({TaskletBody{digest_body}, {}});
  dag_spec.nodes.push_back({TaskletBody{std::move(dag_vm)},
                            {dag::DagEdge{0, 0}, dag::DagEdge{1, 1}}});
  dag_spec.qoc.memoize = true;
  dag_spec.qoc.redundancy = 2;
  dag_spec.origin_locality = "site-c";
  dag_spec.outputs = {2};

  TaskletReport node_report;
  node_report.id = TaskletId{0};
  node_report.job = JobId{3};
  node_report.result = std::int64_t{7};
  node_report.executed_by = NodeId{4};

  DagStatus dag_status;
  dag_status.dag = DagId{21};
  dag_status.job = JobId{3};
  dag_status.status = TaskletStatus::kFailed;
  dag_status.nodes = {DagNodeDisposition::kExecuted, DagNodeDisposition::kMemo,
                      DagNodeDisposition::kFailed};
  dag_status.outputs = {node_report};
  dag_status.latency = 3 * kSecond;

  corpus.push_back({a, b, SubmitDag{std::move(dag_spec), TraceContext{21, 5}}});
  corpus.push_back({a, b, DagNodeResult{DagId{21}, 1, node_report}});
  corpus.push_back({a, b, std::move(dag_status)});
  return corpus;
}

TEST(FuzzProto, EveryMessageDecoderRejectsMutantsCleanly) {
  Rng rng(kFuzzSeed);
  int accepted = 0;
  int rejected = 0;
  for (const auto& envelope : envelope_corpus()) {
    const Bytes frame = proto::encode(envelope);
    // Sanity: the unmutated frame round-trips.
    ASSERT_TRUE(proto::decode(frame).is_ok())
        << proto::message_name(envelope.payload);
    for (int i = 0; i < kMutantsPerItem; ++i) {
      const Bytes mutant = mutate(frame, rng);
      auto decoded = proto::decode(mutant);
      if (!decoded.is_ok()) {
        ++rejected;
        continue;
      }
      ++accepted;
      // A decodable mutant must be a well-formed value: re-encoding it must
      // not crash and must itself round-trip.
      const Bytes reencoded = proto::encode(*decoded);
      EXPECT_TRUE(proto::decode(reencoded).is_ok());
    }
  }
  // Structural validation must catch the bulk; a codec accepting most
  // mutants validates nothing.
  EXPECT_GT(rejected, accepted);
  EXPECT_GT(accepted, 0) << "no mutant survived: mutations too destructive "
                            "to exercise accept paths";
}

TEST(FuzzProto, GarbageBuffersNeverDecode) {
  Rng rng(kFuzzSeed ^ 1);
  for (int i = 0; i < 500; ++i) {
    Bytes garbage(rng.next_below(128));
    for (auto& byte : garbage) {
      byte = static_cast<std::byte>(rng.next_below(256));
    }
    // Random bytes essentially never carry the magic; either way decode
    // must return, not crash.
    (void)proto::decode(garbage);
  }
}

// --- bytecode container -----------------------------------------------------------

TEST(FuzzProto, ProgramDeserializeSurvivesMutation) {
  const Bytes container = compiled_spin().serialize();
  ASSERT_TRUE(tvm::Program::deserialize(container).is_ok());

  Rng rng(kFuzzSeed ^ 2);
  tvm::ExecLimits limits;
  limits.max_fuel = 200'000;  // mutants must not run away
  int executed = 0;
  for (int i = 0; i < 2 * kMutantsPerItem; ++i) {
    const Bytes mutant = mutate(container, rng);
    auto program = tvm::Program::deserialize(mutant);
    if (!program.is_ok()) continue;
    // A structurally-valid mutant still has to pass the verifier before an
    // interpreter may run it; a verified one must execute within limits
    // without crashing (any Status outcome is acceptable).
    if (!tvm::verify(*program).is_ok()) continue;
    (void)tvm::execute(*program, {std::int64_t{100}}, limits);
    ++executed;
  }
  // With single-digit bit flips many mutants stay runnable (e.g. a changed
  // constant); make sure the execute path actually got exercised.
  EXPECT_GT(executed, 0);
}

// --- parameter marshalling --------------------------------------------------------

TEST(FuzzProto, ArgsDecoderSurvivesMutation) {
  ByteWriter w;
  tvm::encode_args(w, {std::int64_t{-5}, 2.75,
                       std::vector<std::int64_t>{1, -2, 3},
                       std::vector<double>{0.5, -0.25}});
  const Bytes encoded = std::move(w).take();
  {
    ByteReader reader(encoded);
    ASSERT_TRUE(tvm::decode_args(reader).is_ok());
  }
  Rng rng(kFuzzSeed ^ 3);
  for (int i = 0; i < 2 * kMutantsPerItem; ++i) {
    const Bytes mutant = mutate(encoded, rng);
    ByteReader reader(mutant);
    (void)tvm::decode_args(reader);  // must return cleanly either way
  }
}

// --- snapshot restore -------------------------------------------------------------

TEST(FuzzProto, SnapshotRestoreRejectsForgedStates) {
  const tvm::Program program = compiled_spin();
  tvm::ExecLimits limits;
  auto sliced =
      tvm::execute_slice(program, {std::int64_t{1'000'000}}, limits, 10'000);
  ASSERT_TRUE(sliced.is_ok());
  ASSERT_TRUE(std::holds_alternative<tvm::Suspension>(*sliced))
      << "slice unexpectedly ran to completion";
  const auto& suspension = std::get<tvm::Suspension>(*sliced);

  // The genuine snapshot resumes.
  ASSERT_TRUE(tvm::resume_slice(program, suspension, limits, 10'000).is_ok());
  ASSERT_TRUE(tvm::snapshot_fuel(suspension.state).is_ok());

  Rng rng(kFuzzSeed ^ 4);
  limits.max_fuel = 200'000;
  for (int i = 0; i < 2 * kMutantsPerItem; ++i) {
    tvm::Suspension forged;
    forged.state = mutate(suspension.state, rng);
    forged.fuel_used = suspension.fuel_used;
    // Restore validates bindings (program hash, frame chain, stack depths)
    // before the interpreter touches the state: a mutant either fails that
    // validation or resumes as a well-formed machine — both must return.
    (void)tvm::resume_slice(program, forged, limits, 10'000);
    (void)tvm::snapshot_fuel(forged.state);
  }
}

}  // namespace
}  // namespace tasklets

// Tests for the provider side: VmExecutor (execution + verification cache),
// fault injection, the speed benchmark, and the ProviderAgent state machine
// (registration, heartbeats, slot management, crash/rejoin).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/kernels.hpp"
#include "provider/benchmark.hpp"
#include "provider/execution.hpp"
#include "provider/provider.hpp"
#include "tcl/compiler.hpp"

namespace tasklets::provider {
namespace {

using proto::AttemptStatus;

Bytes compile_bytes(std::string_view source) {
  auto program = tcl::compile(source);
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return program->serialize();
}

ExecRequest vm_request(std::string_view source, std::vector<tvm::HostArg> args) {
  ExecRequest request;
  request.attempt = AttemptId{1};
  request.tasklet = TaskletId{1};
  proto::VmBody body;
  body.program = compile_bytes(source);
  body.args = std::move(args);
  request.body = std::move(body);
  return request;
}

// --- VmExecutor --------------------------------------------------------------

TEST(VmExecutorTest, ExecutesVmBody) {
  VmExecutor executor;
  const auto outcome =
      executor.run(vm_request(core::kernels::kFib, {std::int64_t{12}}));
  EXPECT_EQ(outcome.status, AttemptStatus::kOk);
  EXPECT_EQ(std::get<std::int64_t>(outcome.result), 144);
  EXPECT_GT(outcome.fuel_used, 0u);
}

TEST(VmExecutorTest, ExecutesSyntheticBodyInstantly) {
  VmExecutor executor;
  ExecRequest request;
  request.body = proto::SyntheticBody{5555, -3, 64};
  const auto outcome = executor.run(request);
  EXPECT_EQ(outcome.status, AttemptStatus::kOk);
  EXPECT_EQ(std::get<std::int64_t>(outcome.result), -3);
  EXPECT_EQ(outcome.fuel_used, 5555u);
}

TEST(VmExecutorTest, VerificationCachePopulates) {
  VmExecutor executor;
  EXPECT_EQ(executor.cache_size(), 0u);
  const auto request = vm_request(core::kernels::kFib, {std::int64_t{5}});
  (void)executor.run(request);
  EXPECT_EQ(executor.cache_size(), 1u);
  (void)executor.run(request);  // same program: no new entry
  EXPECT_EQ(executor.cache_size(), 1u);
  (void)executor.run(vm_request(core::kernels::kSieve, {std::int64_t{100}}));
  EXPECT_EQ(executor.cache_size(), 2u);
}

TEST(VmExecutorTest, MalformedProgramTrapsDeterministically) {
  VmExecutor executor;
  ExecRequest request;
  proto::VmBody body;
  body.program = {std::byte{0xBA}, std::byte{0xD0}};
  request.body = std::move(body);
  const auto outcome = executor.run(request);
  EXPECT_EQ(outcome.status, AttemptStatus::kTrap);
  EXPECT_NE(outcome.error.find("rejected"), std::string::npos);
  // Negative verification results are cached too.
  EXPECT_EQ(executor.cache_size(), 1u);
  EXPECT_EQ(executor.run(request).status, AttemptStatus::kTrap);
}

TEST(VmExecutorTest, RuntimeTrapReported) {
  VmExecutor executor;
  const auto outcome =
      executor.run(vm_request("int main(int n) { return 1 % n; }", {std::int64_t{0}}));
  EXPECT_EQ(outcome.status, AttemptStatus::kTrap);
  EXPECT_NE(outcome.error.find("modulo by zero"), std::string::npos);
}

TEST(VmExecutorTest, FuelLimitFromRequestWins) {
  VmExecutor executor;
  auto request = vm_request(core::kernels::kSpin, {std::int64_t{1'000'000}});
  request.max_fuel = 100;  // far below the needed budget
  const auto outcome = executor.run(request);
  EXPECT_EQ(outcome.status, AttemptStatus::kTrap);
  EXPECT_NE(outcome.error.find("fuel"), std::string::npos);
}

TEST(VmExecutorTest, ConcurrentExecutionsAreSafe) {
  VmExecutor executor;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&executor, &failures] {
      for (int i = 0; i < 20; ++i) {
        const auto outcome =
            executor.run(vm_request(core::kernels::kFib, {std::int64_t{10}}));
        if (outcome.status != AttemptStatus::kOk ||
            std::get<std::int64_t>(outcome.result) != 55) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(VmExecutorTest, CompletedRunsRecordTheProgramsPeakFuel) {
  VmExecutor executor;
  const auto small = vm_request(core::kernels::kFib, {std::int64_t{5}});
  EXPECT_FALSE(executor.begin(small).completed_within(~std::uint64_t{0}))
      << "a program that never completed has no known size";
  const std::uint64_t small_fuel = executor.run(small).fuel_used;
  EXPECT_TRUE(executor.begin(small).completed_within(small_fuel));
  EXPECT_FALSE(executor.begin(small).completed_within(small_fuel - 1));

  // The peak is per program, not per argument list: a larger run of the
  // same program raises it, and a later smaller run does not lower it.
  const std::uint64_t large_fuel =
      executor.run(vm_request(core::kernels::kFib, {std::int64_t{12}})).fuel_used;
  (void)executor.run(small);
  EXPECT_FALSE(executor.begin(small).completed_within(large_fuel - 1));
  EXPECT_TRUE(executor.begin(small).completed_within(large_fuel));

  // Traps are not completions.
  const auto trapping = vm_request("int main(int n) { return 1 % n; }", {std::int64_t{0}});
  (void)executor.run(trapping);
  EXPECT_FALSE(executor.begin(trapping).completed_within(~std::uint64_t{0}));
}

TEST(VmExecutorTest, DrainAtTheFirstSliceBoundaryCheckpoints) {
  VmExecutor executor;
  const auto request = vm_request(core::kernels::kSpin, {std::int64_t{2'000}});
  const auto reference = executor.run(request);
  const std::atomic<bool> drain{true};
  const auto suspended = executor.begin(request).step(1'000, drain);
  ASSERT_TRUE(suspended.has_value());
  ASSERT_EQ(suspended->status, AttemptStatus::kSuspended);
  EXPECT_FALSE(suspended->snapshot.empty());
  EXPECT_GT(suspended->fuel_used, 0u);
  EXPECT_LT(suspended->fuel_used, reference.fuel_used);

  // The checkpoint resumes to the same totals as the uninterrupted run.
  auto resumed = request;
  resumed.resume_snapshot = suspended->snapshot;
  const auto finished = executor.run(resumed);
  ASSERT_EQ(finished.status, AttemptStatus::kOk);
  EXPECT_TRUE(tvm::args_equal(finished.result, reference.result));
  EXPECT_EQ(finished.fuel_used, reference.fuel_used);
}

// --- fault injection ------------------------------------------------------------

TEST(FaultInjectionTest, ZeroRateNeverCorrupts) {
  Rng rng(1);
  proto::AttemptOutcome outcome;
  outcome.result = std::int64_t{42};
  for (int i = 0; i < 100; ++i) {
    const auto corrupted = maybe_corrupt(outcome, 0.0, rng);
    EXPECT_TRUE(tvm::args_equal(corrupted.result, outcome.result));
  }
}

TEST(FaultInjectionTest, FullRateAlwaysChangesValue) {
  Rng rng(2);
  proto::AttemptOutcome outcome;
  outcome.result = std::int64_t{42};
  for (int i = 0; i < 100; ++i) {
    const auto corrupted = maybe_corrupt(outcome, 1.0, rng);
    EXPECT_FALSE(tvm::args_equal(corrupted.result, outcome.result));
  }
}

TEST(FaultInjectionTest, CorruptsEveryResultShape) {
  Rng rng(3);
  const std::vector<tvm::HostArg> shapes = {
      std::int64_t{7},
      2.5,
      std::vector<std::int64_t>{1, 2, 3},
      std::vector<double>{0.5},
      std::vector<std::int64_t>{},  // empty arrays grow a poison element
      std::vector<double>{},
  };
  for (const auto& shape : shapes) {
    proto::AttemptOutcome outcome;
    outcome.result = shape;
    const auto corrupted = maybe_corrupt(outcome, 1.0, rng);
    EXPECT_FALSE(tvm::args_equal(corrupted.result, shape));
  }
}

TEST(FaultInjectionTest, FailedOutcomesPassThrough) {
  Rng rng(4);
  proto::AttemptOutcome outcome;
  outcome.status = AttemptStatus::kTrap;
  outcome.result = std::int64_t{42};
  const auto corrupted = maybe_corrupt(outcome, 1.0, rng);
  EXPECT_TRUE(tvm::args_equal(corrupted.result, outcome.result));
}

// --- speed benchmark -------------------------------------------------------------

TEST(BenchmarkTest, MeasuresPositiveSpeed) {
  VmExecutor executor;
  const double speed = measure_speed(executor, 10 * kMillisecond);
  EXPECT_GT(speed, 1e5);   // loose floor: sanitized builds run ~10x slower
  EXPECT_LT(speed, 1e12);  // sanity upper bound
}

// --- ProviderAgent ------------------------------------------------------------------

// Execution service stub: records requests, completes on demand.
class StubExecution final : public ExecutionService {
 public:
  void execute(ExecRequest request, ExecDone done) override {
    pending_.emplace_back(std::move(request), std::move(done));
  }

  std::size_t pending() const { return pending_.size(); }

  // Completes the oldest request against the given agent.
  void complete_one(proto::AttemptOutcome outcome, SimTime now,
                    proto::Outbox& out) {
    auto [request, done] = std::move(pending_.front());
    pending_.erase(pending_.begin());
    done(std::move(outcome), now, out);
  }

 private:
  std::vector<std::pair<ExecRequest, ExecDone>> pending_;
};

constexpr NodeId kBroker{1};
constexpr NodeId kSelf{5};

proto::AssignTasklet assignment(std::uint64_t attempt) {
  proto::AssignTasklet assign;
  assign.attempt = AttemptId{attempt};
  assign.tasklet = TaskletId{attempt};
  assign.body = proto::SyntheticBody{100, 9, 64};
  return assign;
}

TEST(ProviderAgentTest, RegistersAndArmsHeartbeatOnStart) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 2;
  ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox out(kSelf);
  agent.on_start(0, out);
  ASSERT_EQ(out.messages().size(), 1u);
  EXPECT_TRUE(std::holds_alternative<proto::RegisterProvider>(
      out.messages()[0].payload));
  ASSERT_EQ(out.timers().size(), 1u);
}

TEST(ProviderAgentTest, HeartbeatListsHeldAttempts) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 3;
  ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  // Ack the registration: heartbeats replace register retransmits.
  proto::Outbox ack_out(kSelf);
  agent.on_message({kBroker, kSelf, proto::RegisterAck{agent.incarnation()}}, 0,
                   ack_out);
  EXPECT_TRUE(agent.registered());
  // Two running attempts and one parked on a program fetch.
  proto::Outbox assign_out(kSelf);
  agent.on_message({kBroker, kSelf, assignment(9)}, 0, assign_out);
  agent.on_message({kBroker, kSelf, assignment(4)}, 0, assign_out);
  proto::AssignTasklet parked = assignment(6);
  parked.body = proto::DigestBody{store::Digest{1, 2}, {}};
  agent.on_message({kBroker, kSelf, parked}, 0, assign_out);
  EXPECT_EQ(agent.busy_slots(), 3u);

  const auto beat_at = [&](SimTime now) {
    proto::Outbox hb(kSelf);
    agent.on_timer(1, now, hb);
    EXPECT_EQ(hb.timers().size(), 1u);  // re-armed
    for (const auto& envelope : hb.messages()) {
      if (const auto* beat = std::get_if<proto::Heartbeat>(&envelope.payload)) {
        return beat->attempts;
      }
    }
    ADD_FAILURE() << "no heartbeat";
    return std::vector<AttemptId>{};
  };
  EXPECT_EQ(beat_at(kSecond),
            (std::vector<AttemptId>{AttemptId{4}, AttemptId{6}, AttemptId{9}}));
  // An answered attempt leaves the list.
  proto::Outbox done_out(kSelf);
  execution.complete_one(proto::AttemptOutcome{}, kSecond, done_out);
  EXPECT_EQ(beat_at(2 * kSecond),
            (std::vector<AttemptId>{AttemptId{4}, AttemptId{6}}));
}

TEST(ProviderAgentTest, ResendsRegistrationUntilAcked) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 1;
  ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  EXPECT_FALSE(agent.registered());
  // Un-acked: the heartbeat tick retransmits RegisterProvider with the same
  // incarnation instead of a heartbeat.
  proto::Outbox retry(kSelf);
  agent.on_timer(1, kSecond, retry);
  ASSERT_EQ(retry.messages().size(), 1u);
  const auto& re = std::get<proto::RegisterProvider>(retry.messages()[0].payload);
  EXPECT_EQ(re.incarnation, agent.incarnation());
  // A stale ack (wrong incarnation) is ignored.
  proto::Outbox stale(kSelf);
  agent.on_message({kBroker, kSelf, proto::RegisterAck{agent.incarnation() + 7}},
                   0, stale);
  EXPECT_FALSE(agent.registered());
  proto::Outbox ack_out(kSelf);
  agent.on_message({kBroker, kSelf, proto::RegisterAck{agent.incarnation()}}, 0,
                   ack_out);
  EXPECT_TRUE(agent.registered());
  proto::Outbox hb(kSelf);
  agent.on_timer(1, 2 * kSecond, hb);
  ASSERT_EQ(hb.messages().size(), 1u);
  EXPECT_TRUE(std::holds_alternative<proto::Heartbeat>(hb.messages()[0].payload));
}

TEST(ProviderAgentTest, DuplicateAssignmentIsFencedSilently) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 2;
  ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  proto::Outbox first(kSelf);
  agent.on_message({kBroker, kSelf, assignment(1)}, 0, first);
  ASSERT_EQ(execution.pending(), 1u);
  // A retransmit of the same attempt id must not re-execute or respond —
  // the broker's heartbeat reconciliation owns recovery for lost results.
  proto::Outbox dup(kSelf);
  agent.on_message({kBroker, kSelf, assignment(1)}, 1, dup);
  EXPECT_EQ(execution.pending(), 1u);
  EXPECT_TRUE(dup.messages().empty());
  EXPECT_EQ(agent.stats().duplicate_assigns, 1u);
  EXPECT_EQ(agent.stats().assignments, 1u);
}

TEST(ProviderAgentTest, RejoinBumpsIncarnation) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 1;
  ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  const std::uint64_t first = agent.incarnation();
  agent.crash();
  proto::Outbox rejoin_out(kSelf);
  agent.rejoin(kSecond, rejoin_out);
  ASSERT_EQ(rejoin_out.messages().size(), 1u);
  const auto& re =
      std::get<proto::RegisterProvider>(rejoin_out.messages()[0].payload);
  EXPECT_EQ(re.incarnation, first + 1);
  EXPECT_FALSE(agent.registered());
}

TEST(ProviderAgentTest, CompletionSendsResultAndFreesSlot) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 1;
  ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  proto::Outbox assign_out(kSelf);
  agent.on_message({kBroker, kSelf, assignment(1)}, 0, assign_out);
  ASSERT_EQ(execution.pending(), 1u);

  proto::AttemptOutcome outcome;
  outcome.result = std::int64_t{9};
  proto::Outbox done_out(kSelf);
  execution.complete_one(std::move(outcome), 10, done_out);
  ASSERT_EQ(done_out.messages().size(), 1u);
  const auto& result = std::get<proto::AttemptResult>(done_out.messages()[0].payload);
  EXPECT_EQ(result.attempt, AttemptId{1});
  EXPECT_EQ(std::get<std::int64_t>(result.outcome.result), 9);
  EXPECT_EQ(agent.busy_slots(), 0u);
  EXPECT_EQ(agent.stats().completed, 1u);
}

TEST(ProviderAgentTest, OverloadRejectsImmediately) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 1;
  ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  proto::Outbox first(kSelf);
  agent.on_message({kBroker, kSelf, assignment(1)}, 0, first);
  proto::Outbox second(kSelf);
  agent.on_message({kBroker, kSelf, assignment(2)}, 0, second);
  ASSERT_EQ(second.messages().size(), 1u);
  const auto& result = std::get<proto::AttemptResult>(second.messages()[0].payload);
  EXPECT_EQ(result.outcome.status, AttemptStatus::kRejected);
  EXPECT_EQ(execution.pending(), 1u);  // only the first was accepted
}

TEST(ProviderAgentTest, CrashClearsSlotsAndSilencesHeartbeat) {
  StubExecution execution;
  proto::Capability capability;
  capability.slots = 2;
  ProviderAgent agent(kSelf, kBroker, capability, execution);
  proto::Outbox start(kSelf);
  agent.on_start(0, start);
  proto::Outbox assign_out(kSelf);
  agent.on_message({kBroker, kSelf, assignment(1)}, 0, assign_out);
  EXPECT_EQ(agent.busy_slots(), 1u);

  agent.crash();
  EXPECT_FALSE(agent.online());
  EXPECT_EQ(agent.busy_slots(), 0u);  // the work died with the process

  // Offline: heartbeat timer still re-arms but sends nothing.
  proto::Outbox hb(kSelf);
  agent.on_timer(1, kSecond, hb);
  EXPECT_TRUE(hb.messages().empty());
  EXPECT_EQ(hb.timers().size(), 1u);

  // Offline: assignments are refused.
  proto::Outbox while_down(kSelf);
  agent.on_message({kBroker, kSelf, assignment(2)}, 0, while_down);
  const auto& result =
      std::get<proto::AttemptResult>(while_down.messages()[0].payload);
  EXPECT_EQ(result.outcome.status, AttemptStatus::kRejected);

  // Rejoin re-registers.
  proto::Outbox rejoin(kSelf);
  agent.rejoin(2 * kSecond, rejoin);
  EXPECT_TRUE(agent.online());
  ASSERT_EQ(rejoin.messages().size(), 1u);
  EXPECT_TRUE(std::holds_alternative<proto::RegisterProvider>(
      rejoin.messages()[0].payload));
}

TEST(ProviderAgentTest, GracefulLeaveSendsDeregister) {
  StubExecution execution;
  ProviderAgent agent(kSelf, kBroker, proto::Capability{}, execution);
  proto::Outbox out(kSelf);
  agent.leave(out);
  ASSERT_EQ(out.messages().size(), 1u);
  EXPECT_TRUE(std::holds_alternative<proto::DeregisterProvider>(
      out.messages()[0].payload));
  EXPECT_FALSE(agent.online());
}

}  // namespace
}  // namespace tasklets::provider

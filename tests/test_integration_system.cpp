// End-to-end integration tests on the threaded runtime (TaskletSystem):
// real concurrent execution across actor threads and per-provider worker
// pools, exercising the same protocol stack as the simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "core/kernels.hpp"
#include "core/system.hpp"

namespace tasklets::core {
namespace {

using proto::Qoc;
using proto::TaskletStatus;
using namespace std::chrono_literals;

proto::TaskletBody fib_body(std::int64_t n) {
  auto body = compile_tasklet(kernels::kFib, {n});
  EXPECT_TRUE(body.is_ok()) << body.status().to_string();
  return std::move(body).value();
}

// Futures must resolve promptly; a generous timeout keeps CI stable while
// still catching deadlocks.
proto::TaskletReport get_or_die(std::future<proto::TaskletReport>& future) {
  EXPECT_EQ(future.wait_for(30s), std::future_status::ready) << "deadlock?";
  return future.get();
}

std::uint64_t counter(std::string_view name) {
  return TaskletSystem::metrics_snapshot().counter(name);
}

TEST(SystemIntegration, SingleTaskletRoundTrip) {
  TaskletSystem system;
  system.add_provider();
  auto future = system.submit(fib_body(18));
  const auto report = get_or_die(future);
  EXPECT_EQ(report.status, TaskletStatus::kCompleted);
  EXPECT_EQ(std::get<std::int64_t>(report.result), 2584);
  EXPECT_GT(report.fuel_used, 0u);
}

TEST(SystemIntegration, BatchAcrossMultipleProviders) {
  TaskletSystem system;
  for (int i = 0; i < 4; ++i) system.add_provider();
  std::vector<proto::TaskletBody> bodies;
  for (int i = 0; i < 24; ++i) bodies.push_back(fib_body(15));
  auto futures = system.submit_batch(std::move(bodies));
  for (auto& future : futures) {
    const auto report = get_or_die(future);
    EXPECT_EQ(report.status, TaskletStatus::kCompleted);
    EXPECT_EQ(std::get<std::int64_t>(report.result), 610);
  }
  const auto stats = system.broker_stats();
  EXPECT_EQ(stats.tasklets_completed, 24u);
  EXPECT_GE(stats.attempts_issued, 24u);
}

TEST(SystemIntegration, MultiSlotProviderRunsConcurrently) {
  TaskletSystem system;
  ProviderOptions options;
  options.capability.slots = 4;
  system.add_provider(options);
  std::vector<proto::TaskletBody> bodies;
  for (int i = 0; i < 8; ++i) bodies.push_back(fib_body(20));
  auto futures = system.submit_batch(std::move(bodies));
  for (auto& future : futures) {
    EXPECT_EQ(get_or_die(future).status, TaskletStatus::kCompleted);
  }
}

TEST(SystemIntegration, ArrayResultsSurviveTheFullStack) {
  TaskletSystem system;
  system.add_provider();
  auto body = compile_tasklet(
      kernels::kMandelbrotRow,
      {std::int64_t{16}, std::int64_t{2}, std::int64_t{4}, -2.0, 1.0, -1.2, 1.2,
       std::int64_t{32}});
  ASSERT_TRUE(body.is_ok());
  auto future = system.submit(std::move(body).value());
  const auto report = get_or_die(future);
  ASSERT_EQ(report.status, TaskletStatus::kCompleted);
  const auto& row = std::get<std::vector<std::int64_t>>(report.result);
  EXPECT_EQ(row.size(), 16u);
}

TEST(SystemIntegration, TrapIsReportedAsFailure) {
  TaskletSystem system;
  system.add_provider();
  auto body = compile_tasklet("int main(int n) { return 10 / n; }", {std::int64_t{0}});
  ASSERT_TRUE(body.is_ok());
  auto future = system.submit(std::move(body).value());
  const auto report = get_or_die(future);
  EXPECT_EQ(report.status, TaskletStatus::kFailed);
  EXPECT_NE(report.error.find("division by zero"), std::string::npos);
}

TEST(SystemIntegration, NoProviderMeansUnschedulable) {
  TaskletSystem system;  // no providers registered
  auto future = system.submit(fib_body(10));
  const auto report = get_or_die(future);
  EXPECT_EQ(report.status, TaskletStatus::kUnschedulable);
}

TEST(SystemIntegration, RedundancyMasksFaultyProvider) {
  TaskletSystem system;
  ProviderOptions honest;
  system.add_provider(honest);
  system.add_provider(honest);
  ProviderOptions faulty;
  faulty.fault_rate = 1.0;  // corrupts every result
  system.add_provider(faulty);

  // Registration is asynchronous: run plain tasklets until each provider has
  // executed one, so that every round below can place all three replicas.
  std::set<NodeId> registered;
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (registered.size() < 3 && std::chrono::steady_clock::now() < deadline) {
    auto futures = system.submit_batch({fib_body(12), fib_body(12), fib_body(12)});
    for (auto& future : futures) registered.insert(get_or_die(future).executed_by);
  }
  ASSERT_EQ(registered.size(), 3u);
  const std::uint64_t issued_before = system.broker_stats().attempts_issued;
  const std::uint64_t completed_before = counter("provider.completed");

  // With redundancy 3 the two honest replicas outvote the faulty one no
  // matter where the replicas land.
  Qoc qoc;
  qoc.redundancy = 3;
  for (int round = 0; round < 5; ++round) {
    auto future = system.submit(fib_body(12), qoc);
    const auto report = get_or_die(future);
    ASSERT_EQ(report.status, TaskletStatus::kCompleted);
    EXPECT_EQ(std::get<std::int64_t>(report.result), 144);
    // The report needs only the two honest votes. Let the corrupt replica
    // finish as well: a provider still busy with it when the next round
    // arrives cannot take that round's third replica.
    while (counter("provider.completed") - completed_before <
               system.broker_stats().attempts_issued - issued_before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  }
  // Note: votes_overruled is timing-dependent here — the corrupt replica may
  // arrive only after the honest majority already concluded, in which case
  // it is (correctly) discarded as a late result. The invariant under test
  // is that the *reported* value is always the honest one, asserted above.
  EXPECT_GE(system.broker_stats().attempts_issued - issued_before, 15u);
}

TEST(SystemIntegration, SlowdownYieldsLowerMeasuredSpeed) {
  TaskletSystem system;
  ProviderOptions fast;
  ProviderOptions slow;
  slow.slowdown = 8.0;
  system.add_provider(fast);
  system.add_provider(slow);
  // Both get registered; the system keeps working.
  auto future = system.submit(fib_body(14));
  EXPECT_EQ(get_or_die(future).status, TaskletStatus::kCompleted);
  EXPECT_EQ(system.provider_count(), 2u);
}

TEST(SystemIntegration, ManySmallTaskletsStressMailboxes) {
  TaskletSystem system;
  for (int i = 0; i < 3; ++i) system.add_provider();
  auto body = compile_tasklet("int main(int a, int b) { return a * 100 + b; }",
                              {std::int64_t{0}, std::int64_t{0}});
  ASSERT_TRUE(body.is_ok());
  std::vector<std::future<proto::TaskletReport>> futures;
  for (std::int64_t i = 0; i < 100; ++i) {
    proto::VmBody b = std::get<proto::VmBody>(proto::TaskletBody{*body});
    b.args = {i, i + 1};
    futures.push_back(system.submit(proto::TaskletBody{std::move(b)}));
  }
  for (std::int64_t i = 0; i < 100; ++i) {
    const auto report = get_or_die(futures[static_cast<std::size_t>(i)]);
    ASSERT_EQ(report.status, TaskletStatus::kCompleted);
    EXPECT_EQ(std::get<std::int64_t>(report.result), i * 100 + i + 1);
  }
}

TEST(SystemIntegration, DrainMigratesInFlightWorkWithoutRestart) {
  TaskletSystem system;
  const NodeId first = system.add_provider();

  // A long-running tasklet (~hundreds of ms) lands on the only provider.
  auto body = compile_tasklet(kernels::kSpin, {std::int64_t{4'000'000}});
  ASSERT_TRUE(body.is_ok());
  // Reference result computed locally.
  auto program = tvm::Program::deserialize(std::span<const std::byte>(
      std::get<proto::VmBody>(proto::TaskletBody{*body}).program.data(),
      std::get<proto::VmBody>(proto::TaskletBody{*body}).program.size()));
  ASSERT_TRUE(program.is_ok());
  const auto reference = tvm::execute(*program, {std::int64_t{4'000'000}});
  ASSERT_TRUE(reference.is_ok());

  auto future = system.submit(std::move(body).value());
  // Let it get going, bring up the migration target, then drain the
  // original provider mid-execution.
  std::this_thread::sleep_for(50ms);
  const NodeId second = system.add_provider();
  std::this_thread::sleep_for(50ms);
  system.drain_provider(first);

  // Generous: sanitized builds under a parallel ctest run are very slow.
  ASSERT_EQ(future.wait_for(300s), std::future_status::ready);
  const auto report = future.get();
  ASSERT_EQ(report.status, TaskletStatus::kCompleted);
  EXPECT_TRUE(tvm::args_equal(report.result, reference->result));
  // Fuel continuity: the resumed execution reports the *total* fuel, not
  // just the remainder — proof it continued rather than restarted.
  EXPECT_EQ(report.fuel_used, reference->fuel_used);

  const auto stats = system.broker_stats();
  if (stats.migrations > 0) {
    // The common case: the drain caught the tasklet mid-flight and it
    // finished on the second provider.
    EXPECT_EQ(report.executed_by, second);
    EXPECT_GE(report.attempts, 2u);
  } else {
    // Timing fallback (fast machine): the tasklet finished before the
    // drain landed. The result checks above still hold.
    EXPECT_EQ(report.executed_by, first);
  }
}

TEST(SystemIntegration, DrainWithIdleProviderIsClean) {
  TaskletSystem system;
  const NodeId a = system.add_provider();
  system.add_provider();
  system.drain_provider(a);  // nothing in flight: just deregisters
  auto body = compile_tasklet(kernels::kFib, {std::int64_t{12}});
  ASSERT_TRUE(body.is_ok());
  auto future = system.submit(std::move(body).value());
  const auto report = get_or_die(future);
  EXPECT_EQ(report.status, TaskletStatus::kCompleted);
  EXPECT_NE(report.executed_by, a);  // drained provider takes no new work
}

TEST(SystemIntegration, StopIsIdempotentAndCleanUnderLoad) {
  TaskletSystem system;
  system.add_provider();
  // Leave work in flight and shut down: must not hang or crash.
  auto future = system.submit(fib_body(25));
  system.stop();
  system.stop();
  // The future may or may not have resolved; both are acceptable. What is
  // required is that destruction below is clean (asan/tsan builds verify).
  (void)future;
}

// --- known-small work on the provider's mailbox thread ---------------------

// Direct tvm::execute of a body: the parity reference.
tvm::ExecOutcome reference_run(const proto::TaskletBody& body) {
  const auto& vm = std::get<proto::VmBody>(body);
  auto program = tvm::Program::deserialize(
      std::span<const std::byte>(vm.program.data(), vm.program.size()));
  EXPECT_TRUE(program.is_ok());
  auto outcome = tvm::execute(*program, vm.args);
  EXPECT_TRUE(outcome.is_ok());
  return std::move(outcome).value();
}

TEST(SystemIntegration, InlineRunsMatchTheVmExactly) {
  TaskletSystem system;
  system.add_provider();
  const proto::TaskletBody body = fib_body(10);
  const tvm::ExecOutcome reference = reference_run(body);
  const std::uint64_t inline_before = counter("provider.vm.inline");
  const std::uint64_t handoffs_before = counter("provider.vm.inline_handoffs");
  for (std::uint64_t run = 0; run < 4; ++run) {
    auto future = system.submit(proto::TaskletBody{body});
    const auto report = get_or_die(future);
    ASSERT_EQ(report.status, TaskletStatus::kCompleted);
    EXPECT_TRUE(tvm::args_equal(report.result, reference.result));
    EXPECT_EQ(report.fuel_used, reference.fuel_used);
    EXPECT_EQ(report.instructions, reference.instructions);
    // The first run has no completed history, so it takes the pool; every
    // later one is known-small on an idle provider.
    EXPECT_EQ(counter("provider.vm.inline") - inline_before, run);
  }
  EXPECT_EQ(counter("provider.vm.inline_handoffs"), handoffs_before);
}

TEST(SystemIntegration, MispredictedInlineRunHandsOffToThePoolExactly) {
  TaskletSystem system;
  system.add_provider();
  auto small = compile_tasklet(kernels::kSpin, {std::int64_t{1}});
  ASSERT_TRUE(small.is_ok());
  auto first = system.submit(proto::TaskletBody{*small});
  ASSERT_EQ(get_or_die(first).status, TaskletStatus::kCompleted);

  // Same program, so its history says small; this run is ~90M fuel.
  proto::TaskletBody large{*small};
  std::get<proto::VmBody>(large).args = {std::int64_t{4'000'000}};
  const tvm::ExecOutcome reference = reference_run(large);
  const std::uint64_t inline_before = counter("provider.vm.inline");
  const std::uint64_t handoffs_before = counter("provider.vm.inline_handoffs");
  auto future = system.submit(std::move(large));
  const auto report = get_or_die(future);
  ASSERT_EQ(report.status, TaskletStatus::kCompleted);
  EXPECT_TRUE(tvm::args_equal(report.result, reference.result));
  EXPECT_EQ(report.fuel_used, reference.fuel_used);
  EXPECT_EQ(report.instructions, reference.instructions);
  EXPECT_EQ(counter("provider.vm.inline") - inline_before, 1u);
  EXPECT_EQ(counter("provider.vm.inline_handoffs") - handoffs_before, 1u);

  // The large completion raised the program's peak: no more inline runs.
  auto again = system.submit(proto::TaskletBody{*small});
  ASSERT_EQ(get_or_die(again).status, TaskletStatus::kCompleted);
  EXPECT_EQ(counter("provider.vm.inline") - inline_before, 1u);
}

TEST(SystemIntegration, SlowdownProviderNeverRunsInline) {
  TaskletSystem system;
  ProviderOptions slow;
  slow.slowdown = 2.0;
  system.add_provider(slow);
  const proto::TaskletBody body = fib_body(10);
  const std::uint64_t inline_before = counter("provider.vm.inline");
  for (int run = 0; run < 4; ++run) {
    auto future = system.submit(proto::TaskletBody{body});
    EXPECT_EQ(get_or_die(future).status, TaskletStatus::kCompleted);
  }
  EXPECT_EQ(counter("provider.vm.inline"), inline_before);
}

TEST(SystemIntegration, BusyProviderKeepsSmallWorkOnThePool) {
  TaskletSystem system;
  ProviderOptions options;
  options.capability.slots = 2;
  system.add_provider(options);
  const proto::TaskletBody small = fib_body(10);
  const std::uint64_t inline_start = counter("provider.vm.inline");
  for (int run = 0; run < 2; ++run) {  // history, then one inline run
    auto future = system.submit(proto::TaskletBody{small});
    ASSERT_EQ(get_or_die(future).status, TaskletStatus::kCompleted);
  }
  const std::uint64_t inline_before = counter("provider.vm.inline");
  ASSERT_EQ(inline_before - inline_start, 1u);

  // The long tasklet is assigned first and holds the other slot on the
  // pool, so the provider is not idle when the small one arrives.
  auto long_body = compile_tasklet(kernels::kSpin, {std::int64_t{4'000'000}});
  ASSERT_TRUE(long_body.is_ok());
  auto long_future = system.submit(std::move(long_body).value());
  auto small_future = system.submit(proto::TaskletBody{small});
  EXPECT_EQ(get_or_die(small_future).status, TaskletStatus::kCompleted);
  ASSERT_EQ(long_future.wait_for(0s), std::future_status::timeout)
      << "the long tasklet must still be running";
  EXPECT_EQ(counter("provider.vm.inline"), inline_before);
  EXPECT_EQ(get_or_die(long_future).status, TaskletStatus::kCompleted);
}

// --- submits that drive the runtime's turns ---------------------------------

TEST(SystemIntegration, KnownSmallSubmitsOnAnIdleSystemReturnReadyFutures) {
  TaskletSystem system;
  system.add_provider();
  const proto::TaskletBody small = fib_body(10);
  for (int run = 0; run < 10; ++run) {  // history, then inline runs
    auto future = system.submit(proto::TaskletBody{small});
    ASSERT_EQ(get_or_die(future).status, TaskletStatus::kCompleted);
  }
  // The submit runs the whole chain on this thread when the runtime thread
  // is parked, so the future is ready when submit returns.
  int ready = 0;
  for (int run = 0; run < 100; ++run) {
    auto future = system.submit(proto::TaskletBody{small});
    if (future.wait_for(0s) == std::future_status::ready) ++ready;
    EXPECT_EQ(get_or_die(future).status, TaskletStatus::kCompleted);
  }
  EXPECT_GE(ready, 90);
}

TEST(SystemIntegration, SubmitsRacingStopResolveEveryFuture) {
  TaskletSystem system;
  system.add_provider();
  system.add_provider();
  const proto::TaskletBody small = fib_body(10);
  const proto::TaskletBody pool_work = fib_body(16);
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 200;
  std::vector<std::vector<std::future<proto::TaskletReport>>> futures(kSubmitters);
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      for (int i = 0; i < kPerSubmitter; ++i) {
        futures[t].push_back(system.submit(
            proto::TaskletBody{i % 2 == 0 ? small : pool_work}));
        if (i % 8 == 7) (void)futures[t].back().wait_for(30s);
      }
    });
  }
  threads.emplace_back([&] {
    while (started.load() < kSubmitters) std::this_thread::yield();
    std::this_thread::sleep_for(2ms);
    system.stop();
  });
  for (auto& thread : threads) thread.join();

  int resolved = 0;
  for (auto& list : futures) {
    for (auto& future : list) {
      ASSERT_EQ(future.wait_for(30s), std::future_status::ready) << "hang";
      try {
        EXPECT_EQ(future.get().status, TaskletStatus::kCompleted);
      } catch (const std::future_error& error) {
        EXPECT_EQ(error.code(), std::future_errc::broken_promise);
      }
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, kSubmitters * kPerSubmitter);
}

TEST(SystemIntegration, CompileTaskletReportsErrorsWithPositions) {
  const auto bad = compile_tasklet("int main( { return 1; }", {});
  ASSERT_FALSE(bad.is_ok());
  EXPECT_NE(bad.status().message().find("1:"), std::string::npos);
}

}  // namespace
}  // namespace tasklets::core

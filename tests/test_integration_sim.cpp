// End-to-end integration tests on the simulation runtime: real TCL programs
// compiled to bytecode, distributed through the broker to simulated
// heterogeneous providers, with churn, faults, QoC and determinism checks.
#include <gtest/gtest.h>

#include <set>

#include "core/kernels.hpp"
#include "core/sim_cluster.hpp"
#include "tcl/compiler.hpp"
#include "core/system.hpp"

namespace tasklets::core {
namespace {

using proto::Qoc;
using proto::SyntheticBody;
using proto::TaskletStatus;

proto::TaskletBody fib_body(std::int64_t n) {
  auto body = compile_tasklet(kernels::kFib, {n});
  EXPECT_TRUE(body.is_ok()) << body.status().to_string();
  return std::move(body).value();
}

TEST(SimIntegration, SingleTaskletCompletesWithCorrectResult) {
  SimCluster cluster;
  cluster.add_provider(sim::desktop_profile());
  const TaskletId id = cluster.submit(fib_body(20));
  ASSERT_TRUE(cluster.run_until_quiescent());
  const auto* report = cluster.report_for(id);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->status, TaskletStatus::kCompleted);
  EXPECT_EQ(std::get<std::int64_t>(report->result), 6765);
  EXPECT_GT(report->fuel_used, 0u);
  EXPECT_GT(report->latency, 0);
}

TEST(SimIntegration, BatchDistributesAcrossProviders) {
  SimCluster cluster;
  cluster.add_providers(sim::desktop_profile(), 4);
  std::vector<TaskletId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(cluster.submit(proto::TaskletBody{SyntheticBody{10'000'000, i, 64}}));
  }
  ASSERT_TRUE(cluster.run_until_quiescent());
  EXPECT_EQ(cluster.completed_ok(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(std::get<std::int64_t>(cluster.report_for(ids[static_cast<std::size_t>(i)])->result), i);
  }
  // All four providers did some of the work.
  const auto completions = cluster.broker().provider_completions();
  int active = 0;
  for (const auto& [id, n] : completions) active += n > 0 ? 1 : 0;
  EXPECT_EQ(active, 4);
}

TEST(SimIntegration, MoreProvidersShortenMakespan) {
  auto makespan = [](std::size_t providers) {
    SimCluster cluster;
    cluster.add_providers(sim::desktop_profile(), providers);
    for (int i = 0; i < 32; ++i) {
      cluster.submit(proto::TaskletBody{SyntheticBody{400'000'000, i, 64}});
    }
    EXPECT_TRUE(cluster.run_until_quiescent());
    SimTime last = 0;
    for (const auto& report : cluster.reports()) {
      last = std::max(last, report.latency);
    }
    return last;
  };
  const SimTime t1 = makespan(1);
  const SimTime t4 = makespan(4);
  const SimTime t8 = makespan(8);
  EXPECT_GT(t1, t4);
  EXPECT_GT(t4, t8);
  // Near-linear scaling for an embarrassingly parallel batch: the desktop
  // profile has 4 slots, so 1 desktop = 4 parallel slots, 8 desktops = 32.
  const double speedup = static_cast<double>(t1) / static_cast<double>(t8);
  EXPECT_GT(speedup, 4.0);
}

TEST(SimIntegration, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimConfig config;
    config.seed = 1234;
    SimCluster cluster(config);
    cluster.add_providers(sim::laptop_profile(), 3);  // churny profile
    cluster.add_providers(sim::sbc_profile(), 2);
    std::vector<TaskletId> ids;
    for (int i = 0; i < 30; ++i) {
      Qoc qoc;
      qoc.redundancy = (i % 3 == 0) ? 2 : 1;
      ids.push_back(cluster.submit_at(
          i * 10 * kMillisecond,
          proto::TaskletBody{SyntheticBody{50'000'000, i, 256}}, qoc));
    }
    EXPECT_TRUE(cluster.run_until_quiescent());
    std::vector<std::pair<std::uint64_t, SimTime>> trace;
    for (const auto& report : cluster.reports()) {
      trace.emplace_back(report.id.value(), report.latency);
    }
    return trace;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(SimIntegration, HeterogeneousPoolFavorsFastDevices) {
  SimConfig config;
  config.scheduler = "qoc_aware";
  SimCluster cluster(config);
  const NodeId server = cluster.add_provider(sim::server_profile());
  const NodeId sbc = cluster.add_provider(sim::sbc_profile());
  for (int i = 0; i < 30; ++i) {
    cluster.submit(proto::TaskletBody{SyntheticBody{100'000'000, i, 64}});
  }
  ASSERT_TRUE(cluster.run_until_quiescent());
  std::uint64_t server_done = 0, sbc_done = 0;
  for (const auto& [id, n] : cluster.broker().provider_completions()) {
    if (id == server) server_done = n;
    if (id == sbc) sbc_done = n;
  }
  EXPECT_GT(server_done, sbc_done * 3);  // 32x speed, 8x slots
}

TEST(SimIntegration, TrapReportsFailedWithError) {
  SimCluster cluster;
  cluster.add_provider(sim::desktop_profile());
  auto body = compile_tasklet("int main(int n) { return 1 / n; }", {std::int64_t{0}});
  ASSERT_TRUE(body.is_ok());
  const TaskletId id = cluster.submit(std::move(body).value());
  ASSERT_TRUE(cluster.run_until_quiescent());
  const auto* report = cluster.report_for(id);
  EXPECT_EQ(report->status, TaskletStatus::kFailed);
  EXPECT_NE(report->error.find("division by zero"), std::string::npos);
}

TEST(SimIntegration, MalformedProgramIsRejectedNotExecuted) {
  SimCluster cluster;
  cluster.add_provider(sim::desktop_profile());
  proto::VmBody body;
  body.program = {std::byte{0xDE}, std::byte{0xAD}};  // not TVM bytecode
  const TaskletId id = cluster.submit(proto::TaskletBody{std::move(body)});
  ASSERT_TRUE(cluster.run_until_quiescent());
  const auto* report = cluster.report_for(id);
  // Verification failure is deterministic -> fail fast, no re-issue.
  EXPECT_EQ(report->status, TaskletStatus::kFailed);
  EXPECT_NE(report->error.find("rejected"), std::string::npos);
}

TEST(SimIntegration, ChurnWithReissueStillCompletes) {
  SimConfig config;
  config.seed = 99;
  SimCluster cluster(config);
  // Heavily churning providers: ~5s sessions, big tasklets (~4s on desktop).
  sim::DeviceProfile flaky = sim::desktop_profile();
  flaky.mean_session = 5 * kSecond;
  flaky.mean_downtime = 2 * kSecond;
  cluster.add_providers(flaky, 6);
  Qoc qoc;
  qoc.max_reissues = 10;
  std::vector<TaskletId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(cluster.submit(
        proto::TaskletBody{SyntheticBody{1'600'000'000, i, 64}}, qoc));
  }
  ASSERT_TRUE(cluster.run_until_quiescent(30 * 60 * kSecond));
  EXPECT_EQ(cluster.completed_ok(), 20u);
  // Churn must actually have bitten: some attempts were lost and re-issued.
  EXPECT_GT(cluster.broker().stats().reissues, 0u);
  for (const auto id : ids) {
    EXPECT_EQ(std::get<std::int64_t>(cluster.report_for(id)->result),
              static_cast<std::int64_t>(id.value() - 1));
  }
}

TEST(SimIntegration, FaultyProvidersOverruledByRedundancy) {
  SimConfig config;
  config.seed = 7;
  SimCluster cluster(config);
  sim::DeviceProfile faulty = sim::desktop_profile();
  faulty.fault_rate = 0.4;  // corrupts 40% of results
  cluster.add_providers(faulty, 5);
  Qoc qoc;
  qoc.redundancy = 3;
  qoc.max_reissues = 20;
  std::vector<TaskletId> ids;
  for (int i = 0; i < 25; ++i) {
    ids.push_back(cluster.submit(
        proto::TaskletBody{SyntheticBody{10'000'000, 1000 + i, 64}}, qoc));
  }
  ASSERT_TRUE(cluster.run_until_quiescent(60 * 60 * kSecond));
  // Every *completed* tasklet must carry the true (majority) value — this is
  // the QoC reliability guarantee.
  std::size_t completed = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto* report = cluster.report_for(ids[i]);
    if (report->status != TaskletStatus::kCompleted) continue;
    ++completed;
    EXPECT_EQ(std::get<std::int64_t>(report->result),
              static_cast<std::int64_t>(1000 + i));
  }
  EXPECT_GT(completed, 20u);  // overwhelming majority completes
  EXPECT_GT(cluster.broker().stats().votes_overruled, 0u);
}

TEST(SimIntegration, WithoutRedundancyFaultsLeakThrough) {
  SimConfig config;
  config.seed = 7;
  SimCluster cluster(config);
  sim::DeviceProfile faulty = sim::desktop_profile();
  faulty.fault_rate = 0.4;
  cluster.add_providers(faulty, 5);
  std::vector<TaskletId> ids;
  for (int i = 0; i < 25; ++i) {
    ids.push_back(cluster.submit(
        proto::TaskletBody{SyntheticBody{10'000'000, 1000 + i, 64}}));
  }
  ASSERT_TRUE(cluster.run_until_quiescent());
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto* report = cluster.report_for(ids[i]);
    if (report->status == TaskletStatus::kCompleted &&
        std::get<std::int64_t>(report->result) !=
            static_cast<std::int64_t>(1000 + i)) {
      ++wrong;
    }
  }
  EXPECT_GT(wrong, 0u);  // the contrast that motivates reliable QoC
}

TEST(SimIntegration, DeadlineQocFailsSlowTasklets) {
  SimCluster cluster;
  cluster.add_provider(sim::sbc_profile());  // 25 Mfuel/s
  Qoc qoc;
  qoc.deadline = 100 * kMillisecond;
  // 2.5e9 fuel on an SBC = 100 s >> deadline.
  const TaskletId id =
      cluster.submit(proto::TaskletBody{SyntheticBody{2'500'000'000, 1, 64}}, qoc);
  ASSERT_TRUE(cluster.run_until_quiescent());
  EXPECT_EQ(cluster.report_for(id)->status, TaskletStatus::kDeadlineExceeded);
}

TEST(SimIntegration, LocalOnlyRunsAtMatchingSite) {
  SimCluster cluster;
  sim::DeviceProfile local = sim::desktop_profile();
  local.locality = "home";
  const NodeId local_provider = cluster.add_provider(local);
  cluster.add_provider(sim::server_profile());  // faster, but remote
  const NodeId consumer = cluster.add_consumer("home");
  Qoc qoc;
  qoc.locality = proto::Locality::kLocalOnly;
  const TaskletId id = cluster.submit(
      proto::TaskletBody{SyntheticBody{50'000'000, 5, 64}}, qoc, consumer);
  ASSERT_TRUE(cluster.run_until_quiescent());
  const auto* report = cluster.report_for(id);
  EXPECT_EQ(report->status, TaskletStatus::kCompleted);
  EXPECT_EQ(report->executed_by, local_provider);
}

TEST(SimIntegration, MandelbrotRowsMatchLocalExecution) {
  constexpr int kWidth = 32;
  constexpr int kHeight = 8;
  // Reference: execute locally.
  auto reference_row = [&](int row) {
    auto body = compile_tasklet(
        kernels::kMandelbrotRow,
        {std::int64_t{kWidth}, std::int64_t{row}, std::int64_t{kHeight}, -2.0,
         1.0, -1.2, 1.2, std::int64_t{64}});
    EXPECT_TRUE(body.is_ok());
    auto program = tvm::Program::deserialize(std::span<const std::byte>(
        body->program.data(), body->program.size()));
    auto outcome = tvm::execute(*program, body->args);
    EXPECT_TRUE(outcome.is_ok());
    return std::get<std::vector<std::int64_t>>(outcome->result);
  };

  SimCluster cluster;
  cluster.add_providers(sim::desktop_profile(), 3);
  std::vector<TaskletId> ids;
  for (int row = 0; row < kHeight; ++row) {
    auto body = compile_tasklet(
        kernels::kMandelbrotRow,
        {std::int64_t{kWidth}, std::int64_t{row}, std::int64_t{kHeight}, -2.0,
         1.0, -1.2, 1.2, std::int64_t{64}});
    ASSERT_TRUE(body.is_ok());
    ids.push_back(cluster.submit(std::move(body).value()));
  }
  ASSERT_TRUE(cluster.run_until_quiescent());
  for (int row = 0; row < kHeight; ++row) {
    const auto* report = cluster.report_for(ids[static_cast<std::size_t>(row)]);
    ASSERT_EQ(report->status, TaskletStatus::kCompleted);
    EXPECT_EQ(std::get<std::vector<std::int64_t>>(report->result),
              reference_row(row))
        << "row " << row;
  }
}

TEST(SimIntegration, SpeculativeBackupRescuesDegradedDevice) {
  SimConfig config;
  config.seed = 3;
  config.broker.straggler_multiplier = 4.0;
  config.broker.straggler_min_samples = 10;
  SimCluster cluster(config);
  cluster.add_providers(sim::desktop_profile(), 2);
  // A degraded device advertising full speed: tasklets placed on it would
  // take 100 s without speculation.
  sim::DeviceProfile degraded = sim::desktop_profile();
  degraded.advertised_speed_fuel_per_sec = degraded.speed_fuel_per_sec;
  degraded.speed_fuel_per_sec = 2e6;
  cluster.add_provider(degraded);

  for (int i = 0; i < 30; ++i) {
    cluster.submit(proto::TaskletBody{proto::SyntheticBody{200'000'000, i, 128}});
  }
  ASSERT_TRUE(cluster.run_until_quiescent(30 * 60 * kSecond));
  EXPECT_EQ(cluster.completed_ok(), 30u);
  EXPECT_GT(cluster.broker().stats().speculations, 0u);
  EXPECT_GT(cluster.broker().stats().speculation_wins, 0u);
  // No tasklet should have waited for the degraded device's full 100 s.
  for (const auto& report : cluster.reports()) {
    EXPECT_LT(report.latency, 30 * kSecond) << report.id.to_string();
  }
}

TEST(SimIntegration, GracefulChurnMigratesInsteadOfRestarting) {
  auto run_mode = [](bool graceful) {
    SimConfig config;
    config.seed = 77;
    SimCluster cluster(config);
    sim::DeviceProfile churny = sim::desktop_profile();
    churny.slots = 2;
    churny.mean_session = 5 * kSecond;   // sessions ~ service time: churn bites
    churny.mean_downtime = 3 * kSecond;
    churny.graceful_leave = graceful;
    cluster.add_providers(churny, 8);
    proto::Qoc qoc;
    qoc.max_reissues = 20;
    for (int i = 0; i < 40; ++i) {
      cluster.submit(proto::TaskletBody{SyntheticBody{1'600'000'000, i, 64}}, qoc);
    }
    EXPECT_TRUE(cluster.run_until_quiescent(60 * 60 * kSecond));
    return std::pair{cluster.completed_ok(), cluster.broker().stats()};
  };

  const auto [crash_done, crash_stats] = run_mode(false);
  const auto [graceful_done, graceful_stats] = run_mode(true);
  EXPECT_EQ(crash_done, 40u);
  EXPECT_EQ(graceful_done, 40u);
  // Graceful churn migrates: checkpoints flow instead of losses.
  EXPECT_GT(graceful_stats.migrations, 0u);
  EXPECT_EQ(graceful_stats.providers_expired, 0u);  // no liveness timeouts
  // Crash churn loses work and re-issues from scratch.
  EXPECT_GT(crash_stats.reissues, 0u);
  EXPECT_EQ(crash_stats.migrations, 0u);
}

TEST(SimIntegration, GracefulChurnPreservesVmResults) {
  SimConfig config;
  config.seed = 5;
  SimCluster cluster(config);
  sim::DeviceProfile churny = sim::sbc_profile();  // slow: 25 Mfuel/s
  churny.mean_session = 4 * kSecond;
  churny.mean_downtime = 2 * kSecond;
  churny.graceful_leave = true;
  cluster.add_providers(churny, 4);

  // ~118 Mfuel => ~4.7 s on an SBC: most executions hit at least one drain.
  std::vector<TaskletId> ids;
  for (int i = 0; i < 8; ++i) {
    auto body = compile_tasklet(kernels::kSpin, {std::int64_t{4'000'000}});
    ASSERT_TRUE(body.is_ok());
    ids.push_back(cluster.submit(std::move(body).value()));
  }
  ASSERT_TRUE(cluster.run_until_quiescent(60 * 60 * kSecond));

  // Reference value computed locally.
  auto program = tcl::compile(kernels::kSpin);
  ASSERT_TRUE(program.is_ok());
  const auto reference = tvm::execute(*program, {std::int64_t{4'000'000}});
  ASSERT_TRUE(reference.is_ok());

  EXPECT_GT(cluster.broker().stats().migrations, 0u);
  for (const TaskletId id : ids) {
    const auto* report = cluster.report_for(id);
    ASSERT_EQ(report->status, TaskletStatus::kCompleted) << report->error;
    // Migrated executions produce the identical result and total fuel.
    EXPECT_TRUE(tvm::args_equal(report->result, reference->result));
    EXPECT_EQ(report->fuel_used, reference->fuel_used);
  }
}

TEST(SimIntegration, MultipleConsumersGetTheirOwnReports) {
  SimCluster cluster;
  cluster.add_providers(sim::desktop_profile(), 2);
  const NodeId alice = cluster.add_consumer("alice-site");
  const NodeId bob = cluster.add_consumer("bob-site");
  const TaskletId a = cluster.submit(
      proto::TaskletBody{SyntheticBody{10'000'000, 111, 64}}, {}, alice);
  const TaskletId b = cluster.submit(
      proto::TaskletBody{SyntheticBody{10'000'000, 222, 64}}, {}, bob);
  ASSERT_TRUE(cluster.run_until_quiescent());
  EXPECT_EQ(std::get<std::int64_t>(cluster.report_for(a)->result), 111);
  EXPECT_EQ(std::get<std::int64_t>(cluster.report_for(b)->result), 222);
}

TEST(SimIntegration, OpenLoopArrivalsRespectSubmitTimes) {
  SimCluster cluster;
  cluster.add_provider(sim::desktop_profile());
  const TaskletId early = cluster.submit_at(
      0, proto::TaskletBody{SyntheticBody{1'000'000, 1, 64}});
  const TaskletId late = cluster.submit_at(
      10 * kSecond, proto::TaskletBody{SyntheticBody{1'000'000, 2, 64}});
  ASSERT_TRUE(cluster.run_until_quiescent());
  // Latency is measured from submission, so both are small, but the run's
  // virtual end time must reflect the late arrival.
  EXPECT_GE(cluster.now(), 10 * kSecond);
  EXPECT_LT(cluster.report_for(early)->latency, kSecond);
  EXPECT_LT(cluster.report_for(late)->latency, kSecond);
}

TEST(SimIntegration, CostAccountingAccumulates) {
  SimCluster cluster;
  cluster.add_provider(sim::server_profile());  // 4.0 per Gfuel
  cluster.submit(proto::TaskletBody{SyntheticBody{1'000'000'000, 1, 64}});
  ASSERT_TRUE(cluster.run_until_quiescent());
  EXPECT_NEAR(cluster.total_cost(), 4.0, 1e-9);
}

}  // namespace
}  // namespace tasklets::core

// Adaptive-scheduling suite: the measurement -> placement feedback loop.
//
// Four layers under test:
//   * SpeedEstimator / CompletionTracker — EWMA property tests (bounds,
//     convergence, decay after a step change) over random sample streams,
//   * the `adaptive` policy — measured speed overrides the advertised
//     benchmark once the estimator is confident,
//   * the broker feedback path — completions feed the estimator, the
//     quantile straggler defense fences and reassigns, deadline admission
//     control rejects infeasible submits,
//   * the dynamism scenario generators — deterministic under a fixed seed,
//     byte-identical metrics snapshots across repeated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "broker/speed_estimator.hpp"
#include "broker_harness.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/sim_cluster.hpp"
#include "sim/profiles.hpp"

namespace tasklets::broker {
namespace {

using proto::AssignTasklet;
using proto::DeviceClass;
using proto::Qoc;
using proto::TaskletDone;
using testing::BrokerHarness;
using testing::capability;
using testing::context_for;
using testing::kConsumer;
using testing::spec_with;
using testing::view;

// --- SpeedEstimator properties ----------------------------------------------

TEST(SpeedEstimator, EstimateStaysWithinObservedBounds) {
  // The EWMA is a convex combination of samples, so whatever the stream
  // looks like the estimate must lie inside [min_observed, max_observed].
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    SpeedEstimator est;
    for (int i = 0; i < 200; ++i) {
      // Log-uniform speeds across 5 decades and wildly varying durations.
      const double speed = 1e3 * std::pow(10.0, 5.0 * rng.uniform());
      const double seconds = 0.01 + 10.0 * rng.uniform();
      est.record(speed * seconds, seconds);
      ASSERT_GE(est.estimate(), est.min_observed());
      ASSERT_LE(est.estimate(), est.max_observed());
    }
  }
}

TEST(SpeedEstimator, ConvergesUnderStationaryInput) {
  SpeedEstimator est;
  for (int i = 0; i < 50; ++i) est.record(5e6, 1.0);
  EXPECT_NEAR(est.estimate(), 5e6, 1.0);

  // Noisy but stationary: the estimate settles inside the support.
  Rng rng(99);
  SpeedEstimator noisy;
  for (int i = 0; i < 500; ++i) noisy.record(4e6 + 2e6 * rng.uniform(), 1.0);
  EXPECT_GT(noisy.estimate(), 4e6);
  EXPECT_LT(noisy.estimate(), 6e6);
  EXPECT_NEAR(noisy.estimate(), 5e6, 1e6);
}

TEST(SpeedEstimator, DecaysAfterStepChange) {
  // A provider that was fast and then degrades: the estimate must move
  // monotonically down toward the new level and get close within a few
  // dozen samples (this is the straggler-detection latency).
  SpeedEstimator est;
  for (int i = 0; i < 20; ++i) est.record(100e6, 1.0);
  double prev = est.estimate();
  EXPECT_NEAR(prev, 100e6, 1e3);
  for (int i = 0; i < 30; ++i) {
    est.record(10e6, 1.0);
    EXPECT_LT(est.estimate(), prev);
    prev = est.estimate();
  }
  EXPECT_NEAR(est.estimate(), 10e6, 0.05 * 10e6);
}

TEST(SpeedEstimator, IgnoresSamplesWithNoSpeedInformation) {
  SpeedEstimator est;
  est.record(0.0, 1.0);    // zero-fuel body
  est.record(-5.0, 1.0);   // nonsense fuel
  est.record(1000.0, 0.0);  // zero elapsed (clock anomaly)
  est.record(1000.0, -1.0);
  EXPECT_EQ(est.samples(), 0u);
  EXPECT_EQ(est.estimate(), 0.0);
  EXPECT_FALSE(est.confident());
}

TEST(SpeedEstimator, ConfidenceGatesEffectiveSpeed) {
  SpeedEstimatorConfig config;
  config.min_samples = 3;
  SpeedEstimator est(config);
  est.record(1e6, 1.0);
  est.record(1e6, 1.0);
  EXPECT_FALSE(est.confident());
  EXPECT_EQ(est.effective_speed(400e6), 400e6);  // advertised until confident
  est.record(1e6, 1.0);
  EXPECT_TRUE(est.confident());
  EXPECT_NEAR(est.effective_speed(400e6), 1e6, 1.0);
}

// --- CompletionTracker -------------------------------------------------------

TEST(CompletionTracker, BoundStaysZeroUntilMinSamples) {
  CompletionTracker tracker;
  for (int i = 0; i < 4; ++i) tracker.record(1 * kSecond);
  EXPECT_EQ(tracker.bound(0.95, 3.0, 5), SimTime{0});
  tracker.record(1 * kSecond);
  EXPECT_GT(tracker.bound(0.95, 3.0, 5), SimTime{0});
}

TEST(CompletionTracker, BoundTracksQuantileTimesMultiplier) {
  CompletionTracker tracker;
  for (int i = 0; i < 100; ++i) tracker.record(1 * kSecond);
  // Log-bucketed histogram: allow generous bucket slack around 3 x 1s.
  const SimTime bound = tracker.bound(0.95, 3.0, 20);
  EXPECT_GT(bound, 2 * kSecond);
  EXPECT_LT(bound, 5 * kSecond);
}

// --- the adaptive policy -----------------------------------------------------

TEST(AdaptivePolicy, MeasuredSpeedOverridesAdvertisedBenchmark) {
  // Provider 2 advertises 800 Mfuel/s but measures at 10 Mfuel/s (a
  // straggler with a stale benchmark); provider 3 honestly advertises
  // 400 Mfuel/s. The static policy trusts the lie; adaptive corrects it.
  std::vector<ProviderView> pool = {view(2, DeviceClass::kServer, 800e6, 4, 0),
                                    view(3, DeviceClass::kDesktop, 400e6, 4, 0)};
  pool[0].measured_speed_fuel_per_sec = 10e6;
  pool[0].speed_samples = 5;
  const auto context = context_for(pool);
  const auto spec = spec_with({});
  Rng rng(1);

  EXPECT_EQ(make_scheduler("qoc_aware").value()->pick(spec, context, rng),
            NodeId{2});
  EXPECT_EQ(make_scheduler("adaptive").value()->pick(spec, context, rng),
            NodeId{3});
}

TEST(AdaptivePolicy, FallsBackToAdvertisedBeforeConfidence) {
  // No published measurement yet (the broker publishes 0 until the
  // estimator is confident): adaptive behaves exactly like qoc_aware.
  const std::vector<ProviderView> pool = {
      view(2, DeviceClass::kServer, 800e6, 4, 0),
      view(3, DeviceClass::kDesktop, 400e6, 4, 0)};
  const auto context = context_for(pool);
  const auto spec = spec_with({});
  Rng rng(1);
  EXPECT_EQ(make_scheduler("adaptive").value()->pick(spec, context, rng),
            NodeId{2});
}

TEST(AdaptivePolicy, FactoryExposesAdaptive) {
  auto scheduler = make_scheduler("adaptive");
  ASSERT_TRUE(scheduler.is_ok());
  EXPECT_EQ((*scheduler)->name(), "adaptive");
}

// --- broker feedback path ----------------------------------------------------

TEST(BrokerFeedback, CompletionRecordsSpeedSample) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.submit({}, 5);
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  h.now += 2 * kSecond;
  h.complete(assigns[0].first, assigns[0].second, 5, /*fuel=*/1000);
  EXPECT_EQ(h.broker().speed_samples(NodeId{2}), 1u);
  // 1000 fuel over 2 s of attempt lifetime = 500 fuel/s effective.
  EXPECT_NEAR(h.broker().measured_speed(NodeId{2}), 500.0, 1e-6);
  EXPECT_EQ(h.broker().completion_samples(), 1u);
}

TEST(BrokerFeedback, FailedAttemptRecordsNoSample) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 5);
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  h.now += 2 * kSecond;
  h.fail_attempt(assigns[0].first, assigns[0].second,
                 proto::AttemptStatus::kProviderLost);
  EXPECT_EQ(h.broker().speed_samples(assigns[0].first), 0u);
  EXPECT_EQ(h.broker().completion_samples(), 0u);
}

TEST(BrokerFeedback, EstimatorSurvivesReRegistration) {
  // Same hardware rejoining keeps its history: a straggler cannot launder
  // its measured record by dropping and re-registering.
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.submit({}, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  h.now += 1 * kSecond;
  h.complete(assigns[0].first, assigns[0].second, 5);
  ASSERT_EQ(h.broker().speed_samples(NodeId{2}), 1u);
  h.deliver(NodeId{2}, proto::DeregisterProvider{});
  h.register_provider(NodeId{2});
  EXPECT_EQ(h.broker().speed_samples(NodeId{2}), 1u);
}

TEST(StragglerDefense, SpeculatesPastBoundAndFencesPastTwiceBound) {
  BrokerConfig config;
  config.straggler_multiplier = 3.0;
  config.straggler_min_samples = 5;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 100e6, 4));
  h.register_provider(NodeId{3}, capability(DeviceClass::kDesktop, 100e6, 4));
  h.feed_completions(5, 1 * kSecond);  // bound ~= 3 x p95(1s) ~= 3s

  h.submit({}, 9);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const auto original = assigns[0];

  // Past the bound but under twice it: one speculative backup, no fence.
  h.now += 4 * kSecond;
  h.heartbeat(NodeId{2});
  h.heartbeat(NodeId{3});
  h.fire_timer(1);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_NE(assigns[1].first, original.first);
  EXPECT_EQ(h.broker().stats().speculations, 1u);
  EXPECT_EQ(h.broker().stats().straggler_reassigns, 0u);

  // Past twice the bound: the original attempt is fenced. The live backup
  // is already the replacement, so no additional assign is issued.
  h.now += 4 * kSecond;
  h.heartbeat(NodeId{2});
  h.heartbeat(NodeId{3});
  h.fire_timer(1);
  EXPECT_EQ(h.broker().stats().straggler_reassigns, 1u);

  // The fenced original's late result is ignored; the backup's counts.
  const auto before = h.broker().stats().duplicate_results;
  h.complete(original.first, original.second, 9);
  EXPECT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 0u);
  EXPECT_EQ(h.broker().stats().duplicate_results, before + 1);
  h.complete(assigns[1].first, assigns[1].second, 9);
  EXPECT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
}

TEST(StragglerDefense, StaysQuietBelowMinSamples) {
  BrokerConfig config;
  config.straggler_multiplier = 3.0;
  config.straggler_min_samples = 50;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.feed_completions(5, 1 * kSecond);
  h.submit({}, 9);
  h.now += 60 * kSecond;
  h.heartbeat(NodeId{2});
  h.heartbeat(NodeId{3});
  h.fire_timer(1);
  EXPECT_EQ(h.broker().stats().speculations, 0u);
  EXPECT_EQ(h.broker().stats().straggler_reassigns, 0u);
}

// --- deadline admission control ----------------------------------------------

TEST(AdmissionControl, RejectsInfeasibleDeadline) {
  BrokerConfig config;
  config.admission_control = true;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 100e6));
  // 1000 fuel at 100 Mfuel/s predicts ~12.5 us with safety; a 1 ns deadline
  // cannot be met by anything in this pool.
  Qoc qoc;
  qoc.deadline = 1;
  h.submit(qoc, 5);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 0u);
  EXPECT_EQ(h.broker().stats().admission_rejected, 1u);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, proto::TaskletStatus::kUnschedulable);
}

TEST(AdmissionControl, AdmitsFeasibleDeadline) {
  BrokerConfig config;
  config.admission_control = true;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 100e6));
  Qoc qoc;
  qoc.deadline = 1 * kSecond;
  h.submit(qoc, 5);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
  EXPECT_EQ(h.broker().stats().admission_rejected, 0u);
}

TEST(AdmissionControl, UsesMeasuredSpeedNotAdvertised) {
  // The provider advertises 100 Mfuel/s but measures at ~100 fuel/s; once
  // the estimator is confident, admission predicts from the measurement.
  BrokerConfig config;
  config.admission_control = true;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 100e6));
  h.feed_completions(3, 10 * kSecond);  // 1000 fuel / 10 s = 100 fuel/s
  Qoc qoc;
  qoc.deadline = 1 * kSecond;  // needs ~12.5 s at measured speed
  h.submit(qoc, 5);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 0u);
  EXPECT_EQ(h.broker().stats().admission_rejected, 1u);
}

TEST(AdmissionControl, OffByDefault) {
  BrokerHarness h;
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 100e6));
  Qoc qoc;
  qoc.deadline = 1;  // absurd, but admission control is opt-in
  h.submit(qoc, 5);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
  EXPECT_EQ(h.broker().stats().admission_rejected, 0u);
}

}  // namespace
}  // namespace tasklets::broker

// --- scenario generators and determinism ------------------------------------

namespace tasklets::sim {
namespace {

TEST(ScenarioGenerators, StragglerProfileKeepsAdvertisingOldBenchmark) {
  const DeviceProfile base = desktop_profile();
  const DeviceProfile s = straggler_profile(base, 0.1);
  EXPECT_DOUBLE_EQ(s.speed_fuel_per_sec, 0.1 * base.speed_fuel_per_sec);
  EXPECT_DOUBLE_EQ(s.advertised_speed_fuel_per_sec, base.speed_fuel_per_sec);
  // The capability (what the broker sees) carries the stale benchmark.
  EXPECT_DOUBLE_EQ(s.capability().speed_fuel_per_sec, base.speed_fuel_per_sec);
  EXPECT_NE(s.name.find("straggler"), std::string::npos);
}

TEST(ScenarioGenerators, ChurnTraceIsMonotoneAndDeterministic) {
  Rng rng_a(7);
  Rng rng_b(7);
  const auto a = make_churn_trace(6, 2 * kSecond, 120 * kSecond, 10 * kSecond,
                                  5 * kSecond, rng_a);
  const auto b = make_churn_trace(6, 2 * kSecond, 120 * kSecond, 10 * kSecond,
                                  5 * kSecond, rng_b);
  EXPECT_EQ(a, b);
  ASSERT_FALSE(a.empty());
  SimTime prev = 2 * kSecond;
  for (const auto& [down, up] : a) {
    EXPECT_GE(down, prev);
    EXPECT_GT(up, down);
    EXPECT_LT(down, 120 * kSecond);
    prev = up;
  }
}

TEST(ScenarioGenerators, CorrelatedFailureSharesOneWindow) {
  std::vector<DeviceProfile> group(4, laptop_profile());
  add_correlated_failure(group, 5 * kSecond, 15 * kSecond);
  for (const auto& p : group) {
    ASSERT_EQ(p.churn_trace.size(), 1u);
    EXPECT_EQ(p.churn_trace[0].first, 5 * kSecond);
    EXPECT_EQ(p.churn_trace[0].second, 15 * kSecond);
  }
}

TEST(ScenarioGenerators, DiurnalArrivalsAreSortedAndDeterministic) {
  Rng rng_a(11);
  Rng rng_b(11);
  const auto a = diurnal_arrivals(50, 100 * kMillisecond, 0.5, 5 * kSecond, rng_a);
  const auto b = diurnal_arrivals(50, 100 * kMillisecond, 0.5, 5 * kSecond, rng_b);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
}

TEST(ScenarioGenerators, ZeroAmplitudeDiurnalIsPlainPoisson) {
  Rng rng_a(13);
  Rng rng_b(13);
  const auto flat = diurnal_arrivals(30, 50 * kMillisecond, 0.0, 5 * kSecond, rng_a);
  const auto poisson = poisson_arrivals(30, 50 * kMillisecond, rng_b);
  EXPECT_EQ(flat, poisson);
}

// One small end-to-end run of a dynamism scenario; returns a full textual
// fingerprint (metrics snapshot + per-tasklet report lines). Two runs with
// the same seed must produce byte-identical fingerprints.
std::string run_scenario(const std::string& scenario, std::uint64_t seed) {
  metrics::MetricsRegistry::instance().reset();
  core::SimConfig config;
  config.scheduler = "adaptive";
  config.seed = seed;
  config.broker.straggler_multiplier = 3.0;
  config.broker.straggler_min_samples = 10;
  core::SimCluster cluster(config);

  Rng scenario_rng(seed * 31 + 1);
  cluster.add_providers(desktop_profile(), 2);
  cluster.add_provider(straggler_profile(desktop_profile(), 0.05));
  DeviceProfile laptop = laptop_profile();
  laptop.mean_session = 0;
  if (scenario == "churn_trace") {
    for (int i = 0; i < 2; ++i) {
      DeviceProfile churny = laptop;
      churny.churn_trace = make_churn_trace(3, 1 * kSecond, 20 * kSecond,
                                            4 * kSecond, 2 * kSecond,
                                            scenario_rng);
      cluster.add_provider(churny);
    }
  } else if (scenario == "correlated") {
    std::vector<DeviceProfile> group(2, laptop);
    add_correlated_failure(group, 2 * kSecond, 6 * kSecond);
    for (const auto& p : group) cluster.add_provider(p);
  } else {
    cluster.add_providers(laptop, 2);
  }

  Rng arrival_rng(seed * 131 + 7);
  const auto arrivals =
      scenario == "diurnal"
          ? diurnal_arrivals(40, 50 * kMillisecond, 0.5, 2 * kSecond,
                             arrival_rng)
          : poisson_arrivals(40, 50 * kMillisecond, arrival_rng);
  proto::Qoc qoc;
  qoc.deadline = 6 * kSecond;
  for (const SimTime when : arrivals) {
    const std::uint64_t fuel =
        arrival_rng.uniform() < 0.25 ? 100'000'000 : 10'000'000;
    cluster.submit_at(when, proto::TaskletBody{proto::SyntheticBody{fuel, 1, 64}},
                      qoc);
  }
  cluster.run_until_quiescent(10 * 60 * kSecond);

  std::string fingerprint = metrics::MetricsRegistry::instance().snapshot().to_text();
  for (const auto& report : cluster.reports()) {
    fingerprint += std::to_string(report.id.value()) + " " +
                   std::to_string(static_cast<int>(report.status)) + " " +
                   std::to_string(report.latency) + " " +
                   std::to_string(report.attempts) + "\n";
  }
  return fingerprint;
}

class ScenarioDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioDeterminism, FixedSeedGivesByteIdenticalMetrics) {
  const std::string scenario = GetParam();
  const std::string first = run_scenario(scenario, 17);
  const std::string second = run_scenario(scenario, 17);
  EXPECT_EQ(first, second) << scenario << " run diverged under a fixed seed";
  // And the fingerprint is non-trivial: the run actually completed work.
  EXPECT_NE(first.find("broker.attempts_ok"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioDeterminism,
                         ::testing::Values("straggler", "diurnal",
                                           "churn_trace", "correlated"));

}  // namespace
}  // namespace tasklets::sim

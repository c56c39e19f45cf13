// Unit tests for the broker state machine and the scheduling policies. The
// broker is a pure actor: tests feed it envelopes/timers directly and
// inspect the outbox — no runtime, no threads, no virtual clock needed.
#include <gtest/gtest.h>

#include <algorithm>

#include "broker/broker.hpp"
#include "broker/scheduling.hpp"
#include "broker_harness.hpp"

namespace tasklets::broker {
namespace {

using proto::AssignTasklet;
using proto::AttemptResult;
using proto::AttemptStatus;
using proto::Capability;
using proto::DeviceClass;
using proto::Envelope;
using proto::Heartbeat;
using proto::Locality;
using proto::Message;
using proto::Qoc;
using proto::RegisterProvider;
using proto::SubmitTasklet;
using proto::SyntheticBody;
using proto::TaskletDone;
using proto::TaskletSpec;
using proto::TaskletStatus;

// The harness and pool-builder helpers are shared with test_scheduling (and
// the benches' policy sweeps) via broker_harness.hpp.
using testing::BrokerHarness;
using testing::capability;
using testing::context_for;
using testing::kBrokerId;
using testing::kConsumer;
using testing::spec_with;
using testing::view;

// --- registration & matchmaking -------------------------------------------------

TEST(BrokerTest, RegisterThenSubmitAssigns) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.submit();
  const auto assigns = h.sent_to<AssignTasklet>(NodeId{2});
  ASSERT_EQ(assigns.size(), 1u);
  EXPECT_EQ(assigns[0].tasklet, TaskletId{1});
  EXPECT_TRUE(std::holds_alternative<SyntheticBody>(assigns[0].body));
  EXPECT_EQ(h.broker().stats().attempts_issued, 1u);
}

TEST(BrokerTest, SubmitBeforeAnyProviderQueuesThenExpiresUnschedulable) {
  BrokerHarness h;
  h.submit();
  // Queued, not failed: providers may still be registering.
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());
  EXPECT_EQ(h.broker().queue_length(), 1u);
  // Within the grace period the scan leaves it queued.
  h.now += 500 * kMillisecond;
  h.fire_timer(1);
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());
  // Past the grace period with still no provider: unschedulable.
  h.now += 3 * kSecond;
  h.fire_timer(1);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, TaskletStatus::kUnschedulable);
  EXPECT_EQ(h.broker().stats().tasklets_unschedulable, 1u);
}

TEST(BrokerTest, LateRegistrationRescuesQueuedTasklet) {
  BrokerHarness h;
  h.submit({}, 5);
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());
  h.now += 1 * kSecond;
  h.register_provider(NodeId{2});  // arrives before the grace expires
  const auto assigns = h.sent_to<AssignTasklet>(NodeId{2});
  ASSERT_EQ(assigns.size(), 1u);
  h.complete(NodeId{2}, assigns[0], 5);
  ASSERT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
  EXPECT_EQ(h.sent_to<TaskletDone>(kConsumer)[0].report.status,
            TaskletStatus::kCompleted);
}

TEST(BrokerTest, ResultCompletesTasklet) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  const TaskletId id = h.submit({}, 42);
  const auto assigns = h.sent_to<AssignTasklet>(NodeId{2});
  ASSERT_EQ(assigns.size(), 1u);
  h.now += 5 * kMillisecond;
  h.complete(NodeId{2}, assigns[0], 42, 1000);

  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  const auto& report = dones[0].report;
  EXPECT_EQ(report.id, id);
  EXPECT_EQ(report.status, TaskletStatus::kCompleted);
  EXPECT_EQ(std::get<std::int64_t>(report.result), 42);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.executed_by, NodeId{2});
  EXPECT_EQ(report.latency, 5 * kMillisecond);
  EXPECT_EQ(h.broker().stats().tasklets_completed, 1u);
}

TEST(BrokerTest, QueuesWhenSaturatedAndDrainsOnCompletion) {
  BrokerHarness h;
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 100e6, 1));
  h.submit({}, 1);
  h.submit({}, 2);
  auto assigns = h.sent_to<AssignTasklet>(NodeId{2});
  ASSERT_EQ(assigns.size(), 1u);  // slot limit respected
  EXPECT_EQ(h.broker().queue_length(), 1u);

  h.complete(NodeId{2}, assigns[0], 1);
  assigns = h.sent_to<AssignTasklet>(NodeId{2});
  ASSERT_EQ(assigns.size(), 2u);  // second tasklet drained
  EXPECT_EQ(h.broker().queue_length(), 0u);
}

TEST(BrokerTest, NeverAssignsToOfflineProvider) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.deliver(NodeId{2}, proto::DeregisterProvider{});
  h.submit();
  EXPECT_TRUE(h.sent_to<AssignTasklet>(NodeId{2}).empty());
  // Tasklet remains queued (provider exists, merely offline — it is
  // satisfiable and waits for capacity).
  EXPECT_EQ(h.broker().queue_length(), 1u);
}

// --- QoC filters ------------------------------------------------------------------

TEST(BrokerTest, LocalOnlyMatchesLocalityTag) {
  BrokerHarness h;
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 1e8, 1, "site-a"));
  h.register_provider(NodeId{3}, capability(DeviceClass::kServer, 8e8, 8, "site-b"));
  Qoc qoc;
  qoc.locality = Locality::kLocalOnly;
  h.submit(qoc, 7, "site-a");
  EXPECT_EQ(h.sent_to<AssignTasklet>(NodeId{2}).size(), 1u);
  EXPECT_TRUE(h.sent_to<AssignTasklet>(NodeId{3}).empty());
}

TEST(BrokerTest, RemoteOnlyExcludesOwnSite) {
  BrokerHarness h;
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 1e8, 1, "site-a"));
  h.register_provider(NodeId{3}, capability(DeviceClass::kSbc, 25e6, 1, "site-b"));
  Qoc qoc;
  qoc.locality = Locality::kRemoteOnly;
  h.submit(qoc, 7, "site-a");
  EXPECT_TRUE(h.sent_to<AssignTasklet>(NodeId{2}).empty());
  EXPECT_EQ(h.sent_to<AssignTasklet>(NodeId{3}).size(), 1u);
}

TEST(BrokerTest, LocalOnlyWithNoMatchingSiteIsUnschedulable) {
  BrokerHarness h;
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 1e8, 1, "site-b"));
  Qoc qoc;
  qoc.locality = Locality::kLocalOnly;
  h.submit(qoc, 7, "site-a");
  h.now += 3 * kSecond;  // past the unschedulable grace period
  h.fire_timer(1);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, TaskletStatus::kUnschedulable);
}

TEST(BrokerTest, CostCeilingFiltersExpensiveProviders) {
  BrokerHarness h;
  h.register_provider(NodeId{2}, capability(DeviceClass::kServer, 8e8, 8, "", 4.0));
  h.register_provider(NodeId{3}, capability(DeviceClass::kSbc, 25e6, 1, "", 0.1));
  Qoc qoc;
  qoc.cost_ceiling = 1.0;
  h.submit(qoc);
  EXPECT_TRUE(h.sent_to<AssignTasklet>(NodeId{2}).empty());
  EXPECT_EQ(h.sent_to<AssignTasklet>(NodeId{3}).size(), 1u);
}

// --- redundancy & voting ------------------------------------------------------------

TEST(BrokerTest, RedundantReplicasGoToDistinctProviders) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.register_provider(NodeId{4});
  Qoc qoc;
  qoc.redundancy = 3;
  h.submit(qoc);
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 3u);
  std::vector<NodeId> targets;
  for (const auto& [to, assign] : assigns) targets.push_back(to);
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, (std::vector<NodeId>{NodeId{2}, NodeId{3}, NodeId{4}}));
}

TEST(BrokerTest, MajorityVoteOverrulesCorruptReplica) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.register_provider(NodeId{4});
  Qoc qoc;
  qoc.redundancy = 3;
  h.submit(qoc, 42);
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 3u);
  // One corrupt result, two honest ones.
  h.complete(assigns[0].first, assigns[0].second, 666);
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());  // no majority yet
  h.complete(assigns[1].first, assigns[1].second, 42);
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());  // 1 vs 1
  h.complete(assigns[2].first, assigns[2].second, 42);

  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(dones[0].report.result), 42);
  EXPECT_EQ(dones[0].report.attempts, 3u);
  EXPECT_EQ(h.broker().stats().votes_overruled, 1u);
}

TEST(BrokerTest, RedundancyTwoCompletesOnAgreement) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  Qoc qoc;
  qoc.redundancy = 2;
  h.submit(qoc, 9);
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  h.complete(assigns[0].first, assigns[0].second, 9);
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());
  h.complete(assigns[1].first, assigns[1].second, 9);
  ASSERT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
}

TEST(BrokerTest, DisagreementTriggersTieBreakerReplica) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.register_provider(NodeId{4});
  Qoc qoc;
  qoc.redundancy = 2;
  h.submit(qoc, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  h.complete(assigns[0].first, assigns[0].second, 5);
  h.complete(assigns[1].first, assigns[1].second, 999);  // disagreement
  // A tie-breaker replica must go to the remaining provider.
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 3u);
  EXPECT_EQ(assigns[2].first, NodeId{4});
  h.complete(assigns[2].first, assigns[2].second, 5);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(dones[0].report.result), 5);
}

// --- failures, re-issue, liveness ------------------------------------------------

TEST(BrokerTest, TrapFailsImmediatelyWithoutReissue) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit();
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  h.fail_attempt(assigns[0].first, assigns[0].second, AttemptStatus::kTrap,
                 "ABORTED: array index out of bounds");
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, TaskletStatus::kFailed);
  EXPECT_NE(dones[0].report.error.find("out of bounds"), std::string::npos);
  // No re-issue happened: deterministic failures don't retry.
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
  EXPECT_EQ(h.broker().stats().reissues, 0u);
}

TEST(BrokerTest, RejectionTriggersReissue) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const NodeId first = assigns[0].first;
  h.fail_attempt(first, assigns[0].second, AttemptStatus::kRejected);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_NE(assigns[1].first, first);  // prefers a fresh provider
  EXPECT_EQ(h.broker().stats().reissues, 1u);
  h.complete(assigns[1].first, assigns[1].second, 5);
  EXPECT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
}

TEST(BrokerTest, ExhaustedAfterReissueBudget) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  Qoc qoc;
  qoc.max_reissues = 1;
  h.submit(qoc);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  h.fail_attempt(NodeId{2}, assigns[0].second, AttemptStatus::kProviderLost);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);  // one re-issue
  h.fail_attempt(NodeId{2}, assigns[1].second, AttemptStatus::kProviderLost);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, TaskletStatus::kExhausted);
  EXPECT_EQ(h.broker().stats().tasklets_exhausted, 1u);
}

TEST(BrokerTest, RejectionsUseSeparateBudget) {
  BrokerConfig config;
  config.max_rejections = 2;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2});
  Qoc qoc;
  qoc.max_reissues = 0;  // rejections must not consume this budget
  h.submit(qoc);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  h.fail_attempt(NodeId{2}, assigns[0].second, AttemptStatus::kRejected);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);  // re-placed despite max_reissues == 0
  h.fail_attempt(NodeId{2}, assigns[1].second, AttemptStatus::kRejected);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 3u);
  h.fail_attempt(NodeId{2}, assigns[2].second, AttemptStatus::kRejected);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, TaskletStatus::kExhausted);
}

TEST(BrokerTest, DeregisterReissuesInflightWork) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const NodeId victim = assigns[0].first;
  h.deliver(victim, proto::DeregisterProvider{});
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_NE(assigns[1].first, victim);
  h.complete(assigns[1].first, assigns[1].second, 5);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, TaskletStatus::kCompleted);
}

TEST(BrokerTest, HeartbeatTimeoutExpiresProviderAndReissues) {
  BrokerConfig config;
  config.heartbeat_interval = 1 * kSecond;
  config.liveness_multiplier = 3.0;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2}, capability(DeviceClass::kServer, 8e8, 8));
  h.register_provider(NodeId{3}, capability(DeviceClass::kSbc, 25e6, 1));
  h.submit({}, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  EXPECT_EQ(assigns[0].first, NodeId{2});  // qoc_aware picks the fast server

  // Only the SBC keeps heartbeating; the server goes silent.
  h.now += 2 * kSecond;
  h.heartbeat(NodeId{3});
  h.now += 2 * kSecond;  // server is now 4s stale (> 3x interval)
  h.fire_timer(1);       // liveness scan

  EXPECT_EQ(h.broker().stats().providers_expired, 1u);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_EQ(assigns[1].first, NodeId{3});
  EXPECT_EQ(h.broker().online_provider_count(), 1u);

  // The expired provider's heartbeat revives it.
  h.heartbeat(NodeId{2});
  EXPECT_EQ(h.broker().online_provider_count(), 2u);
}

TEST(BrokerTest, LateResultAfterReissueIsIgnored) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  const auto first_assign = assigns[0];
  h.deliver(first_assign.first, proto::DeregisterProvider{});  // reissue
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  h.complete(assigns[1].first, assigns[1].second, 5);  // completes
  ASSERT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
  // The zombie's result for the dead attempt arrives late: must be ignored.
  h.complete(first_assign.first, first_assign.second, 999);
  EXPECT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
}

TEST(BrokerTest, DeadlineTimerFailsOverdueTasklet) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  Qoc qoc;
  qoc.deadline = 10 * kMillisecond;
  const TaskletId id = h.submit(qoc);
  h.now += 20 * kMillisecond;
  h.fire_timer((1ULL << 63) | id.value());
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, TaskletStatus::kDeadlineExceeded);
  // A result arriving after the deadline is ignored.
  const auto assigns = h.all_sent<AssignTasklet>();
  h.complete(assigns[0].first, assigns[0].second);
  EXPECT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
}

TEST(BrokerTest, CancelSuppressesCompletion) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  const TaskletId id = h.submit();
  h.deliver(kConsumer, proto::CancelTasklet{id});
  const auto assigns = h.all_sent<AssignTasklet>();
  h.complete(assigns[0].first, assigns[0].second);
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());
}

// --- speculative execution (straggler mitigation) ---------------------------------

TEST(BrokerTest, SpeculativeBackupIssuedForStraggler) {
  BrokerConfig config;
  config.straggler_multiplier = 2.0;
  config.straggler_min_samples = 5;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.feed_completions(5, 1 * kSecond);  // bound ~= 2 x p95(1s) ~= 2s
  h.submit({}, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const NodeId original = assigns[0].first;

  // Keep both providers alive, let the attempt exceed the bound.
  h.now += 3 * kSecond;
  h.heartbeat(NodeId{2});
  h.heartbeat(NodeId{3});
  h.fire_timer(1);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);  // backup issued
  EXPECT_NE(assigns[1].first, original);
  EXPECT_EQ(assigns[1].second.tasklet, assigns[0].second.tasklet);
  EXPECT_EQ(h.broker().stats().speculations, 1u);

  // Only one backup ever: another scan adds nothing (the original, now past
  // twice the bound, is fenced, and the live backup is its replacement).
  h.now += 3 * kSecond;
  h.heartbeat(NodeId{2});
  h.heartbeat(NodeId{3});
  h.fire_timer(1);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 2u);

  // Backup finishes first: tasklet completes, win recorded.
  h.complete(assigns[1].first, assigns[1].second, 5);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(dones[0].report.result), 5);
  EXPECT_EQ(h.broker().stats().speculation_wins, 1u);
  // The straggler's late result is discarded quietly.
  h.complete(assigns[0].first, assigns[0].second, 5);
  EXPECT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
}

TEST(BrokerTest, SpeculationDisabledByDefault) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.feed_completions(30, 1 * kSecond);
  h.submit({}, 5);
  h.now += 60 * kSecond;
  h.heartbeat(NodeId{2});
  h.heartbeat(NodeId{3});
  h.fire_timer(1);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
  EXPECT_EQ(h.broker().stats().speculations, 0u);
}

TEST(BrokerTest, SpeculationSkipsRedundantTasklets) {
  BrokerConfig config;
  config.straggler_multiplier = 2.0;
  config.straggler_min_samples = 5;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.register_provider(NodeId{4});
  h.feed_completions(5, 1 * kSecond);
  Qoc qoc;
  qoc.redundancy = 2;
  h.submit(qoc, 5);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 2u);
  // Past the bound, short of twice it (which would fence).
  h.now += 3 * kSecond;
  for (std::uint64_t p = 2; p <= 4; ++p) h.heartbeat(NodeId{p});
  h.fire_timer(1);
  // Redundant tasklets already have replicas; no speculation on top.
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 2u);
  EXPECT_EQ(h.broker().stats().speculations, 0u);
}

TEST(BrokerTest, OriginalWinningBeatsBackupWithoutWinStat) {
  BrokerConfig config;
  config.straggler_multiplier = 2.0;
  config.straggler_min_samples = 5;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.feed_completions(5, 1 * kSecond);
  h.submit({}, 9);
  auto assigns = h.all_sent<AssignTasklet>();
  h.now += 3 * kSecond;
  h.heartbeat(NodeId{2});
  h.heartbeat(NodeId{3});
  h.fire_timer(1);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  // The original finishes first.
  h.complete(assigns[0].first, assigns[0].second, 9);
  ASSERT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
  EXPECT_EQ(h.broker().stats().speculation_wins, 0u);
  EXPECT_EQ(h.broker().stats().speculations, 1u);
}

// --- migration (suspended attempts) ------------------------------------------------

TEST(BrokerTest, SuspendedAttemptMigratesWithSnapshot) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const NodeId original = assigns[0].first;
  EXPECT_TRUE(assigns[0].second.resume_snapshot.empty());

  AttemptResult suspended;
  suspended.attempt = assigns[0].second.attempt;
  suspended.tasklet = assigns[0].second.tasklet;
  suspended.outcome.status = AttemptStatus::kSuspended;
  suspended.outcome.fuel_used = 1234;
  suspended.outcome.snapshot = {std::byte{0xAA}, std::byte{0xBB}};
  h.deliver(original, suspended);

  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_NE(assigns[1].first, original);
  EXPECT_EQ(assigns[1].second.tasklet, assigns[0].second.tasklet);
  EXPECT_EQ(assigns[1].second.resume_snapshot,
            (Bytes{std::byte{0xAA}, std::byte{0xBB}}));
  EXPECT_EQ(h.broker().stats().migrations, 1u);
  // Migration does not burn the re-issue budget.
  EXPECT_EQ(h.broker().stats().reissues, 0u);

  h.complete(assigns[1].first, assigns[1].second, 5);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, TaskletStatus::kCompleted);
}

TEST(BrokerTest, DrainingDeregisterWaitsForSuspendedResults) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const NodeId leaving = assigns[0].first;

  proto::DeregisterProvider deregister;
  deregister.draining = true;
  h.deliver(leaving, deregister);
  // No immediate re-issue: the broker waits for the checkpoint.
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);

  AttemptResult suspended;
  suspended.attempt = assigns[0].second.attempt;
  suspended.tasklet = assigns[0].second.tasklet;
  suspended.outcome.status = AttemptStatus::kSuspended;
  suspended.outcome.snapshot = {std::byte{0x01}};
  h.deliver(leaving, suspended);

  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_NE(assigns[1].first, leaving);
  EXPECT_EQ(assigns[1].second.resume_snapshot, Bytes{std::byte{0x01}});
}

TEST(BrokerTest, DrainGraceExpiryReissuesFromScratch) {
  BrokerConfig config;
  config.drain_grace = 5 * kSecond;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  const NodeId leaving = assigns[0].first;

  proto::DeregisterProvider deregister;
  deregister.draining = true;
  h.deliver(leaving, deregister);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);

  // The checkpoint never arrives; the grace expires.
  h.now += 6 * kSecond;
  h.heartbeat(NodeId{2} == leaving ? NodeId{3} : NodeId{2});
  h.fire_timer(1);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_NE(assigns[1].first, leaving);
  EXPECT_TRUE(assigns[1].second.resume_snapshot.empty());  // fresh start
}

TEST(BrokerTest, SuspendedRedundantTaskletFallsBackToReissue) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.register_provider(NodeId{4});
  Qoc qoc;
  qoc.redundancy = 2;
  h.submit(qoc, 5);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);

  AttemptResult suspended;
  suspended.attempt = assigns[0].second.attempt;
  suspended.tasklet = assigns[0].second.tasklet;
  suspended.outcome.status = AttemptStatus::kSuspended;
  suspended.outcome.snapshot = {std::byte{0x01}};
  h.deliver(assigns[0].first, suspended);

  // Replica re-issued fresh (snapshots do not apply to redundant tasklets).
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 3u);
  EXPECT_TRUE(assigns[2].second.resume_snapshot.empty());
  EXPECT_EQ(h.broker().stats().migrations, 0u);
  EXPECT_EQ(h.broker().stats().reissues, 1u);
}

// --- priority classes -------------------------------------------------------------

TEST(BrokerTest, HigherPriorityJumpsTheQueue) {
  BrokerHarness h;
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 100e6, 1));
  // Saturate the single slot, then queue one normal and one urgent tasklet.
  h.submit({}, 1);
  const TaskletId normal = h.submit({}, 2);
  Qoc urgent;
  urgent.priority = 5;
  const TaskletId vip = h.submit(urgent, 3);
  EXPECT_EQ(h.broker().queue_length(), 2u);

  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  h.complete(NodeId{2}, assigns[0].second, 1);
  // The freed slot must go to the urgent tasklet despite later submission.
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_EQ(assigns[1].second.tasklet, vip);
  h.complete(NodeId{2}, assigns[1].second, 3);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 3u);
  EXPECT_EQ(assigns[2].second.tasklet, normal);
}

TEST(BrokerTest, FifoWithinPriorityClass) {
  BrokerHarness h;
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 100e6, 1));
  h.submit({}, 1);  // occupies the slot
  const TaskletId first = h.submit({}, 2);
  const TaskletId second = h.submit({}, 3);
  auto assigns = h.all_sent<AssignTasklet>();
  h.complete(NodeId{2}, assigns[0].second, 1);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_EQ(assigns[1].second.tasklet, first);
  h.complete(NodeId{2}, assigns[1].second, 2);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 3u);
  EXPECT_EQ(assigns[2].second.tasklet, second);
}

TEST(BrokerTest, UnplaceableHighPriorityDoesNotStarveLowerClasses) {
  BrokerHarness h;
  h.register_provider(NodeId{2}, capability(DeviceClass::kDesktop, 100e6, 1, "site-b"));
  // VIP tasklet that can never run here (local-only to another site).
  Qoc vip;
  vip.priority = 9;
  vip.locality = Locality::kLocalOnly;
  h.submit(vip, 1, "site-a");
  // A normal tasklet must still be placed.
  const TaskletId normal = h.submit({}, 2);
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  EXPECT_EQ(assigns[0].second.tasklet, normal);
}

// --- idempotency & fencing (at-least-once delivery) -------------------------------

TEST(BrokerTest, DuplicateSubmitIsFencedWhileRunning) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  TaskletSpec spec;
  spec.id = TaskletId{1};
  spec.job = JobId{1};
  spec.body = SyntheticBody{1000, 7, 64};
  h.deliver(kConsumer, SubmitTasklet{spec, {}});
  h.deliver(kConsumer, SubmitTasklet{spec, {}});  // consumer resubmission retransmit
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
  EXPECT_EQ(h.broker().stats().tasklets_submitted, 1u);
  EXPECT_EQ(h.broker().stats().duplicate_submits, 1u);
}

TEST(BrokerTest, DuplicateSubmitAfterConclusionReplaysFinalReport) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  TaskletSpec spec;
  spec.id = TaskletId{1};
  spec.job = JobId{1};
  spec.body = SyntheticBody{1000, 42, 64};
  h.deliver(kConsumer, SubmitTasklet{spec, {}});
  const auto assigns = h.sent_to<AssignTasklet>(NodeId{2});
  ASSERT_EQ(assigns.size(), 1u);
  h.complete(NodeId{2}, assigns[0], 42);
  h.clear_sent();

  // The retransmit must not re-run anything: the retained report is replayed.
  h.deliver(kConsumer, SubmitTasklet{spec, {}});
  EXPECT_TRUE(h.all_sent<AssignTasklet>().empty());
  const auto done = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].report.status, TaskletStatus::kCompleted);
  EXPECT_EQ(std::get<std::int64_t>(done[0].report.result), 42);
  EXPECT_EQ(h.broker().stats().tasklets_submitted, 1u);
  EXPECT_EQ(h.broker().stats().tasklets_completed, 1u);
  EXPECT_EQ(h.broker().stats().duplicate_submits, 1u);
}

TEST(BrokerTest, DuplicateAttemptResultCountsOnce) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.submit({}, 7);
  const auto assigns = h.sent_to<AssignTasklet>(NodeId{2});
  ASSERT_EQ(assigns.size(), 1u);
  h.complete(NodeId{2}, assigns[0], 7);
  h.complete(NodeId{2}, assigns[0], 7);  // duplicated frame
  EXPECT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
  EXPECT_EQ(h.broker().stats().attempts_ok, 1u);
  EXPECT_EQ(h.broker().stats().tasklets_completed, 1u);
  EXPECT_GE(h.broker().stats().duplicate_results, 1u);
  // The provider's completion count must not double either.
  for (const auto& [id, completed] : h.broker().provider_completions()) {
    if (id == NodeId{2}) {
      EXPECT_EQ(completed, 1u);
    }
  }
}

TEST(BrokerTest, ResultFromWrongProviderIsFenced) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 7);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const NodeId assignee = assigns[0].first;
  const NodeId impostor = assignee == NodeId{2} ? NodeId{3} : NodeId{2};
  // A corrupted/forged frame claiming the attempt from the wrong node must
  // not conclude the tasklet.
  h.complete(impostor, assigns[0].second, 999);
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());
  EXPECT_EQ(h.broker().stats().duplicate_results, 1u);
  h.complete(assignee, assigns[0].second, 7);
  const auto done = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(done[0].report.result), 7);
}

TEST(BrokerTest, SameIncarnationReregisterIsRetransmitNotRestart) {
  BrokerHarness h;
  h.deliver(NodeId{2}, RegisterProvider{capability(), /*incarnation=*/7});
  ASSERT_EQ(h.sent_to<proto::RegisterAck>(NodeId{2}).size(), 1u);
  EXPECT_EQ(h.sent_to<proto::RegisterAck>(NodeId{2})[0].incarnation, 7u);
  h.submit({}, 7);
  ASSERT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
  h.clear_sent();

  // The ack was lost; the provider re-sends the same registration. The
  // in-flight attempt must survive (no reissue) and the ack is repeated.
  h.deliver(NodeId{2}, RegisterProvider{capability(), /*incarnation=*/7});
  EXPECT_TRUE(h.all_sent<AssignTasklet>().empty());
  EXPECT_EQ(h.broker().stats().reissues, 0u);
  ASSERT_EQ(h.sent_to<proto::RegisterAck>(NodeId{2}).size(), 1u);
  EXPECT_EQ(h.sent_to<proto::RegisterAck>(NodeId{2})[0].incarnation, 7u);
}

TEST(BrokerTest, NewIncarnationReregisterRestartsInflightWork) {
  BrokerHarness h;
  h.deliver(NodeId{2}, RegisterProvider{capability(), /*incarnation=*/7});
  h.submit({}, 7);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const AttemptId first = assigns[0].second.attempt;

  // The provider process restarted: its previous attempt died with it.
  h.deliver(NodeId{2}, RegisterProvider{capability(), /*incarnation=*/8});
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_NE(assigns[1].second.attempt, first);
  EXPECT_EQ(h.broker().stats().attempts_lost, 1u);
  EXPECT_EQ(h.broker().stats().reissues, 1u);
  // The stale attempt is fenced: a result from before the restart is ignored.
  h.complete(NodeId{2}, AssignTasklet{first, assigns[0].second.tasklet, {}, 0, {}, {}},
             999);
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());
  EXPECT_GE(h.broker().stats().duplicate_results, 1u);
}

// --- heartbeat reconciliation (r5) --------------------------------------------------

TEST(BrokerTest, ListedAttemptIsNeverFenced) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 7);
  ASSERT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
  for (int beat = 0; beat < 10; ++beat) {
    h.now += 1 * kSecond;
    h.heartbeat(NodeId{2});
    h.heartbeat(NodeId{3});
    h.fire_timer(1);
  }
  EXPECT_EQ(h.broker().stats().attempts_reconciled, 0u);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
}

TEST(BrokerTest, OneOmissionOnlyMarksTheAttempt) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 7);
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  // This beat overtook the assign (or the result): no verdict yet.
  h.deliver(assigns[0].first, Heartbeat{});
  EXPECT_EQ(h.broker().stats().attempts_reconciled, 0u);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
  h.complete(assigns[0].first, assigns[0].second, 7);
  const auto dones = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(dones[0].report.status, TaskletStatus::kCompleted);
  EXPECT_EQ(h.broker().stats().duplicate_results, 0u);
}

TEST(BrokerTest, SecondOmissionFencesAndReissuesOnce) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.submit({}, 7);
  auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const NodeId holder = assigns[0].first;

  // The provider never got the assign (or its result was lost): two
  // consecutive beats omit the attempt, and the broker re-issues it.
  h.deliver(holder, Heartbeat{});
  h.deliver(holder, Heartbeat{});
  EXPECT_EQ(h.broker().stats().attempts_reconciled, 1u);
  EXPECT_EQ(h.broker().stats().reissues, 1u);
  assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  EXPECT_NE(assigns[1].first, holder);  // re-issue prefers a fresh provider

  // The fenced attempt is gone: further omissions re-issue nothing.
  h.deliver(holder, Heartbeat{});
  h.deliver(holder, Heartbeat{});
  EXPECT_EQ(h.broker().stats().attempts_reconciled, 1u);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 2u);

  // The original result was only late: fenced as a duplicate.
  const auto dupes = h.broker().stats().duplicate_results;
  h.complete(holder, assigns[0].second, 999);
  EXPECT_TRUE(h.sent_to<TaskletDone>(kConsumer).empty());
  EXPECT_EQ(h.broker().stats().duplicate_results, dupes + 1);

  h.complete(assigns[1].first, assigns[1].second, 7);
  const auto done = h.sent_to<TaskletDone>(kConsumer);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].report.status, TaskletStatus::kCompleted);
  EXPECT_EQ(std::get<std::int64_t>(done[0].report.result), 7);
  EXPECT_EQ(h.broker().stats().attempts_ok, 1u);
}

TEST(BrokerTest, ListingBetweenOmissionsClearsTheMark) {
  BrokerHarness h;
  h.register_provider(NodeId{2});
  h.submit({}, 7);
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const AttemptId attempt = assigns[0].second.attempt;
  h.deliver(NodeId{2}, Heartbeat{});
  h.deliver(NodeId{2}, Heartbeat{{attempt}});
  h.deliver(NodeId{2}, Heartbeat{});
  EXPECT_EQ(h.broker().stats().attempts_reconciled, 0u);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 1u);
  h.deliver(NodeId{2}, Heartbeat{});  // now two in a row
  EXPECT_EQ(h.broker().stats().attempts_reconciled, 1u);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 2u);
}

TEST(BrokerTest, OmittedSpeculationLoserIsFencedWithoutReissue) {
  BrokerConfig config;
  config.straggler_multiplier = 2.0;
  config.straggler_min_samples = 5;
  BrokerHarness h("qoc_aware", config);
  h.register_provider(NodeId{2});
  h.register_provider(NodeId{3});
  h.feed_completions(5, 1 * kSecond);
  h.submit({}, 9);
  h.now += 3 * kSecond;
  h.heartbeat(NodeId{2});
  h.heartbeat(NodeId{3});
  h.fire_timer(1);  // past the bound: one backup
  const auto assigns = h.all_sent<AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);
  const auto loser = assigns[0];
  h.complete(assigns[1].first, assigns[1].second, 9);
  ASSERT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);

  // The loser's result is lost: its provider's beats omit it twice. The
  // fence frees the slot; the concluded tasklet is not re-issued.
  const auto stats_before = h.broker().stats();
  h.deliver(loser.first, Heartbeat{});
  h.deliver(loser.first, Heartbeat{});
  EXPECT_EQ(h.broker().stats().attempts_reconciled, 1u);
  EXPECT_EQ(h.broker().stats().reissues, stats_before.reissues);
  EXPECT_EQ(h.broker().stats().attempts_lost, stats_before.attempts_lost);
  EXPECT_EQ(h.all_sent<AssignTasklet>().size(), 2u);
  for (const auto& view : h.broker().provider_views()) {
    EXPECT_EQ(view.busy_slots, 0u) << view.id.to_string();
  }
  EXPECT_EQ(h.sent_to<TaskletDone>(kConsumer).size(), 1u);
}

// --- scheduling policies (direct) ----------------------------------------------
// view()/context_for()/spec_with() come from broker_harness.hpp.

TEST(SchedulerTest, FastestFirstPicksTopSpeed) {
  auto policy = make_fastest_first();
  Rng rng(1);
  const std::vector<ProviderView> pool = {
      view(2, DeviceClass::kSbc, 25e6, 1, 0),
      view(3, DeviceClass::kServer, 800e6, 8, 7),
      view(4, DeviceClass::kDesktop, 400e6, 4, 0),
  };
  EXPECT_EQ(policy->pick(spec_with({}), context_for(pool), rng), NodeId{3});
}

TEST(SchedulerTest, LeastLoadedPicksLowestRatio) {
  auto policy = make_least_loaded();
  Rng rng(1);
  const std::vector<ProviderView> pool = {
      view(2, DeviceClass::kServer, 800e6, 8, 6),   // 0.75
      view(3, DeviceClass::kDesktop, 400e6, 4, 1),  // 0.25
      view(4, DeviceClass::kSbc, 25e6, 1, 0),       // 0.0
  };
  EXPECT_EQ(policy->pick(spec_with({}), context_for(pool), rng), NodeId{4});
}

TEST(SchedulerTest, RoundRobinCycles) {
  auto policy = make_round_robin();
  Rng rng(1);
  const std::vector<ProviderView> pool = {
      view(2, DeviceClass::kDesktop, 400e6, 4, 0),
      view(3, DeviceClass::kDesktop, 400e6, 4, 0),
      view(4, DeviceClass::kDesktop, 400e6, 4, 0),
  };
  EXPECT_EQ(policy->pick(spec_with({}), context_for(pool), rng), NodeId{2});
  EXPECT_EQ(policy->pick(spec_with({}), context_for(pool), rng), NodeId{3});
  EXPECT_EQ(policy->pick(spec_with({}), context_for(pool), rng), NodeId{4});
  EXPECT_EQ(policy->pick(spec_with({}), context_for(pool), rng), NodeId{2});  // wraps
}

TEST(SchedulerTest, RandomStaysInPoolAndIsSeedDeterministic) {
  auto policy = make_random();
  const std::vector<ProviderView> pool = {
      view(2, DeviceClass::kDesktop, 400e6, 4, 0),
      view(3, DeviceClass::kDesktop, 400e6, 4, 0),
  };
  Rng rng1(7), rng2(7);
  auto policy2 = make_random();
  for (int i = 0; i < 50; ++i) {
    const NodeId a = policy->pick(spec_with({}), context_for(pool), rng1);
    const NodeId b = policy2->pick(spec_with({}), context_for(pool), rng2);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(a == NodeId{2} || a == NodeId{3});
  }
}

TEST(SchedulerTest, CloudOnlyRefusesWithoutServers) {
  auto policy = make_cloud_only();
  Rng rng(1);
  const std::vector<ProviderView> pool = {
      view(2, DeviceClass::kDesktop, 400e6, 4, 0),
      view(3, DeviceClass::kSbc, 25e6, 1, 0),
  };
  EXPECT_FALSE(policy->pick(spec_with({}), context_for(pool), rng).valid());
  const std::vector<ProviderView> with_server = {
      view(2, DeviceClass::kDesktop, 400e6, 4, 0),
      view(5, DeviceClass::kServer, 800e6, 8, 2),
  };
  EXPECT_EQ(policy->pick(spec_with({}), context_for(with_server), rng), NodeId{5});
}

TEST(SchedulerTest, QocAwarePrefersReliableForRedundantWork) {
  auto policy = make_qoc_aware();
  Rng rng(1);
  const std::vector<ProviderView> pool = {
      view(2, DeviceClass::kDesktop, 400e6, 4, 0, /*reliability=*/0.2),
      view(3, DeviceClass::kDesktop, 400e6, 4, 0, /*reliability=*/1.0),
  };
  Qoc redundant;
  redundant.redundancy = 3;
  EXPECT_EQ(policy->pick(spec_with(redundant), context_for(pool), rng), NodeId{3});
}

TEST(SchedulerTest, QocAwarePrefersCheapUnderCostCeiling) {
  auto policy = make_qoc_aware();
  Rng rng(1);
  const std::vector<ProviderView> pool = {
      view(2, DeviceClass::kServer, 500e6, 4, 0, 1.0, /*cost=*/4.0),
      view(3, DeviceClass::kDesktop, 400e6, 4, 0, 1.0, /*cost=*/0.2),
  };
  Qoc capped;
  capped.cost_ceiling = 5.0;
  EXPECT_EQ(policy->pick(spec_with(capped), context_for(pool), rng), NodeId{3});
}

TEST(SchedulerTest, FactoryKnowsAllPolicies) {
  for (const auto* name : {"round_robin", "random", "least_loaded",
                           "fastest_first", "qoc_aware", "cloud_only"}) {
    auto policy = make_scheduler(name);
    ASSERT_TRUE(policy.is_ok()) << name;
    EXPECT_EQ((*policy)->name(), name);
  }
  EXPECT_FALSE(make_scheduler("nope").is_ok());
}

}  // namespace
}  // namespace tasklets::broker

// Chaos suite: the system under a deterministic adversarial network.
//
// The fault layer (net/fault.hpp) drops, duplicates, delays, reorders and
// corrupts frames, partitions links and resets TCP connections according to
// a seeded plan. These tests assert the recovery machinery above it —
// consumer resubmission, broker idempotency/fencing, heartbeat
// reconciliation and heartbeat liveness — delivers exactly-once *reported*
// semantics on top of an at-least-once wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>

#include "broker_harness.hpp"
#include "chaos_harness.hpp"
#include "common/trace.hpp"
#include "net/fault.hpp"
#include "net/inproc.hpp"

namespace tasklets::chaos {
namespace {

using core::SystemConfig;
using core::TaskletSystem;
using core::Transport;
using net::FaultAction;
using net::FaultEvent;
using net::FaultPlan;
using net::FaultyRuntime;
using net::InProcRuntime;
using proto::Qoc;
using proto::TaskletStatus;
using namespace std::chrono_literals;

// --- determinism ------------------------------------------------------------------

// Swallows everything; the trace under test is the fault layer's.
class SinkActor final : public proto::Actor {
 public:
  using proto::Actor::Actor;
  void on_start(SimTime, proto::Outbox&) override {}
  void on_message(const proto::Envelope&, SimTime, proto::Outbox&) override {}
  void on_timer(std::uint64_t, SimTime, proto::Outbox&) override {}
};

// Drives one directed link with a scripted message sequence and returns the
// fault layer's decision trace.
std::vector<FaultEvent> scripted_trace(std::uint64_t seed, int messages) {
  net::LinkFaults faults;
  faults.drop = 0.15;
  faults.duplicate = 0.1;
  faults.corrupt = 0.1;
  faults.delay = 0.1;
  faults.reorder = 0.1;
  faults.delay_min = 0;
  faults.delay_max = 1 * kMillisecond;
  FaultyRuntime runtime(std::make_unique<InProcRuntime>(), plan_with(faults, seed));
  runtime.add(std::make_unique<SinkActor>(NodeId{2}));
  for (int i = 0; i < messages; ++i) {
    const AttemptId seq{static_cast<std::uint64_t>(i)};
    runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{{seq}}});
  }
  auto trace = runtime.trace();
  runtime.stop_all();
  return trace;
}

// Acceptance criterion: a fixed seed produces an identical delivery/drop
// event trace across two in-process runs.
TEST(ChaosDeterminism, FixedSeedGivesIdenticalTraceAcrossRuns) {
  const auto first = scripted_trace(0xDE7E12, 400);
  const auto second = scripted_trace(0xDE7E12, 400);
  ASSERT_EQ(first.size(), 400u);
  EXPECT_EQ(first, second);

  // Sanity: the plan actually injected faults, and a different seed gives a
  // different schedule.
  std::set<FaultAction> actions;
  for (const auto& event : first) actions.insert(event.action);
  EXPECT_GE(actions.size(), 4u) << "fault plan too tame to test anything";
  EXPECT_NE(scripted_trace(0x0714E5, 400), first);
}

TEST(ChaosDeterminism, PartitionBlocksBothDirectionsUntilHealed) {
  FaultyRuntime runtime(std::make_unique<InProcRuntime>(), FaultPlan{});
  runtime.add(std::make_unique<SinkActor>(NodeId{1}));
  runtime.add(std::make_unique<SinkActor>(NodeId{2}));
  runtime.partition(NodeId{1}, NodeId{2});
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  runtime.route(proto::Envelope{NodeId{2}, NodeId{1}, proto::Heartbeat{}});
  runtime.heal(NodeId{1}, NodeId{2});
  runtime.route(proto::Envelope{NodeId{1}, NodeId{2}, proto::Heartbeat{}});
  const auto trace = runtime.trace();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].action, FaultAction::kDropPartitioned);
  EXPECT_EQ(trace[1].action, FaultAction::kDeliver);  // sorted: (1,2,2) then (2,1,1)
  EXPECT_EQ(trace[2].action, FaultAction::kDropPartitioned);
  EXPECT_EQ(runtime.delivered(), 1u);
  runtime.stop_all();
}

// --- end-to-end recovery ----------------------------------------------------------

// Every tasklet must complete with the right value despite pervasive drops,
// duplicates, delays and reordering on every link. Drops of AssignTasklet /
// AttemptResult are recovered by the broker's heartbeat reconciliation;
// drops of SubmitTasklet / TaskletDone by the consumer's resubmission loop
// (the broker replays the retained final report); duplicates are fenced at
// every layer.
TEST(ChaosEndToEnd, LossyInProcClusterStillCompletesEverything) {
  auto system = TaskletSystem(
      chaos_config(plan_with(lossy_link(0.05, 0.10, 0.10, 0.05), 0xC4A05)));
  system.add_provider();
  system.add_provider();

  Qoc qoc;
  qoc.max_reissues = 50;  // the chaos budget: recovery, not a failure signal
  std::vector<std::future<proto::TaskletReport>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(system.submit(fib_body(12), qoc));
  }
  for (auto& future : futures) {
    const auto report = get_or_die(future);
    ASSERT_EQ(report.status, TaskletStatus::kCompleted) << report.error;
    EXPECT_EQ(std::get<std::int64_t>(report.result), 144);
  }
  ASSERT_NE(system.faults(), nullptr);
  const auto trace = system.faults()->trace();
  std::uint64_t injected = 0;
  for (const auto& event : trace) {
    if (event.action != FaultAction::kDeliver) ++injected;
  }
  EXPECT_GT(injected, 0u) << "plan injected nothing; test proved nothing";
  EXPECT_EQ(system.broker_stats().tasklets_completed, 12u);
}

// Under payload corruption a bit flip can forge any field — including an
// AttemptResult's value or status — so value equality cannot be asserted
// without end-to-end integrity checksums (out of scope). The invariant that
// must survive arbitrary corruption: every tasklet reaches a terminal state
// exactly once (futures would throw on a second set), and nothing crashes.
TEST(ChaosEndToEnd, CorruptionNeverWedgesOrDoubleReports) {
  auto system = TaskletSystem(
      chaos_config(plan_with(lossy_link(0.02, 0.05, 0.0, 0.0, 0.05), 0xBADB17)));
  system.add_provider();
  system.add_provider();

  Qoc qoc;
  qoc.max_reissues = 50;
  std::vector<std::future<proto::TaskletReport>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(system.submit(fib_body(10), qoc));
  }
  int completed = 0;
  for (auto& future : futures) {
    const auto report = get_or_die(future);
    if (report.status == TaskletStatus::kCompleted) ++completed;
  }
  // The loss rate is low; most tasklets must still make it through.
  EXPECT_GE(completed, 5);
}

// A partitioned provider stops heartbeating; the broker must expire it and
// re-issue its in-flight attempt to a freshly added provider.
TEST(ChaosEndToEnd, PartitionTriggersHeartbeatReassignment) {
  auto config = chaos_config(FaultPlan{});
  // This tasklet legitimately runs for ~a second (much longer under
  // sanitizers): park the consumer's local-abandon budget, which only
  // guards against a dead broker, far out of the picture.
  config.consumer.max_resubmits = 1000;
  auto system = TaskletSystem(std::move(config));
  const NodeId first = system.add_provider();

  auto future = system.submit(spin_body(4'000'000));
  ASSERT_TRUE(await([&] { return system.broker_stats().attempts_issued >= 1; }))
      << "attempt never issued";
  ASSERT_NE(system.faults(), nullptr);
  system.faults()->partition(first, system.broker_id());
  const NodeId second = system.add_provider();

  const auto report = get_or_die(future, std::chrono::seconds(300));
  ASSERT_EQ(report.status, TaskletStatus::kCompleted) << report.error;
  const auto stats = system.broker_stats();
  EXPECT_GE(stats.providers_expired, 1u);
  EXPECT_GE(stats.attempts_issued, 2u);
  EXPECT_EQ(report.executed_by, second);
}

// --- recovery under the default configuration --------------------------------------

// The default SystemConfig plus a fault plan that drops a quarter of the
// frames between the broker and its providers, both ways; the consumer's
// links stay clean. A lost AssignTasklet or AttemptResult leaves the attempt
// off its provider's heartbeats, and after two such beats the broker fences
// and re-issues it: there is no timeout to set.
SystemConfig default_config_dropping_provider_frames(std::uint64_t seed,
                                                     double reset = 0.0) {
  net::LinkFaults lossy;
  lossy.drop = 0.25;
  lossy.reset = reset;
  FaultPlan plan;
  plan.seed = seed;
  // A TaskletSystem numbers its nodes in creation order: the broker is node
  // 1, the consumer node 2 and the first two providers nodes 3 and 4.
  for (const NodeId provider : {NodeId{3}, NodeId{4}}) {
    plan.links[{NodeId{1}, provider}] = lossy;
    plan.links[{provider, NodeId{1}}] = lossy;
  }
  SystemConfig config;
  config.fault_plan = std::move(plan);
  return config;
}

void expect_every_tasklet_recovers(TaskletSystem& system) {
  ASSERT_EQ(system.broker_id(), NodeId{1});
  ASSERT_EQ(system.add_provider(), NodeId{3});
  ASSERT_EQ(system.add_provider(), NodeId{4});
  Qoc qoc;
  qoc.max_reissues = 50;  // the chaos budget: recovery, not a failure signal
  std::vector<std::future<proto::TaskletReport>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(system.submit(fib_body(12), qoc));
  }
  for (auto& future : futures) {
    const auto report = get_or_die(future);
    ASSERT_EQ(report.status, TaskletStatus::kCompleted) << report.error;
    EXPECT_EQ(std::get<std::int64_t>(report.result), 144);
  }
  // An attempt was really lost, and reconciliation recovered it.
  EXPECT_GT(system.broker_stats().attempts_reconciled, 0u);
}

TEST(ChaosDefaultConfig, InProcRecoversLostAssignsAndResults) {
  auto system = TaskletSystem(default_config_dropping_provider_frames(0xD3FA17));
  expect_every_tasklet_recovers(system);
}

TEST(ChaosDefaultConfig, TcpRecoversLostFramesAndResets) {
  auto config = default_config_dropping_provider_frames(0x7CD3FA17, 0.05);
  config.transport = Transport::kTcp;
  auto system = TaskletSystem(std::move(config));
  expect_every_tasklet_recovers(system);
}

// --- tracing under faults ---------------------------------------------------------

const Span* first_named(const std::vector<Span>& spans, std::string_view name) {
  for (const auto& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

// Same heartbeat-expiry scenario as above, now with tracing on: the retried
// tasklet's trace must show the whole recovery — submit, schedule, execute,
// a retry event after the first placement, and the terminal report — in
// causal order, all linked to the consumer's root span.
TEST(ChaosTracing, RetriedTaskletTraceShowsRecoveryInCausalOrder) {
  auto config = chaos_config(FaultPlan{});
  config.tracing = true;
  config.consumer.max_resubmits = 1000;
  auto system = TaskletSystem(std::move(config));
  const NodeId first = system.add_provider();

  auto future = system.submit(spin_body(4'000'000));
  ASSERT_TRUE(await([&] { return system.broker_stats().attempts_issued >= 1; }))
      << "attempt never issued";
  ASSERT_NE(system.faults(), nullptr);
  system.faults()->partition(first, system.broker_id());
  system.add_provider();

  const auto report = get_or_die(future, std::chrono::seconds(300));
  ASSERT_EQ(report.status, TaskletStatus::kCompleted) << report.error;

  ASSERT_NE(system.trace_store(), nullptr);
  const std::vector<Span> spans = system.trace_store()->spans_for(report.id);
  ASSERT_FALSE(spans.empty());
  for (const Span& span : spans) {
    EXPECT_EQ(span.trace_id, report.id.value()) << span.name;
  }

  // The consumer's root span opens the trace and covers the whole lifecycle.
  const Span& root = spans.front();
  ASSERT_EQ(root.name, "submit");
  EXPECT_EQ(root.parent_span, 0u);
  EXPECT_FALSE(root.instant);

  const Span* schedule = first_named(spans, "schedule");
  const Span* attempt = first_named(spans, "attempt");
  const Span* execute = first_named(spans, "execute");
  const Span* vm = first_named(spans, "vm");
  const Span* retry = first_named(spans, "retry");
  const Span* terminal = first_named(spans, "report");
  ASSERT_NE(schedule, nullptr);
  ASSERT_NE(attempt, nullptr);
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(vm, nullptr);
  ASSERT_NE(retry, nullptr) << "heartbeat expiry never re-issued the attempt";
  ASSERT_NE(terminal, nullptr);

  // Causal order against the runtime's shared clock: submit -> schedule ->
  // execute, the retry strictly after the first placement, and the terminal
  // report inside the root span.
  EXPECT_LE(root.start, schedule->start);
  EXPECT_LE(schedule->start, execute->start);
  EXPECT_GT(retry->start, schedule->start);
  EXPECT_LE(terminal->start, root.end);
  // Attempts hang off the consumer's root span (the broker's parent link).
  EXPECT_EQ(attempt->parent_span, root.span_id);

  // One schedule decision per placement: the fenced attempt and its retry.
  const auto schedules = std::count_if(
      spans.begin(), spans.end(),
      [](const Span& span) { return span.name == "schedule"; });
  EXPECT_GE(schedules, 2);

  // The whole store exports well-formed Chrome trace JSON.
  const std::string json = system.trace_store()->export_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// A graceful drain mid-execution checkpoints the tasklet and migrates it:
// the trace must show the suspended execution, the broker's migrate event
// and the resumed execution in causal order.
TEST(ChaosTracing, MigratedTaskletTraceShowsMigrationSpans) {
  SystemConfig config;
  config.tracing = true;
  auto system = TaskletSystem(std::move(config));
  const NodeId first = system.add_provider();

  auto future = system.submit(spin_body(4'000'000));
  std::this_thread::sleep_for(50ms);
  system.add_provider();
  std::this_thread::sleep_for(50ms);
  system.drain_provider(first);

  const auto report = get_or_die(future, std::chrono::seconds(300));
  ASSERT_EQ(report.status, TaskletStatus::kCompleted) << report.error;
  if (system.broker_stats().migrations == 0) {
    GTEST_SKIP() << "tasklet finished before the drain landed (fast machine)";
  }

  ASSERT_NE(system.trace_store(), nullptr);
  const std::vector<Span> spans = system.trace_store()->spans_for(report.id);
  const Span* migrate = first_named(spans, "migrate");
  ASSERT_NE(migrate, nullptr);
  EXPECT_TRUE(migrate->instant);
  EXPECT_TRUE(std::any_of(
      migrate->args.begin(), migrate->args.end(),
      [](const auto& kv) { return kv.first == "snapshot_bytes"; }));

  // The checkpointed execution precedes the migration decision, which
  // precedes the end of the resumed execution.
  const Span* suspended = nullptr;
  const Span* resumed = nullptr;
  for (const Span& span : spans) {
    if (span.name != "execute") continue;
    for (const auto& [key, value] : span.args) {
      if (key != "status") continue;
      if (value == "suspended") suspended = &span;
      if (value == "ok") resumed = &span;
    }
  }
  ASSERT_NE(suspended, nullptr);
  ASSERT_NE(resumed, nullptr);
  EXPECT_LE(suspended->end, migrate->start);
  EXPECT_LE(migrate->start, resumed->end);
}

// --- TCP transport ----------------------------------------------------------------

// Same protocol over loopback sockets, now with connection resets thrown
// in: the fault layer closes pooled connections mid-conversation and the
// transport must reconnect while the recovery layers absorb any frames that
// died with the connection.
TEST(ChaosEndToEnd, TcpSurvivesResetsAndLoss) {
  auto config = chaos_config(plan_with(lossy_link(0.02, 0.05), 0x7C9CA05));
  config.fault_plan->default_faults.reset = 0.05;
  config.transport = Transport::kTcp;
  auto system = TaskletSystem(std::move(config));
  system.add_provider();
  system.add_provider();

  Qoc qoc;
  qoc.max_reissues = 50;
  std::vector<std::future<proto::TaskletReport>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(system.submit(fib_body(12), qoc));
  }
  for (auto& future : futures) {
    const auto report = get_or_die(future);
    ASSERT_EQ(report.status, TaskletStatus::kCompleted) << report.error;
    EXPECT_EQ(std::get<std::int64_t>(report.result), 144);
  }
  EXPECT_EQ(system.broker_stats().tasklets_completed, 8u);
}

// --- straggler reassignment x idempotency fencing ---------------------------------

// The quantile straggler defense fences an attempt that outlives twice the
// expected-completion bound and reroutes the tasklet. The wire is
// at-least-once, so the fenced original's result can still arrive — late,
// and possibly duplicated. Exactly-once reporting must hold: the late
// result is discarded by the attempt fence (PR 1 idempotency), never
// double-counted, and never double-reported to the consumer.
TEST(ChaosIdempotency, StragglerFenceDiscardsLateAndDuplicatedResults) {
  using Harness = broker::testing::BrokerHarness;
  using broker::testing::kConsumer;

  broker::BrokerConfig config;
  config.straggler_multiplier = 3.0;
  config.straggler_min_samples = 5;
  Harness h("qoc_aware", config);
  h.register_provider(NodeId{2}, broker::testing::capability(
                                     proto::DeviceClass::kDesktop, 100e6, 4));
  h.register_provider(NodeId{3}, broker::testing::capability(
                                     proto::DeviceClass::kDesktop, 100e6, 4));

  // Feed the completion histogram so the bound engages (~3 x p95 of 1s).
  h.feed_completions(5, 1 * kSecond);

  h.submit({}, 42);
  auto assigns = h.all_sent<proto::AssignTasklet>();
  ASSERT_EQ(assigns.size(), 1u);
  const auto original = assigns[0];

  // Run the attempt far past twice the bound: scan speculates, then fences.
  for (int step = 0; step < 2; ++step) {
    h.now += 4 * kSecond;
    h.heartbeat(NodeId{2});
    h.heartbeat(NodeId{3});
    h.fire_timer(1);
  }
  ASSERT_EQ(h.broker().stats().straggler_reassigns, 1u);
  assigns = h.all_sent<proto::AssignTasklet>();
  ASSERT_EQ(assigns.size(), 2u);  // the speculative backup is the replacement
  const auto backup = assigns[1];
  ASSERT_NE(backup.first, original.first);

  // The fenced original reports — twice (duplicated frame). Both discarded,
  // and neither feeds the speed estimator (a fenced attempt's duration is
  // not a trustworthy sample).
  const auto dupes_before = h.broker().stats().duplicate_results;
  const auto samples_before = h.broker().speed_samples(original.first);
  h.complete(original.first, original.second, 42);
  h.complete(original.first, original.second, 42);
  EXPECT_EQ(h.sent_to<proto::TaskletDone>(kConsumer).size(), 0u);
  EXPECT_EQ(h.broker().stats().duplicate_results, dupes_before + 2);
  EXPECT_EQ(h.broker().speed_samples(original.first), samples_before);

  // The backup's result completes the tasklet exactly once; its duplicate
  // is also fenced (the attempt record is gone after completion).
  h.complete(backup.first, backup.second, 42);
  h.complete(backup.first, backup.second, 42);
  const auto dones = h.sent_to<proto::TaskletDone>(kConsumer);
  ASSERT_EQ(dones.size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(dones[0].report.result), 42);
  EXPECT_EQ(h.broker().stats().tasklets_completed, 6u);  // 5 warmup + 1
}

}  // namespace
}  // namespace tasklets::chaos

// Tests for the live ops plane: health/SLO rule parsing and the rule
// engine (common/health_rules), derived pool signals (broker/pool_stats),
// the admin line protocol + loopback server (net/admin), and the OpsPlane
// glue on both runtimes (core/ops + SimCluster + TaskletSystem).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "broker/pool_stats.hpp"
#include "common/health_rules.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/kernels.hpp"
#include "core/ops.hpp"
#include "core/sim_cluster.hpp"
#include "core/system.hpp"
#include "net/admin.hpp"
#include "tcl/compiler.hpp"

namespace tasklets {
namespace {

using health::HealthRule;

// The metrics registry is process-global; ops-plane tests sample it, so
// each starts from a clean slate.
class OpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::MetricsRegistry::instance().reset();
    metrics::set_enabled(true);
  }
};

// --- rule syntax -------------------------------------------------------------

TEST(HealthRulesTest, ParseDurationUnits) {
  EXPECT_EQ(health::parse_duration("250ms").value(), 250 * kMillisecond);
  EXPECT_EQ(health::parse_duration("5s").value(), 5 * kSecond);
  EXPECT_EQ(health::parse_duration("2m").value(), 120 * kSecond);
  EXPECT_EQ(health::parse_duration("10us").value(), 10 * kMicrosecond);
  EXPECT_EQ(health::parse_duration("100ns").value(), 100);
  EXPECT_EQ(health::parse_duration("3").value(), 3 * kSecond);  // bare=seconds
  EXPECT_EQ(health::parse_duration("1.5s").value(), 1500 * kMillisecond);
  EXPECT_FALSE(health::parse_duration("").is_ok());
  EXPECT_FALSE(health::parse_duration("fast").is_ok());
  EXPECT_FALSE(health::parse_duration("5 parsecs").is_ok());
}

TEST(HealthRulesTest, ParseRuleKindsAndOperators) {
  const HealthRule level =
      health::parse_rule("p99: broker.latency_ns.p99 > 5e9 for 5s").value();
  EXPECT_EQ(level.name, "p99");
  EXPECT_EQ(level.series, "broker.latency_ns.p99");
  EXPECT_EQ(level.kind, HealthRule::Kind::kLevel);
  EXPECT_EQ(level.op, HealthRule::Op::kGt);
  EXPECT_DOUBLE_EQ(level.threshold, 5e9);
  EXPECT_EQ(level.sustain, 5 * kSecond);

  const HealthRule jump =
      health::parse_rule("het: broker.pool.heterogeneity jump > 200000 over 10s")
          .value();
  EXPECT_EQ(jump.kind, HealthRule::Kind::kJump);
  EXPECT_EQ(jump.window, 10 * kSecond);

  const HealthRule rate =
      health::parse_rule("rr: broker.straggler_reassigns rate > 2 over 5s")
          .value();
  EXPECT_EQ(rate.kind, HealthRule::Kind::kRate);
  EXPECT_DOUBLE_EQ(rate.threshold, 2.0);

  const HealthRule lt = health::parse_rule("low: pool.health < 0.5").value();
  EXPECT_EQ(lt.op, HealthRule::Op::kLt);
  EXPECT_EQ(lt.sustain, 0);  // no "for" clause: fires on first breach
}

TEST(HealthRulesTest, ToStringRoundTripsThroughParse) {
  for (const char* text :
       {"p99: broker.latency_ns.p99 > 5e9 for 5s",
        "het: broker.pool.heterogeneity jump > 200000 over 10s",
        "rr: broker.straggler_reassigns rate > 2 over 5s",
        "low: pool.health < 0.5"}) {
    const HealthRule rule = health::parse_rule(text).value();
    const HealthRule reparsed = health::parse_rule(rule.to_string()).value();
    EXPECT_EQ(reparsed.name, rule.name) << text;
    EXPECT_EQ(reparsed.series, rule.series) << text;
    EXPECT_EQ(reparsed.kind, rule.kind) << text;
    EXPECT_EQ(reparsed.op, rule.op) << text;
    EXPECT_DOUBLE_EQ(reparsed.threshold, rule.threshold) << text;
    EXPECT_EQ(reparsed.sustain, rule.sustain) << text;
    if (rule.kind != HealthRule::Kind::kLevel) {
      EXPECT_EQ(reparsed.window, rule.window) << text;
    }
  }
}

TEST(HealthRulesTest, ParseRuleRejectsGarbage) {
  EXPECT_FALSE(health::parse_rule("no colon here").is_ok());
  EXPECT_FALSE(health::parse_rule(": a.b > 1").is_ok());        // empty name
  EXPECT_FALSE(health::parse_rule("r: a.b").is_ok());           // too short
  EXPECT_FALSE(health::parse_rule("r: a.b >= 1").is_ok());      // bad op
  EXPECT_FALSE(health::parse_rule("r: a.b > banana").is_ok());  // bad threshold
  EXPECT_FALSE(health::parse_rule("r: a.b > 1 within 5s").is_ok());
  EXPECT_FALSE(health::parse_rule("r: a.b > 1 for").is_ok());   // no duration
  EXPECT_FALSE(health::parse_rule("r: a.b > 1 for 5s extra").is_ok());
}

TEST_F(OpsTest, ParseRulesLenientSkipsInvalidEntries) {
  const auto rules = core::parse_rules_lenient(
      {"ok: a.b > 1", "broken rule without colon", "also_ok: c.d < 2 for 1s"});
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "ok");
  EXPECT_EQ(rules[1].name, "also_ok");
}

// --- rule engine -------------------------------------------------------------

TEST_F(OpsTest, LevelRuleSustainsThenFiresThenClears) {
  auto& registry = metrics::MetricsRegistry::instance();
  metrics::MetricsHistory history;
  health::HealthRuleEngine engine(
      {health::parse_rule("deep: t.depth > 10 for 2s").value()});

  auto observe = [&](SimTime at, std::int64_t depth) {
    registry.gauge("t.depth").set(depth);
    history.sample(registry.snapshot(), at);
    return engine.evaluate(history, at);
  };

  EXPECT_TRUE(observe(1 * kSecond, 5).empty());    // no breach
  EXPECT_TRUE(observe(2 * kSecond, 20).empty());   // breach starts, held 0s
  EXPECT_TRUE(observe(3 * kSecond, 20).empty());   // held 1s < 2s
  const auto fired = observe(4 * kSecond, 20);     // held 2s: fires
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "deep");
  EXPECT_DOUBLE_EQ(fired[0].value, 20.0);
  EXPECT_EQ(fired[0].fired_at, 4 * kSecond);
  EXPECT_EQ(engine.fired_count(), 1u);
  EXPECT_EQ(engine.active_alerts().size(), 1u);

  EXPECT_TRUE(observe(5 * kSecond, 20).empty());   // still firing, not new
  EXPECT_EQ(engine.fired_count(), 1u);

  EXPECT_TRUE(observe(6 * kSecond, 5).empty());    // recovers: clears
  EXPECT_TRUE(engine.active_alerts().empty());
  const auto log = engine.alert_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_FALSE(log[0].active);
  EXPECT_EQ(log[0].cleared_at, 6 * kSecond);

  // A dip below threshold resets the sustain clock: a fresh breach must
  // hold the full duration again before firing.
  EXPECT_TRUE(observe(7 * kSecond, 20).empty());
  EXPECT_TRUE(observe(8 * kSecond, 20).empty());
  EXPECT_EQ(observe(9 * kSecond, 20).size(), 1u);
  EXPECT_EQ(engine.fired_count(), 2u);
}

TEST_F(OpsTest, JumpRuleFiresOnWindowedDelta) {
  auto& registry = metrics::MetricsRegistry::instance();
  metrics::MetricsHistory history;
  health::HealthRuleEngine engine(
      {health::parse_rule("burst: t.count jump > 50 over 2s").value()});

  auto observe = [&](SimTime at, std::uint64_t add) {
    registry.counter("t.count").inc(add);
    history.sample(registry.snapshot(), at);
    return engine.evaluate(history, at);
  };

  EXPECT_TRUE(observe(1 * kSecond, 10).empty());
  EXPECT_TRUE(observe(2 * kSecond, 10).empty());   // delta over 2s window: 10
  EXPECT_EQ(observe(3 * kSecond, 100).size(), 1u); // delta 110 > 50
  // The burst ages out of the window and the alert clears.
  EXPECT_TRUE(observe(6 * kSecond, 0).empty());
  EXPECT_TRUE(observe(7 * kSecond, 0).empty());
  EXPECT_TRUE(engine.active_alerts().empty());
}

TEST_F(OpsTest, RateRuleFiresOnPerSecondRate) {
  auto& registry = metrics::MetricsRegistry::instance();
  metrics::MetricsHistory history;
  health::HealthRuleEngine engine(
      {health::parse_rule("hot: t.count rate > 5 over 4s").value()});

  auto observe = [&](SimTime at, std::uint64_t add) {
    registry.counter("t.count").inc(add);
    history.sample(registry.snapshot(), at);
    return engine.evaluate(history, at);
  };

  EXPECT_TRUE(observe(1 * kSecond, 0).empty());
  EXPECT_TRUE(observe(2 * kSecond, 3).empty());    // 3/sec
  EXPECT_EQ(observe(3 * kSecond, 20).size(), 1u);  // 23 over 2s = 11.5/sec
  EXPECT_EQ(engine.fired_count(), 1u);
}

TEST_F(OpsTest, FiringBumpsCounterAndRecordsTraceInstant) {
  auto& registry = metrics::MetricsRegistry::instance();
  TraceStore trace;
  metrics::MetricsHistory history;
  health::HealthRuleEngine engine(
      {health::parse_rule("hi: t.gauge > 1").value()}, &trace);

  registry.gauge("t.gauge").set(9);
  history.sample(registry.snapshot(), 1 * kSecond);
  ASSERT_EQ(engine.evaluate(history, 1 * kSecond).size(), 1u);

  EXPECT_EQ(registry.counter("health.alerts_fired").value(), 1u);
  ASSERT_EQ(trace.size(), 1u);
  const auto spans = trace.all();
  EXPECT_EQ(spans[0].name, "health");
  EXPECT_TRUE(spans[0].instant);
  EXPECT_EQ(spans[0].start, 1 * kSecond);
}

// --- pool signals ------------------------------------------------------------

broker::ProviderView make_view(std::uint64_t id, double speed,
                               std::uint64_t samples = 10) {
  broker::ProviderView view;
  view.id = NodeId{id};
  view.capability.slots = 4;
  view.capability.speed_fuel_per_sec = speed;
  view.measured_speed_fuel_per_sec = speed;
  view.speed_samples = samples;
  view.completed = 20;
  return view;
}

TEST(PoolStatsTest, SpeedConfidenceScalesWithSamples) {
  broker::ProviderView view = make_view(1, 100e6, 0);
  EXPECT_DOUBLE_EQ(broker::speed_confidence(view), 0.25);
  view.speed_samples = 3;
  EXPECT_DOUBLE_EQ(broker::speed_confidence(view), 1.0);
  view.speed_samples = 100;
  EXPECT_DOUBLE_EQ(broker::speed_confidence(view), 1.0);  // capped
}

TEST(PoolStatsTest, HealthScoreDiscountsFencePressure) {
  broker::ProviderView clean = make_view(1, 100e6);
  clean.observed_reliability = 0.98;
  EXPECT_DOUBLE_EQ(broker::health_score(clean), 0.98);

  broker::ProviderView fenced = clean;
  fenced.straggler_fences = 5;
  fenced.reconciled = 2;
  EXPECT_LT(broker::health_score(fenced), broker::health_score(clean));
  EXPECT_GT(broker::health_score(fenced), 0.0);

  // Completions rebuild credibility: same fences, more completed work.
  broker::ProviderView veteran = fenced;
  veteran.completed = 500;
  EXPECT_GT(broker::health_score(veteran), broker::health_score(fenced));
}

TEST(PoolStatsTest, UniformPoolScoresZeroHeterogeneity) {
  std::vector<broker::ProviderView> pool;
  for (std::uint64_t i = 1; i <= 5; ++i) pool.push_back(make_view(i, 100e6));
  const broker::PoolStats stats = broker::compute_pool_stats(pool);
  EXPECT_EQ(stats.providers, 5u);
  EXPECT_EQ(stats.confident, 5u);
  EXPECT_DOUBLE_EQ(stats.cv, 0.0);
  EXPECT_DOUBLE_EQ(stats.heterogeneity, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_speed, 100e6);
}

TEST(PoolStatsTest, HeterogeneityIsMonotoneInSpeedDispersion) {
  // Pools with the same mean but widening spread: the score must rise
  // strictly with each widening and stay inside [0, 1). This is the
  // unit-level counterpart of bench cell E11.
  auto pool_with_spread = [](double spread) {
    std::vector<broker::ProviderView> pool;
    const double speeds[] = {100e6 - spread, 100e6 - spread / 2, 100e6,
                             100e6 + spread / 2, 100e6 + spread};
    std::uint64_t id = 1;
    for (const double speed : speeds) pool.push_back(make_view(id++, speed));
    return broker::compute_pool_stats(pool);
  };
  double previous = -1.0;
  for (const double spread : {0.0, 10e6, 30e6, 60e6, 90e6}) {
    const broker::PoolStats stats = pool_with_spread(spread);
    EXPECT_GT(stats.heterogeneity, previous) << "spread=" << spread;
    EXPECT_GE(stats.heterogeneity, 0.0);
    EXPECT_LT(stats.heterogeneity, 1.0);
    previous = stats.heterogeneity;
  }
}

TEST(PoolStatsTest, ConfidenceWeightDiscountsUnconvergedReadings) {
  // One outlier at 10x speed: with zero samples behind its reading it
  // enters the weighted statistics at quarter weight, so the score it
  // produces differs from the fully-converged one — but it is still
  // visible (score well above the uniform pool's zero) and bounded.
  std::vector<broker::ProviderView> base;
  for (std::uint64_t i = 1; i <= 4; ++i) base.push_back(make_view(i, 100e6));

  auto scored = [&](std::uint64_t samples) {
    auto pool = base;
    pool.push_back(make_view(9, 1000e6, samples));
    return broker::compute_pool_stats(pool).heterogeneity;
  };
  EXPECT_NE(scored(10), scored(0));
  for (const std::uint64_t samples : {std::uint64_t{0}, std::uint64_t{10}}) {
    EXPECT_GT(scored(samples), 0.3);
    EXPECT_LT(scored(samples), 1.0);
  }
}

TEST(PoolStatsTest, EmptyPoolIsAllZeros) {
  const broker::PoolStats stats = broker::compute_pool_stats({});
  EXPECT_EQ(stats.providers, 0u);
  EXPECT_DOUBLE_EQ(stats.heterogeneity, 0.0);
  EXPECT_DOUBLE_EQ(stats.mean_health, 0.0);
}

// --- admin line protocol -----------------------------------------------------

TEST(AdminProtocolTest, ParsesCommandAndParams) {
  const net::AdminRequest bare = net::parse_admin_request("status");
  EXPECT_EQ(bare.cmd, "status");
  EXPECT_TRUE(bare.params.empty());

  const net::AdminRequest req =
      net::parse_admin_request("series?name=broker.completed&window=5s");
  EXPECT_EQ(req.cmd, "series");
  EXPECT_EQ(req.param("name"), "broker.completed");
  EXPECT_EQ(req.param("window"), "5s");
  EXPECT_EQ(req.param("missing", "fallback"), "fallback");

  // %XX unescaping and CR tolerance (telnet/nc send \r\n).
  const net::AdminRequest escaped =
      net::parse_admin_request("trace?tasklet=tasklet%2D12\r");
  EXPECT_EQ(escaped.cmd, "trace");
  EXPECT_EQ(escaped.param("tasklet"), "tasklet-12");
}

TEST(AdminProtocolTest, ServerRoundTripsOverLoopback) {
  net::AdminServer server(0, [](const net::AdminRequest& request) {
    return std::string("{\"echo\":\"") + request.cmd + "\"}";
  });
  ASSERT_TRUE(server.listening());
  ASSERT_NE(server.port(), 0);

  EXPECT_EQ(net::admin_query(server.port(), "status"), "{\"echo\":\"status\"}");
  EXPECT_EQ(net::admin_query(server.port(), "bogus"), "{\"echo\":\"bogus\"}");
  server.stop();
  EXPECT_EQ(net::admin_query(server.port(), "status"), "");  // closed
}

// --- OpsPlane ----------------------------------------------------------------

core::OpsPlane::BrokerState fake_broker_state() {
  core::OpsPlane::BrokerState state;
  state.stats.tasklets_submitted = 12;
  state.stats.tasklets_completed = 9;
  state.providers = {make_view(1, 100e6), make_view(2, 400e6)};
  state.pool = broker::compute_pool_stats(state.providers);
  state.queue_length = 3;
  return state;
}

TEST_F(OpsTest, OpsPlaneAnswersAdminCommandsWithoutSockets) {
  auto& registry = metrics::MetricsRegistry::instance();
  core::OpsConfig config;
  config.enabled = true;
  config.serve_admin = false;
  config.rules = {"done: t.done > 5"};
  core::OpsPlane plane(config, fake_broker_state, /*trace=*/nullptr,
                       /*start_sampler=*/false);
  EXPECT_FALSE(plane.admin_listening());

  registry.counter("t.done").inc(3);
  plane.sample(1 * kSecond);
  registry.counter("t.done").inc(6);
  plane.sample(2 * kSecond);

  const std::string status = plane.handle(net::parse_admin_request("status"));
  EXPECT_EQ(status.front(), '{');
  EXPECT_NE(status.find("\"samples\":2"), std::string::npos);
  EXPECT_NE(status.find("\"queue\":3"), std::string::npos);
  EXPECT_NE(status.find("\"heterogeneity\""), std::string::npos);

  const std::string metrics_response =
      plane.handle(net::parse_admin_request("metrics?window=5s"));
  EXPECT_NE(metrics_response.find("\"t.done\":9"), std::string::npos);
  EXPECT_NE(metrics_response.find("\"rates\""), std::string::npos);

  const std::string series =
      plane.handle(net::parse_admin_request("series?name=t.done"));
  EXPECT_NE(series.find("\"points\""), std::string::npos);
  EXPECT_NE(series.find("\"count\":2"), std::string::npos);
  const std::string missing_series =
      plane.handle(net::parse_admin_request("series?name=no.such"));
  EXPECT_NE(missing_series.find("\"error\""), std::string::npos);

  const std::string providers =
      plane.handle(net::parse_admin_request("providers"));
  EXPECT_NE(providers.find("node-1"), std::string::npos);
  EXPECT_NE(providers.find("node-2"), std::string::npos);
  EXPECT_NE(providers.find("\"health\""), std::string::npos);

  // The "done" rule fired on the second sample (9 > 5, no sustain).
  const std::string alerts = plane.handle(net::parse_admin_request("alerts"));
  EXPECT_NE(alerts.find("\"done\""), std::string::npos);
  EXPECT_EQ(plane.rule_engine().fired_count(), 1u);

  const std::string top = plane.handle(net::parse_admin_request("top"));
  EXPECT_NE(top.find("\"text\""), std::string::npos);

  // No TraceStore attached: trace must error, not crash.
  const std::string trace =
      plane.handle(net::parse_admin_request("trace?tasklet=1"));
  EXPECT_NE(trace.find("\"error\""), std::string::npos);

  const std::string unknown = plane.handle(net::parse_admin_request("bogus"));
  EXPECT_NE(unknown.find("\"error\""), std::string::npos);
}

// --- runtimes ----------------------------------------------------------------

TEST_F(OpsTest, SimClusterSamplesOnVirtualTimeAndFiresRules) {
  core::SimConfig config;
  config.ops.enabled = true;
  config.ops.sample_interval = 100 * kMillisecond;
  config.ops.rules = {"completed: broker.completed > 0"};
  core::SimCluster cluster(config);
  ASSERT_NE(cluster.ops(), nullptr);
  // The simulator forces the socket listener off regardless of the config.
  EXPECT_FALSE(cluster.ops()->admin_listening());

  cluster.add_providers(sim::desktop_profile(), 2);
  for (int i = 0; i < 8; ++i) {
    cluster.submit(proto::TaskletBody{proto::SyntheticBody{50'000'000, i, 64}});
  }
  ASSERT_TRUE(cluster.run_until_quiescent());
  // Give the recurring sampling event a chance to observe the final state.
  cluster.run_for(1 * kSecond);

  const auto& history = cluster.ops()->history();
  EXPECT_GT(history.samples_taken(), 5u);
  const metrics::TimeSeries* completed = history.series("broker.completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_GE(completed->latest().value, 8.0);
  // Series timestamps are virtual time, strictly increasing on the cadence.
  const auto points = completed->points();
  ASSERT_GE(points.size(), 2u);
  EXPECT_EQ(points[1].at - points[0].at, 100 * kMillisecond);

  EXPECT_GE(cluster.ops()->rule_engine().fired_count(), 1u);
  const std::string alerts =
      cluster.ops()->handle(net::parse_admin_request("alerts"));
  EXPECT_NE(alerts.find("\"completed\""), std::string::npos);
  const std::string status =
      cluster.ops()->handle(net::parse_admin_request("status"));
  EXPECT_NE(status.find("\"alerts\":{\"fired\":1,\"active\":1}"),
            std::string::npos);
}

TEST_F(OpsTest, SimClusterOpsSamplingIsDeterministic) {
  auto run_once = [] {
    // The registry is process-global; identical runs need identical
    // starting state. Registration is sticky (reset() keeps entries), so
    // also pre-register the series under test — otherwise the first run's
    // early samples lack it while later runs see it from t=0.
    metrics::MetricsRegistry::instance().reset();
    metrics::MetricsRegistry::instance().counter("broker.completed");
    core::SimConfig config;
    config.seed = 7;
    config.ops.enabled = true;
    config.ops.sample_interval = 50 * kMillisecond;
    core::SimCluster cluster(config);
    cluster.add_providers(sim::desktop_profile(), 3);
    for (int i = 0; i < 12; ++i) {
      cluster.submit(
          proto::TaskletBody{proto::SyntheticBody{80'000'000, i, 64}});
    }
    EXPECT_TRUE(cluster.run_until_quiescent());
    cluster.run_for(500 * kMillisecond);
    std::vector<std::pair<SimTime, double>> out;
    const metrics::TimeSeries* series =
        cluster.ops()->history().series("broker.completed");
    EXPECT_NE(series, nullptr);
    for (const auto& p : series->points()) out.emplace_back(p.at, p.value);
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(OpsTest, SystemServesAdminEndpointEndToEnd) {
  core::SystemConfig config;
  config.ops.enabled = true;
  config.ops.sample_interval = 20 * kMillisecond;
  config.ops.rules = {"completed: broker.completed > 0"};
  core::TaskletSystem system(config);
  ASSERT_NE(system.ops(), nullptr);
  ASSERT_TRUE(system.ops()->admin_listening());
  const std::uint16_t port = system.ops()->admin_port();
  ASSERT_NE(port, 0);

  system.add_provider();
  auto body = core::compile_tasklet(core::kernels::kFib, {std::int64_t{18}});
  ASSERT_TRUE(body.is_ok());
  auto future = system.submit(std::move(body).value());
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(future.get().status, proto::TaskletStatus::kCompleted);

  // Wait for the sampler thread to observe the completion and fire the rule.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (system.ops()->rule_engine().fired_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(system.ops()->rule_engine().fired_count(), 1u);

  const std::string status = net::admin_query(port, "status");
  EXPECT_EQ(status.front(), '{');
  EXPECT_NE(status.find("\"samples\""), std::string::npos);

  const std::string metrics_response =
      net::admin_query(port, "metrics?window=5s");
  EXPECT_NE(metrics_response.find("broker.completed"), std::string::npos);

  const std::string providers = net::admin_query(port, "providers");
  EXPECT_NE(providers.find("node-"), std::string::npos);

  const std::string alerts = net::admin_query(port, "alerts");
  EXPECT_NE(alerts.find("\"completed\""), std::string::npos);

  const std::string top = net::admin_query(port, "top");
  EXPECT_NE(top.find("NODE"), std::string::npos);

  const std::string unknown = net::admin_query(port, "definitely-not-a-cmd");
  EXPECT_NE(unknown.find("\"error\""), std::string::npos);
}

}  // namespace
}  // namespace tasklets

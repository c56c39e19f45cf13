// Property tests for the broker under randomized event sequences, checking
// the scheduling-safety invariants from DESIGN.md §6:
//
//   * assignments only go to providers that are registered and online,
//   * a provider never holds more concurrent attempts than it has slots,
//   * concurrent replicas of one tasklet land on distinct providers,
//   * each tasklet receives at most one terminal report,
//   * once the dust settles (all results delivered, scans run), every
//     submitted tasklet is terminal — nothing is silently dropped.
//
// Also: a determinism sweep of the full simulation runtime across seeds and
// policies (same seed => identical report traces).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <vector>

#include "broker/broker.hpp"
#include "core/sim_cluster.hpp"

namespace tasklets::broker {
namespace {

using proto::AssignTasklet;
using proto::AttemptResult;
using proto::AttemptStatus;
using proto::Envelope;
using proto::SubmitTasklet;
using proto::TaskletDone;

constexpr NodeId kBrokerId{1};
constexpr NodeId kConsumer{500};

struct ProviderModel {
  bool online = false;
  std::uint32_t slots = 1;
  SimTime last_heartbeat = 0;
  std::set<AttemptId> inflight;  // attempts we have seen assigned, unresolved
};

class BrokerFuzzer {
 public:
  explicit BrokerFuzzer(std::uint64_t seed)
      : rng_(seed),
        broker_(kBrokerId, make_random(), config()) {
    proto::Outbox out(kBrokerId);
    broker_.on_start(now_, out);
    absorb(out);
  }

  static BrokerConfig config() {
    BrokerConfig c;
    c.unschedulable_grace = 1 * kSecond;
    return c;
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) {
      step();
    }
    settle();
    check_terminal_coverage();
    // Every beat listed what its provider held and nothing was lost, so
    // reconciliation never fenced an attempt.
    EXPECT_EQ(broker_.stats().attempts_reconciled, 0u);
  }

 private:
  void step() {
    now_ += static_cast<SimTime>(rng_.next_below(200)) * kMillisecond;
    switch (rng_.next_below(10)) {
      case 0: register_provider(); break;
      case 1: deregister_provider(); break;
      case 2: heartbeat_all(); break;
      case 3:
      case 4: submit(); break;
      case 5: fire_scan(); break;
      default: resolve_attempt(); break;
    }
  }

  void register_provider() {
    const NodeId id{2 + rng_.next_below(8)};  // small id space: re-registrations
    proto::Capability capability;
    capability.slots = 1 + static_cast<std::uint32_t>(rng_.next_below(3));
    capability.speed_fuel_per_sec = rng_.uniform(10e6, 800e6);
    auto& model = providers_[id];
    // Re-registration implies restart: the broker re-issues whatever it
    // thought was running there; our model drops those attempts too (their
    // results will never be sent).
    for (const AttemptId attempt : model.inflight) {
      zombie_attempts_.insert(attempt);
    }
    model.inflight.clear();
    model.online = true;
    model.slots = capability.slots;
    model.last_heartbeat = now_;
    deliver(id, proto::RegisterProvider{std::move(capability)});
  }

  void deregister_provider() {
    const auto victim = pick_online();
    if (!victim.valid()) return;
    auto& model = providers_[victim];
    model.online = false;
    for (const AttemptId attempt : model.inflight) {
      zombie_attempts_.insert(attempt);
    }
    model.inflight.clear();
    deliver(victim, proto::DeregisterProvider{});
  }

  // Online providers beat, listing the attempts they hold (r5).
  void heartbeat_all() {
    for (auto& [id, model] : providers_) {
      if (model.online) {
        model.last_heartbeat = now_;
        deliver(id, proto::Heartbeat{{model.inflight.begin(),
                                      model.inflight.end()}});
      }
    }
  }

  void submit() {
    proto::TaskletSpec spec;
    spec.id = TaskletId{++next_tasklet_};
    spec.job = JobId{1};
    spec.body = proto::SyntheticBody{1000, static_cast<std::int64_t>(next_tasklet_), 64};
    spec.qoc.redundancy = static_cast<std::uint8_t>(1 + rng_.next_below(3));
    spec.qoc.max_reissues = static_cast<std::uint8_t>(rng_.next_below(4));
    submitted_.insert(spec.id);
    deliver(kConsumer, SubmitTasklet{std::move(spec), {}});
  }

  void fire_scan() {
    // Mirror the broker's liveness rule: a provider whose heartbeat is older
    // than 3.5 intervals is expired — its in-flight work is re-issued, so
    // the model must drop those attempts (their results become zombies; we
    // never send them).
    const auto timeout = static_cast<SimTime>(
        3.5 * static_cast<double>(BrokerConfig{}.heartbeat_interval));
    for (auto& [id, model] : providers_) {
      if (model.online && now_ - model.last_heartbeat > timeout) {
        for (const AttemptId attempt : model.inflight) {
          zombie_attempts_.insert(attempt);
        }
        model.inflight.clear();
      }
    }
    proto::Outbox out(kBrokerId);
    broker_.on_timer(1, now_, out);
    absorb(out);
  }

  void resolve_attempt() {
    // Pick any provider with an unresolved attempt and answer it.
    for (auto& [id, model] : providers_) {
      if (model.inflight.empty()) continue;
      const AttemptId attempt = *model.inflight.begin();
      model.inflight.erase(attempt);
      AttemptResult result;
      result.attempt = attempt;
      result.tasklet = attempt_tasklet_.at(attempt);
      const auto roll = rng_.next_below(10);
      if (roll < 7) {
        result.outcome.status = AttemptStatus::kOk;
        result.outcome.result =
            static_cast<std::int64_t>(result.tasklet.value());
        result.outcome.fuel_used = 1000;
      } else if (roll < 8) {
        result.outcome.status = AttemptStatus::kRejected;
        result.outcome.error = "no slot";
      } else {
        result.outcome.status = AttemptStatus::kProviderLost;
        result.outcome.error = "lost";
      }
      deliver(id, std::move(result));
      return;
    }
  }

  // Completes all outstanding work and runs scans until quiescent.
  void settle() {
    for (int round = 0; round < 300; ++round) {
      bool any = false;
      for (auto& [id, model] : providers_) {
        while (!model.inflight.empty()) {
          const AttemptId attempt = *model.inflight.begin();
          model.inflight.erase(attempt);
          AttemptResult result;
          result.attempt = attempt;
          result.tasklet = attempt_tasklet_.at(attempt);
          result.outcome.status = AttemptStatus::kOk;
          result.outcome.result =
              static_cast<std::int64_t>(result.tasklet.value());
          result.outcome.fuel_used = 1000;
          deliver(id, std::move(result));
          any = true;
        }
      }
      // Make sure at least one provider is available for queued work.
      if (round == 0 && pick_online() == NodeId{}) {
        register_provider();
        any = true;
      }
      heartbeat_all();
      now_ += 2 * kSecond;
      fire_scan();
      if (!any && broker_.queue_length() == 0) break;
    }
  }

  void check_terminal_coverage() {
    for (const TaskletId id : submitted_) {
      EXPECT_TRUE(reported_.contains(id))
          << id.to_string() << " never reached a terminal state";
    }
  }

  NodeId pick_online() {
    std::vector<NodeId> online;
    for (const auto& [id, model] : providers_) {
      if (model.online) online.push_back(id);
    }
    if (online.empty()) return NodeId{};
    return online[rng_.next_below(online.size())];
  }

  void deliver(NodeId from, proto::Message message) {
    proto::Outbox out(kBrokerId);
    broker_.on_message(Envelope{from, kBrokerId, std::move(message)}, now_, out);
    absorb(out);
  }

  // Observes the broker's outputs and checks invariants online.
  void absorb(proto::Outbox& out) {
    for (auto& envelope : out.take_messages()) {
      if (const auto* assign = std::get_if<AssignTasklet>(&envelope.payload)) {
        const NodeId target = envelope.to;
        ASSERT_TRUE(providers_.contains(target))
            << "assignment to unregistered " << target.to_string();
        auto& model = providers_.at(target);
        EXPECT_TRUE(model.online)
            << "assignment to offline " << target.to_string();
        EXPECT_LT(model.inflight.size(), model.slots)
            << "slot overflow on " << target.to_string();
        // Distinct-provider rule for concurrent replicas.
        for (const auto& [other_id, other] : providers_) {
          for (const AttemptId a : other.inflight) {
            if (attempt_tasklet_.at(a) == assign->tasklet) {
              EXPECT_NE(other_id, target)
                  << "two live replicas of " << assign->tasklet.to_string()
                  << " on " << target.to_string();
            }
          }
        }
        model.inflight.insert(assign->attempt);
        attempt_tasklet_[assign->attempt] = assign->tasklet;
      } else if (const auto* done = std::get_if<TaskletDone>(&envelope.payload)) {
        EXPECT_EQ(envelope.to, kConsumer);
        EXPECT_FALSE(reported_.contains(done->report.id))
            << "duplicate terminal report for " << done->report.id.to_string();
        reported_.insert(done->report.id);
        if (done->report.status == proto::TaskletStatus::kCompleted) {
          // Completed results carry the value the (honest) providers sent.
          EXPECT_EQ(std::get<std::int64_t>(done->report.result),
                    static_cast<std::int64_t>(done->report.id.value()));
        }
      }
    }
    (void)out.take_timers();
  }

  Rng rng_;
  Broker broker_;
  SimTime now_ = 0;
  std::uint64_t next_tasklet_ = 0;
  std::map<NodeId, ProviderModel> providers_;
  std::map<AttemptId, TaskletId> attempt_tasklet_;
  std::set<AttemptId> zombie_attempts_;
  std::set<TaskletId> submitted_;
  std::set<TaskletId> reported_;
};

class BrokerFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BrokerFuzzSweep, InvariantsHoldUnderRandomEventSequences) {
  BrokerFuzzer fuzzer(GetParam());
  fuzzer.run(600);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, BrokerFuzzSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// --- chaos sweep: at-least-once delivery, exactly-once reporting -------------------
//
// A second fuzzer focused on *message-level* faults rather than provider
// churn: every frame into the broker (submissions, results, heartbeats) and
// every assignment out of it can be dropped, duplicated or delayed by a
// per-plan random amount. The consumer retransmits unreported submissions
// (at-least-once, like consumer::ConsumerAgent), providers fence duplicate
// assignments by attempt id and heartbeat the attempts they hold (like
// provider::ProviderAgent), and the broker's heartbeat reconciliation
// recovers anything lost in between. Invariant: every
// tasklet reaches exactly one terminal outcome — later reports for the same
// id may only be byte-identical replays of it, never a second conclusion.
class ChaosBrokerFuzzer {
 public:
  explicit ChaosBrokerFuzzer(std::uint64_t seed)
      : rng_(seed), broker_(kBrokerId, make_random(), config()) {
    p_drop_ = rng_.uniform(0.0, 0.3);
    p_duplicate_ = rng_.uniform(0.0, 0.3);
    p_delay_ = rng_.uniform(0.0, 0.3);
    proto::Outbox out(kBrokerId);
    broker_.on_start(now_, out);
    absorb(out);
  }

  static BrokerConfig config() {
    BrokerConfig c;
    c.unschedulable_grace = 1 * kSecond;
    return c;
  }

  [[nodiscard]] std::uint64_t reconciled() const {
    return broker_.stats().attempts_reconciled;
  }

  void run(int steps) {
    for (int i = 0; i < 3; ++i) add_provider();
    for (int s = 0; s < steps; ++s) step();
    settle();
    for (const auto& [id, spec] : specs_) {
      EXPECT_TRUE(first_report_.contains(id))
          << id.to_string() << " never reached a terminal state";
    }
  }

 private:
  struct AttemptInfo {
    NodeId provider;
    TaskletId tasklet;
  };
  struct Delayed {
    SimTime due;
    NodeId from;
    proto::Message message;
  };

  void step() {
    now_ += static_cast<SimTime>(rng_.next_below(400)) * kMillisecond;
    flush_due();
    switch (rng_.next_below(8)) {
      case 0:
      case 1: submit(); break;
      case 2: heartbeat_all(); break;
      case 3: fire_scan(); break;
      case 4: retransmit_random_submit(); break;
      default: resolve_one(); break;
    }
  }

  void add_provider() {
    const NodeId id{2 + next_provider_++};
    proto::Capability capability;
    capability.slots = 1 + static_cast<std::uint32_t>(rng_.next_below(3));
    capability.speed_fuel_per_sec = rng_.uniform(10e6, 800e6);
    providers_.push_back(id);
    // Registration goes through the reliable path: provider registration
    // retransmission is covered by test_provider; here the chaos targets
    // the tasklet lifecycle.
    deliver(id, proto::RegisterProvider{std::move(capability), 1});
  }

  void submit() {
    proto::TaskletSpec spec;
    spec.id = TaskletId{++next_tasklet_};
    spec.job = JobId{1};
    spec.body =
        proto::SyntheticBody{1000, static_cast<std::int64_t>(next_tasklet_), 64};
    spec.qoc.redundancy = static_cast<std::uint8_t>(1 + rng_.next_below(3));
    spec.qoc.max_reissues = static_cast<std::uint8_t>(rng_.next_below(4));
    specs_.emplace(spec.id, spec);
    channel_in(kConsumer, SubmitTasklet{std::move(spec), {}});
  }

  // The at-least-once consumer: re-send a random retained spec, reported or
  // not — retransmits of concluded tasklets must come back as replays.
  void retransmit_random_submit() {
    if (specs_.empty()) return;
    auto it = specs_.begin();
    std::advance(it, static_cast<long>(rng_.next_below(specs_.size())));
    channel_in(kConsumer, SubmitTasklet{it->second, {}});
  }

  // Each provider beats the attempts it holds: assigns that reached it and
  // that it has not answered. A lost assign or result is missing here.
  void heartbeat_all() {
    std::map<NodeId, std::vector<AttemptId>> held;
    for (const AttemptId attempt : unresolved_) {
      held[attempt_info_.at(attempt).provider].push_back(attempt);
    }
    for (const NodeId id : providers_) {
      std::vector<AttemptId>& attempts = held[id];
      std::sort(attempts.begin(), attempts.end());
      channel_in(id, proto::Heartbeat{std::move(attempts)});
    }
  }

  void fire_scan() {
    proto::Outbox out(kBrokerId);
    broker_.on_timer(1, now_, out);
    absorb(out);
  }

  void resolve_one(bool always_ok = false) {
    if (unresolved_.empty()) return;
    const auto index = rng_.next_below(unresolved_.size());
    const AttemptId attempt = unresolved_[index];
    unresolved_.erase(unresolved_.begin() + static_cast<long>(index));
    const AttemptInfo& info = attempt_info_.at(attempt);
    AttemptResult result;
    result.attempt = attempt;
    result.tasklet = info.tasklet;
    if (always_ok || rng_.next_below(10) < 8) {
      result.outcome.status = AttemptStatus::kOk;
      result.outcome.result = static_cast<std::int64_t>(info.tasklet.value());
      result.outcome.fuel_used = 1000;
    } else {
      result.outcome.status = AttemptStatus::kRejected;
      result.outcome.error = "no slot";
    }
    channel_in(info.provider, std::move(result));
  }

  // The faulty inbound link: drop, delay (possibly past two heartbeats,
  // making the eventual delivery a *fenced late* result) or duplicate each
  // frame.
  void channel_in(NodeId from, proto::Message message) {
    if (!reliable_ && rng_.bernoulli(p_drop_)) return;
    if (!reliable_ && rng_.bernoulli(p_delay_)) {
      delayed_.push_back(
          {now_ + static_cast<SimTime>(rng_.next_below(5)) * kSecond + kSecond,
           from, std::move(message)});
      return;
    }
    const bool duplicate = !reliable_ && rng_.bernoulli(p_duplicate_);
    if (duplicate) deliver(from, message);
    deliver(from, std::move(message));
  }

  void flush_due() {
    for (auto it = delayed_.begin(); it != delayed_.end();) {
      if (it->due <= now_) {
        deliver(it->from, std::move(it->message));
        it = delayed_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void deliver(NodeId from, proto::Message message) {
    proto::Outbox out(kBrokerId);
    broker_.on_message(Envelope{from, kBrokerId, std::move(message)}, now_, out);
    absorb(out);
  }

  void absorb(proto::Outbox& out) {
    for (auto& envelope : out.take_messages()) {
      if (const auto* assign = std::get_if<AssignTasklet>(&envelope.payload)) {
        attempt_info_[assign->attempt] = {envelope.to, assign->tasklet};
        // The assignment frame may be lost on the way out; a duplicated one
        // is fenced by the provider's seen-attempts set, so only the first
        // copy creates work.
        if (!reliable_ && rng_.bernoulli(p_drop_)) continue;
        if (seen_assigns_.insert(assign->attempt).second) {
          unresolved_.push_back(assign->attempt);
        }
      } else if (const auto* done = std::get_if<TaskletDone>(&envelope.payload)) {
        record_terminal(done->report);
      }
    }
    (void)out.take_timers();
  }

  void record_terminal(const proto::TaskletReport& report) {
    const auto it = first_report_.find(report.id);
    if (it == first_report_.end()) {
      if (report.status == proto::TaskletStatus::kCompleted) {
        EXPECT_EQ(std::get<std::int64_t>(report.result),
                  static_cast<std::int64_t>(report.id.value()));
      }
      first_report_.emplace(report.id,
                            std::make_pair(report.status, report.result));
      return;
    }
    // Exactly-once conclusion: anything after the first terminal report
    // must be a replay of it, never a different outcome.
    EXPECT_EQ(it->second.first, report.status)
        << "conflicting terminal reports for " << report.id.to_string();
    EXPECT_TRUE(tvm::args_equal(it->second.second, report.result))
        << "terminal replay with a different result for "
        << report.id.to_string();
  }

  // Makes the network reliable and drives everything to a terminal state:
  // pending frames delivered, outstanding attempts answered, unreported
  // submissions retransmitted, heartbeats and scans sent so fences run.
  void settle() {
    reliable_ = true;
    for (int round = 0; round < 100; ++round) {
      now_ += 1 * kSecond;
      flush_due();
      heartbeat_all();
      int guard = 0;
      while (!unresolved_.empty() && ++guard < 10'000) {
        resolve_one(/*always_ok=*/true);
      }
      for (const auto& [id, spec] : specs_) {
        if (!first_report_.contains(id)) channel_in(kConsumer, SubmitTasklet{spec, {}});
      }
      fire_scan();
      if (delayed_.empty() && unresolved_.empty() &&
          first_report_.size() == specs_.size()) {
        return;
      }
    }
  }

  Rng rng_;
  Broker broker_;
  SimTime now_ = 0;
  double p_drop_ = 0;
  double p_duplicate_ = 0;
  double p_delay_ = 0;
  bool reliable_ = false;
  std::uint64_t next_tasklet_ = 0;
  std::uint64_t next_provider_ = 0;
  std::vector<NodeId> providers_;
  std::map<TaskletId, proto::TaskletSpec> specs_;
  std::map<AttemptId, AttemptInfo> attempt_info_;
  std::set<AttemptId> seen_assigns_;
  std::vector<AttemptId> unresolved_;
  std::vector<Delayed> delayed_;
  std::map<TaskletId, std::pair<proto::TaskletStatus, tvm::HostArg>> first_report_;
};

// The acceptance bar from the chaos-testing issue: 220 independent random
// fault plans, each a full lifecycle fuzz, with zero duplicate or
// conflicting terminal reports.
TEST(ChaosBrokerFuzz, ExactlyOnceReportingUnder220RandomFaultPlans) {
  std::uint64_t reconciled = 0;
  for (std::uint64_t plan = 1; plan <= 220; ++plan) {
    ChaosBrokerFuzzer fuzzer(0xC4A05000 + plan);
    fuzzer.run(120);
    reconciled += fuzzer.reconciled();
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing fault plan: " << plan;
      break;
    }
  }
  // Lost assigns and results were recovered by heartbeat reconciliation.
  EXPECT_GT(reconciled, 0u);
}

// --- full-runtime determinism sweep ------------------------------------------------

struct DeterminismCase {
  std::uint64_t seed;
  const char* policy;
};

// Without a printer gtest shows a case as a byte dump that includes the
// address of `policy`, which ASLR moves on every run, so the test names
// derived from it (e.g. by CMake's gtest_discover_tests) would never repeat.
void PrintTo(const DeterminismCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_" << c.policy;
}

class SimDeterminismSweep : public ::testing::TestWithParam<DeterminismCase> {};

TEST_P(SimDeterminismSweep, IdenticalReportTraces) {
  const auto& param = GetParam();
  auto run_once = [&] {
    core::SimConfig config;
    config.seed = param.seed;
    config.scheduler = param.policy;
    core::SimCluster cluster(config);
    cluster.add_providers(sim::server_profile(), 1);
    sim::DeviceProfile churny = sim::laptop_profile();
    churny.mean_session = 20 * kSecond;
    cluster.add_providers(churny, 3);
    cluster.add_providers(sim::sbc_profile(), 2);
    for (int i = 0; i < 40; ++i) {
      proto::Qoc qoc;
      qoc.redundancy = static_cast<std::uint8_t>(1 + i % 3);
      qoc.max_reissues = 8;
      cluster.submit_at(i * 20 * kMillisecond,
                        proto::TaskletBody{proto::SyntheticBody{
                            30'000'000 + static_cast<std::uint64_t>(i) * 1'000'000,
                            i, 128}},
                        qoc);
    }
    cluster.run_until_quiescent(3600 * kSecond);
    std::vector<std::tuple<std::uint64_t, int, SimTime, std::uint32_t>> trace;
    for (const auto& report : cluster.reports()) {
      trace.emplace_back(report.id.value(), static_cast<int>(report.status),
                         report.latency, report.attempts);
    }
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Determinism, SimDeterminismSweep,
    ::testing::Values(DeterminismCase{1, "qoc_aware"},
                      DeterminismCase{2, "round_robin"},
                      DeterminismCase{3, "random"},
                      DeterminismCase{4, "least_loaded"},
                      DeterminismCase{5, "fastest_first"},
                      DeterminismCase{42, "qoc_aware"}));

}  // namespace
}  // namespace tasklets::broker

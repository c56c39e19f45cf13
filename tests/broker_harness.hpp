// Shared broker test fixture.
//
// The broker is a pure actor: tests feed it envelopes/timers directly and
// inspect the outbox — no runtime, no threads, no virtual clock needed.
// Extracted from test_broker.cpp so the scheduling suite (test_scheduling)
// and future broker-facing suites drive the same harness instead of
// re-growing their own.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "broker/broker.hpp"
#include "broker/scheduling.hpp"

namespace tasklets::broker::testing {

inline constexpr NodeId kBrokerId{1};
inline constexpr NodeId kConsumer{100};

inline proto::Capability capability(
    proto::DeviceClass device_class = proto::DeviceClass::kDesktop,
    double speed = 100e6, std::uint32_t slots = 1, std::string locality = {},
    double cost = 1.0) {
  proto::Capability c;
  c.device_class = device_class;
  c.speed_fuel_per_sec = speed;
  c.slots = slots;
  c.locality = std::move(locality);
  c.cost_per_gfuel = cost;
  return c;
}

// Drives a Broker directly and records everything it emits.
class BrokerHarness {
 public:
  explicit BrokerHarness(std::string_view policy = "qoc_aware",
                         BrokerConfig config = {})
      : broker_(kBrokerId, std::move(make_scheduler(policy)).value(), config) {
    proto::Outbox out(kBrokerId);
    broker_.on_start(now, out);
    absorb(out);
  }

  void deliver(NodeId from, proto::Message message) {
    if (const auto* result = std::get_if<proto::AttemptResult>(&message)) {
      held_[from].erase(result->attempt);
    }
    proto::Outbox out(kBrokerId);
    broker_.on_message(proto::Envelope{from, kBrokerId, std::move(message)},
                       now, out);
    absorb(out);
  }

  void fire_timer(std::uint64_t timer_id) {
    proto::Outbox out(kBrokerId);
    broker_.on_timer(timer_id, now, out);
    absorb(out);
  }

  // All recorded envelopes of type T (optionally to one node).
  template <typename T>
  std::vector<T> sent_to(NodeId to) const {
    std::vector<T> out;
    for (const auto& envelope : sent_) {
      if (envelope.to != to) continue;
      if (const auto* m = std::get_if<T>(&envelope.payload)) out.push_back(*m);
    }
    return out;
  }
  template <typename T>
  std::vector<std::pair<NodeId, T>> all_sent() const {
    std::vector<std::pair<NodeId, T>> out;
    for (const auto& envelope : sent_) {
      if (const auto* m = std::get_if<T>(&envelope.payload)) {
        out.emplace_back(envelope.to, *m);
      }
    }
    return out;
  }
  void clear_sent() { sent_.clear(); }

  // Convenience flows -------------------------------------------------------
  void register_provider(NodeId id, proto::Capability c = capability()) {
    deliver(id, proto::RegisterProvider{std::move(c)});
  }

  // A heartbeat listing every attempt assigned to `provider` that it has
  // not answered yet: a healthy provider, as reconciliation (r5) sees it.
  void heartbeat(NodeId provider) {
    const std::set<AttemptId>& held = held_[provider];
    deliver(provider, proto::Heartbeat{{held.begin(), held.end()}});
  }

  TaskletId submit(proto::Qoc qoc = {}, std::int64_t result = 7,
                   std::string origin = {}) {
    proto::TaskletSpec spec;
    spec.id = next_tasklet_;
    next_tasklet_ = TaskletId{next_tasklet_.value() + 1};
    spec.job = JobId{1};
    spec.body = proto::SyntheticBody{1000, result, 64};
    spec.qoc = qoc;
    spec.origin_locality = std::move(origin);
    deliver(kConsumer, proto::SubmitTasklet{std::move(spec), {}});
    return TaskletId{next_tasklet_.value() - 1};
  }

  void complete(NodeId provider, const proto::AssignTasklet& assign,
                std::int64_t result = 7, std::uint64_t fuel = 1000) {
    proto::AttemptResult r;
    r.attempt = assign.attempt;
    r.tasklet = assign.tasklet;
    r.outcome.status = proto::AttemptStatus::kOk;
    r.outcome.result = result;
    r.outcome.fuel_used = fuel;
    deliver(provider, r);
  }

  void fail_attempt(NodeId provider, const proto::AssignTasklet& assign,
                    proto::AttemptStatus status, std::string error = "x") {
    proto::AttemptResult r;
    r.attempt = assign.attempt;
    r.tasklet = assign.tasklet;
    r.outcome.status = status;
    r.outcome.error = std::move(error);
    deliver(provider, r);
  }

  // `n` submit/complete round trips of `duration` each, so the completion
  // histogram has enough mass for the straggler bound to engage.
  void feed_completions(int n, SimTime duration) {
    for (int i = 0; i < n; ++i) {
      clear_sent();
      submit({}, 1);
      const auto assigns = all_sent<proto::AssignTasklet>();
      ASSERT_EQ(assigns.size(), 1u);
      now += duration;
      complete(assigns[0].first, assigns[0].second, 1);
    }
    clear_sent();
  }

  Broker& broker() { return broker_; }
  SimTime now = 0;

 private:
  void absorb(proto::Outbox& out) {
    for (auto& envelope : out.take_messages()) {
      if (const auto* assign =
              std::get_if<proto::AssignTasklet>(&envelope.payload)) {
        held_[envelope.to].insert(assign->attempt);
      }
      sent_.push_back(std::move(envelope));
    }
    for (const auto& timer : out.take_timers()) {
      timers_[timer.timer_id] = now + timer.delay;
    }
  }

  Broker broker_;
  std::vector<proto::Envelope> sent_;
  std::map<std::uint64_t, SimTime> timers_;
  // Attempts assigned to each provider and not answered (heartbeat()).
  std::map<NodeId, std::set<AttemptId>> held_;
  TaskletId next_tasklet_{1};
};

// --- direct-policy helpers --------------------------------------------------

inline ProviderView view(std::uint64_t id, proto::DeviceClass device_class,
                         double speed, std::uint32_t slots, std::uint32_t busy,
                         double reliability = 1.0, double cost = 1.0) {
  ProviderView v;
  v.id = NodeId{id};
  v.capability = capability(device_class, speed, slots, "", cost);
  v.busy_slots = busy;
  v.observed_reliability = reliability;
  return v;
}

// `SchedulingContext.eligible` is a span over `pool` — the vector must
// outlive the context (the rvalue overload is deleted to enforce it).
inline SchedulingContext context_for(const std::vector<ProviderView>&& pool) = delete;
inline SchedulingContext context_for(const std::vector<ProviderView>& pool) {
  SchedulingContext context;
  context.eligible = pool;
  for (const auto& p : pool) {
    context.best_online_speed =
        std::max(context.best_online_speed, p.capability.speed_fuel_per_sec);
    context.best_online_effective_speed =
        std::max(context.best_online_effective_speed, p.effective_speed());
  }
  return context;
}

inline proto::TaskletSpec spec_with(proto::Qoc qoc) {
  proto::TaskletSpec spec;
  spec.id = TaskletId{1};
  spec.body = proto::SyntheticBody{};
  spec.qoc = qoc;
  return spec;
}

}  // namespace tasklets::broker::testing

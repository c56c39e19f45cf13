// Shared helpers for the chaos test suite (test_chaos.cpp, and any future
// fault-plan test): fault-plan builders, a TaskletSystem configured for
// fast recovery under injected faults, and polling await helpers.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <thread>

#include "core/kernels.hpp"
#include "core/system.hpp"

namespace tasklets::chaos {

// A symmetric fault plan: the same LinkFaults on every link.
inline net::FaultPlan plan_with(net::LinkFaults faults,
                                std::uint64_t seed = 0xFA17) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.default_faults = faults;
  return plan;
}

inline net::LinkFaults lossy_link(double drop, double duplicate = 0.0,
                                  double delay = 0.0, double reorder = 0.0,
                                  double corrupt = 0.0) {
  net::LinkFaults faults;
  faults.drop = drop;
  faults.duplicate = duplicate;
  faults.delay = delay;
  faults.reorder = reorder;
  faults.corrupt = corrupt;
  faults.delay_min = 1 * kMillisecond;
  faults.delay_max = 15 * kMillisecond;
  return faults;
}

// System configuration tuned for fast chaos tests: the default config
// recovers from the same faults (heartbeat reconciliation re-issues dropped
// assigns/results), but 100 ms heartbeats make provider expiry and
// reconciliation ten times quicker, and the consumer resubmits aggressively.
inline core::SystemConfig chaos_config(net::FaultPlan plan) {
  core::SystemConfig config;
  config.broker.heartbeat_interval = 100 * kMillisecond;
  config.broker.scan_interval = 50 * kMillisecond;
  config.consumer.backoff = {300 * kMillisecond, 2 * kSecond, 2.0, 0.2};
  config.consumer.max_resubmits = 40;
  config.fault_plan = std::move(plan);
  return config;
}

inline proto::TaskletBody fib_body(std::int64_t n) {
  auto body = core::compile_tasklet(core::kernels::kFib, {n});
  EXPECT_TRUE(body.is_ok()) << body.status().to_string();
  return std::move(body).value();
}

inline proto::TaskletBody spin_body(std::int64_t iterations) {
  auto body = core::compile_tasklet(core::kernels::kSpin, {iterations});
  EXPECT_TRUE(body.is_ok()) << body.status().to_string();
  return std::move(body).value();
}

// Polls `predicate` (typically over broker_stats()) until it holds or the
// deadline passes; returns whether it held.
inline bool await(const std::function<bool()>& predicate,
                  std::chrono::milliseconds deadline =
                      std::chrono::milliseconds(10'000)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

// Futures under chaos can legitimately take many recovery rounds; the
// timeout only catches real hangs.
inline proto::TaskletReport get_or_die(std::future<proto::TaskletReport>& future,
                                       std::chrono::seconds timeout =
                                           std::chrono::seconds(60)) {
  EXPECT_EQ(future.wait_for(timeout), std::future_status::ready)
      << "tasklet never reached a terminal state";
  return future.get();
}

}  // namespace tasklets::chaos

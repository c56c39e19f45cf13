// E3 — Overcoming heterogeneity (figure; the headline result).
//
// What the paper-style figure shows: batch completion time on pools of
// increasing heterogeneity, per scheduling policy. Expected shape:
//   * on homogeneous pools all policies are close;
//   * on the mixed pool, greedy work-conserving policies collapse (their
//     makespan is dominated by tasklets bound to phone-class devices);
//   * cloud_only is immune to slow-device tails but wastes mid-tier
//     capacity;
//   * the heterogeneity-aware policy (qoc_aware) wins by declining devices
//     far slower than the best online provider.
// The exit status gates that shape.
#include <algorithm>
#include <cmath>
#include <map>

#include "bench_util.hpp"

int main() {
  using namespace tasklets;
  using bench::header;
  using bench::line;

  struct Pool {
    std::string name;
    std::vector<std::pair<sim::DeviceProfile, int>> devices;
  };
  const std::vector<Pool> pools = {
      {"servers_x4", {{sim::server_profile(), 4}}},
      {"desktops_x8", {{sim::desktop_profile(), 8}}},
      {"sbc_x32", {{sim::sbc_profile(), 32}}},
      {"mixed_2_4_6_8_10",
       {{sim::server_profile(), 2},
        {sim::desktop_profile(), 4},
        {sim::laptop_profile(), 6},
        {sim::sbc_profile(), 8},
        {sim::mobile_profile(), 10}}},
  };
  const std::vector<std::string> greedy = {"round_robin", "random",
                                           "least_loaded", "fastest_first"};
  std::vector<std::string> policies = greedy;
  policies.push_back("cloud_only");
  policies.push_back("qoc_aware");
  // Makespan per pool and policy; NaN for a stuck run. Cells a policy
  // cannot run by design (cloud_only without servers) stay absent.
  std::map<std::string, std::map<std::string, double>> makespan;

  constexpr int kTasklets = 200;
  constexpr std::uint64_t kFuel = 200'000'000;  // 0.5 s on a desktop core

  header("E3", "completion time by pool heterogeneity and policy "
               "(200 tasklets x 200 Mfuel)");
  std::printf("%-18s", "pool \\ policy");
  for (const auto& policy : policies) std::printf(" %13s", policy.c_str());
  std::printf("\n");

  for (const auto& pool : pools) {
    std::printf("%-18s", pool.name.c_str());
    std::string csv = "csv,E3," + pool.name;
    const bool has_server = std::any_of(
        pool.devices.begin(), pool.devices.end(), [](const auto& d) {
          return d.first.device_class == proto::DeviceClass::kServer;
        });
    for (const auto& policy : policies) {
      if (policy == "cloud_only" && !has_server) {
        // cloud_only refuses every non-server device by design: on a
        // server-less pool the batch never runs. Report that instead of
        // simulating hours of idle heartbeats.
        std::printf(" %13s", "n/a");
        csv += ",nan";
        continue;
      }
      core::SimConfig config;
      config.scheduler = policy;
      config.seed = 11;
      core::SimCluster cluster(config);
      // Disable churn for this experiment: isolate the heterogeneity axis.
      for (const auto& [profile, count] : pool.devices) {
        sim::DeviceProfile stable = profile;
        stable.mean_session = 0;
        cluster.add_providers(stable, static_cast<std::size_t>(count));
      }
      for (int i = 0; i < kTasklets; ++i) {
        cluster.submit(proto::TaskletBody{proto::SyntheticBody{kFuel, i, 512}});
      }
      if (!cluster.run_until_quiescent(24 * 3600 * kSecond)) {
        std::printf(" %13s", "stuck");
        csv += ",nan";
        makespan[pool.name][policy] = std::nan("");
        continue;
      }
      const auto metrics = bench::collect(cluster);
      makespan[pool.name][policy] = metrics.makespan_s;
      std::printf(" %12.2fs", metrics.makespan_s);
      csv += "," + std::to_string(metrics.makespan_s);
    }
    std::printf("\n%s\n", csv.c_str());
  }

  auto& mixed = makespan["mixed_2_4_6_8_10"];
  const double qoc = mixed["qoc_aware"];
  const double cloud = mixed["cloud_only"];
  double best_greedy = INFINITY;
  for (const auto& policy : greedy) {
    best_greedy = std::min(best_greedy, mixed[policy]);
  }
  line("");
  line("shape check: on the mixed row the best greedy policy is %.1fx slower",
       best_greedy / qoc);
  line("than qoc_aware and cloud_only %.1fx (no slow tails, but only 2 of 30",
       cloud / qoc);
  line("devices used). On homogeneous rows every policy ties.");

  // Gate: the policies tie within 1% on each homogeneous pool; on the mixed
  // pool qoc_aware beats cloud_only, which beats every greedy policy.
  bool ok = true;
  for (const auto& pool : pools) {
    if (pool.name == "mixed_2_4_6_8_10") continue;
    double lo = INFINITY;
    double hi = 0.0;
    for (const auto& [policy, seconds] : makespan[pool.name]) {
      if (std::isnan(seconds)) ok = false;
      lo = std::min(lo, seconds);
      hi = std::max(hi, seconds);
    }
    if (!(hi <= 1.01 * lo)) {
      line("E3 FAILED: on %s makespans span %.4fs..%.4fs (want within 1%%)",
           pool.name.c_str(), lo, hi);
      ok = false;
    }
  }
  if (!(qoc < cloud)) {
    line("E3 FAILED: on the mixed pool qoc_aware (%.4fs) must beat cloud_only",
         qoc);
    line("(%.4fs)", cloud);
    ok = false;
  }
  for (const auto& policy : greedy) {
    if (!(cloud < mixed[policy])) {
      line("E3 FAILED: on the mixed pool cloud_only (%.4fs) must beat %s",
           cloud, policy.c_str());
      line("(%.4fs)", mixed[policy]);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

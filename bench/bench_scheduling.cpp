// E5 — Scheduling-policy comparison (table).
//
// What the paper-style table shows: mean/p95 latency, makespan, provider
// fairness and re-issue counts for each policy under three workload shapes
// (uniform open-loop arrivals, heavy-tailed sizes, bursty arrivals) on the
// standard mixed pool. Expected shape: under moderate load the policies
// separate — load-aware beats load-oblivious on latency, heterogeneity-aware
// dominates on the heavy-tailed workload where binding a huge tasklet to a
// slow device is catastrophic; fairness is highest for round_robin by
// construction.
#include <limits>

#include "bench_util.hpp"
#include "common/rng.hpp"

int main() {
  using namespace tasklets;
  using bench::header;
  using bench::line;

  struct Workload {
    std::string name;
    // Returns (arrival time offset, fuel) pairs.
    std::function<std::vector<std::pair<SimTime, std::uint64_t>>(Rng&)> generate;
  };

  constexpr int kTasklets = 300;
  const Workload uniform{
      "uniform", [](Rng& rng) {
        std::vector<std::pair<SimTime, std::uint64_t>> out;
        SimTime t = 0;
        for (int i = 0; i < kTasklets; ++i) {
          t += static_cast<SimTime>(rng.exponential(to_seconds(60 * kMillisecond)) *
                                    kSecond);
          out.emplace_back(t, 100'000'000);
        }
        return out;
      }};
  const Workload heavy_tailed{
      "heavy_tailed", [](Rng& rng) {
        std::vector<std::pair<SimTime, std::uint64_t>> out;
        SimTime t = 0;
        for (int i = 0; i < kTasklets; ++i) {
          t += static_cast<SimTime>(rng.exponential(to_seconds(60 * kMillisecond)) *
                                    kSecond);
          // Pareto sizes: many small, a few enormous.
          const double fuel = std::min(rng.pareto(20e6, 1.3), 4e9);
          out.emplace_back(t, static_cast<std::uint64_t>(fuel));
        }
        return out;
      }};
  const Workload bursty{
      "bursty", [](Rng& rng) {
        std::vector<std::pair<SimTime, std::uint64_t>> out;
        SimTime t = 0;
        for (int burst = 0; burst < 10; ++burst) {
          t += static_cast<SimTime>(rng.exponential(2.0) * kSecond);
          for (int i = 0; i < kTasklets / 10; ++i) {
            out.emplace_back(t, 100'000'000);
          }
        }
        return out;
      }};

  const std::vector<std::string> policies = {
      "round_robin", "random", "least_loaded", "fastest_first", "cloud_only",
      "qoc_aware"};

  header("E5", "policy comparison across workload shapes (mixed pool)");
  line("%-13s %-14s %12s %12s %12s %9s %9s", "workload", "policy",
       "mean lat(s)", "p95 lat(s)", "makespan(s)", "fairness", "success");

  for (const auto& workload : {uniform, heavy_tailed, bursty}) {
    for (const auto& policy : policies) {
      core::SimConfig config;
      config.scheduler = policy;
      config.seed = 23;
      core::SimCluster cluster(config);
      bench::add_standard_mixed_pool(cluster);

      Rng rng(1000 + fnv1a(workload.name));
      for (const auto& [when, fuel] : workload.generate(rng)) {
        cluster.submit_at(when, proto::TaskletBody{proto::SyntheticBody{fuel, 1, 512}});
      }
      cluster.run_until_quiescent(4 * 3600 * kSecond);
      const auto metrics = bench::collect(cluster);
      line("%-13s %-14s %12.3f %12.3f %12.2f %9.2f %8.0f%%",
           workload.name.c_str(), policy.c_str(), metrics.mean_latency_s,
           metrics.p95_latency_s, metrics.makespan_s, metrics.fairness,
           100.0 * metrics.success_rate);
      line("csv,E5,%s,%s,%.4f,%.4f,%.3f,%.3f,%.4f", workload.name.c_str(),
           policy.c_str(), metrics.mean_latency_s, metrics.p95_latency_s,
           metrics.makespan_s, metrics.fairness, metrics.success_rate);
    }
  }

  line("");
  line("shape check: speed-aware policies (fastest_first, qoc_aware, and —");
  line("at this light load — cloud_only) cluster at ~10x lower latency than");
  line("load-oblivious ones; the gap explodes on heavy_tailed makespan");
  line("(round_robin parks multi-Gfuel tasklets on phones). round_robin");
  line("tops fairness by construction — the classic fairness/latency trade.");

  // --- E10: adaptive (measured-speed) vs static qoc_aware under dynamism ----
  //
  // Four dynamism scenarios, each swept over three intensity levels. Every
  // run carries a per-tasklet deadline, so the figure of merit is the
  // deadline-hit rate plus the p99 completion latency. Every scenario
  // includes degraded "straggler" devices whose advertised benchmark is
  // stale — the measurement the static policy trusts and the adaptive
  // policy corrects. Expected shape: adaptive >= static everywhere, with
  // the gap widening as the straggler count / churn intensity rises.
  header("E10", "adaptive vs qoc_aware under rising pool dynamism");
  line("%-12s %5s %-10s %9s %9s %9s %9s", "scenario", "level", "policy",
       "hit rate", "p99(s)", "mean(s)", "reassign");

  constexpr int kDeadlineTasklets = 300;
  constexpr SimTime kDeadline = 6 * kSecond;
  constexpr SimTime kMeanGap = 20 * kMillisecond;
  // A desktop running at 2.5% of its advertised benchmark (10 Mfuel/s): the
  // small tasklets below still complete there in ~3 s — feeding the speed
  // estimator honest samples — but the large ones take 30 s, a guaranteed
  // deadline miss for any large tasklet the static policy parks there.
  const sim::DeviceProfile straggler =
      sim::straggler_profile(sim::desktop_profile(), 0.025);

  // The gated cell: on churn_trace level 3, adaptive must not lose to
  // qoc_aware on deadline-hit rate or p99 (NaN until the cell has run).
  struct HitP99 {
    double hit = std::numeric_limits<double>::quiet_NaN();
    double p99 = std::numeric_limits<double>::quiet_NaN();
  };
  HitP99 gated_static;
  HitP99 gated_adaptive;

  const std::vector<std::string> scenarios = {"straggler", "diurnal",
                                              "churn_trace", "correlated"};
  for (const auto& scenario : scenarios) {
    for (int level = 1; level <= 3; ++level) {
      for (const std::string_view policy : {"qoc_aware", "adaptive"}) {
        core::SimConfig config;
        config.scheduler = std::string(policy);
        config.seed = 91;
        if (policy == "adaptive") {
          // The adaptive configuration is the full feedback loop: measured
          // placement plus the quantile straggler defense.
          config.broker.straggler_multiplier = 3.0;
        }
        core::SimCluster cluster(config);

        // Pool: one server (so the pool actually saturates and work spills
        // past it), three honest desktops, and stragglers ON TOP (count
        // rises with level in the straggler scenario, fixed at 2 elsewhere
        // so measurement always has something to catch): to the static
        // policy each straggler looks like welcome extra desktop capacity.
        const int stragglers = scenario == "straggler" ? level + 1 : 2;
        sim::DeviceProfile server = sim::server_profile();
        sim::DeviceProfile laptop = sim::laptop_profile();
        laptop.mean_session = 0;  // churn only where the scenario says so
        Rng scenario_rng(7000 + fnv1a(scenario) + static_cast<std::uint64_t>(level));
        if (scenario == "churn_trace") {
          // Desktops and laptops replay per-device availability traces;
          // outage frequency rises with the level, landing inside the
          // workload's active window.
          cluster.add_provider(server);
          for (int i = 0; i < 3; ++i) {
            sim::DeviceProfile churny = sim::desktop_profile();
            churny.churn_trace = sim::make_churn_trace(
                static_cast<std::size_t>(2 * level), 1 * kSecond, 30 * kSecond,
                6 * kSecond / level, 3 * kSecond, scenario_rng);
            cluster.add_provider(churny);
          }
          for (int i = 0; i < 6; ++i) {
            sim::DeviceProfile churny = laptop;
            churny.churn_trace = sim::make_churn_trace(
                static_cast<std::size_t>(2 * level), 1 * kSecond, 30 * kSecond,
                6 * kSecond / level, 3 * kSecond, scenario_rng);
            cluster.add_provider(churny);
          }
        } else if (scenario == "correlated") {
          // The server and the laptops share a site: the whole site drops
          // at t=2s and returns together, for longer as the level rises.
          // While it is dark the stragglers are the fastest-looking devices
          // left — exactly when trusting their benchmark hurts most.
          std::vector<sim::DeviceProfile> site(1, server);
          site.insert(site.end(), 6, laptop);
          sim::add_correlated_failure(site, 2 * kSecond,
                                      (2 + 2 * level) * kSecond);
          for (const auto& p : site) cluster.add_provider(p);
          cluster.add_providers(sim::desktop_profile(), 3);
        } else {
          cluster.add_provider(server);
          cluster.add_providers(sim::desktop_profile(), 3);
          cluster.add_providers(laptop, 6);
        }
        cluster.add_providers(straggler, static_cast<std::size_t>(stragglers));
        sim::DeviceProfile mobile = sim::mobile_profile();
        mobile.mean_session = 0;
        cluster.add_providers(sim::sbc_profile(), 8);
        cluster.add_providers(mobile, 10);

        // Workload: open-loop arrivals, every tasklet deadline-bound.
        Rng arrival_rng(9000 + fnv1a(scenario));
        const std::vector<SimTime> arrivals =
            scenario == "diurnal"
                ? sim::diurnal_arrivals(kDeadlineTasklets, kMeanGap,
                                        0.3 * level, 10 * kSecond, arrival_rng)
                : sim::poisson_arrivals(kDeadlineTasklets, kMeanGap,
                                        arrival_rng);
        proto::Qoc qoc;
        qoc.deadline = kDeadline;
        // Bimodal sizes: a stream of small tasklets (30 Mfuel — these keep
        // the speed estimator fed, since even a straggler finishes one) and
        // a 25% tail of large ones (300 Mfuel — sub-second on an honest
        // fast device, an unrecoverable 30 s on a straggler).
        for (const SimTime when : arrivals) {
          const std::uint64_t fuel =
              arrival_rng.uniform() < 0.25 ? 300'000'000 : 30'000'000;
          cluster.submit_at(
              when, proto::TaskletBody{proto::SyntheticBody{fuel, 1, 512}}, qoc);
        }
        cluster.run_until_quiescent(30 * 60 * kSecond);
        const auto metrics = bench::collect(cluster);
        const auto& stats = cluster.broker().stats();
        line("%-12s %5d %-10s %8.1f%% %9.3f %9.3f %9llu", scenario.c_str(),
             level, policy.data(), 100.0 * metrics.deadline_hit_rate,
             metrics.p99_latency_s, metrics.mean_latency_s,
             static_cast<unsigned long long>(stats.straggler_reassigns));
        line("csv,E10,%s,%d,%s,%.4f,%.4f,%.4f,%llu,%llu", scenario.c_str(),
             level, policy.data(), metrics.deadline_hit_rate,
             metrics.p99_latency_s, metrics.mean_latency_s,
             static_cast<unsigned long long>(stats.straggler_reassigns),
             static_cast<unsigned long long>(stats.speculations));
        if (scenario == "churn_trace" && level == 3) {
          (policy == "adaptive" ? gated_adaptive : gated_static) =
              HitP99{metrics.deadline_hit_rate, metrics.p99_latency_s};
        }
      }
    }
  }

  line("");
  line("shape check: adaptive matches or beats qoc_aware on hit rate and p99");
  line("in every scenario, and the gap widens with the straggler count and");
  line("churn intensity — the static policy keeps trusting stale benchmarks,");
  line("the adaptive one reroutes after a handful of measured completions.");
  const bool e10_failed = !(gated_adaptive.hit >= gated_static.hit &&
                            gated_adaptive.p99 <= gated_static.p99);
  if (e10_failed) {
    line("E10 FAILED: on churn_trace level 3 adaptive (hit %.4f, p99 %.4fs)",
         gated_adaptive.hit, gated_adaptive.p99);
    line("lost to qoc_aware (hit %.4f, p99 %.4fs)", gated_static.hit,
         gated_static.p99);
  }

  // --- E11: heterogeneity score vs measured speed dispersion ----------------
  //
  // Five pools of five desktops each. At level 0 every device runs at its
  // class speed; each level widens the spread of *actual* speeds (stale
  // advertised benchmarks stay identical) by degrading the tail of the
  // pool further. round_robin placement guarantees every provider,
  // however slow, completes enough attempts for the speed estimator to
  // converge, so the broker's pool_stats() score reflects measured
  // reality. Expected shape — and asserted below, this is the acceptance
  // gate for the score's definition: the heterogeneity score rises
  // strictly with each widening, from ~0 for the uniform pool, staying
  // inside [0, 1).
  header("E11", "pool heterogeneity score vs actual speed dispersion");
  line("%-6s %10s %12s %12s %12s", "level", "spread", "het score", "cv",
       "confident");

  bool monotone = true;
  double previous_score = -1.0;
  for (int level = 0; level <= 4; ++level) {
    core::SimConfig config;
    config.scheduler = "round_robin";
    config.seed = 11;
    // The quantile straggler defense would fence the deliberately slow
    // providers and steal their completions; E11 wants their speeds
    // measured, not defended against.
    config.broker.straggler_multiplier = 100.0;
    core::SimCluster cluster(config);
    // Provider i runs at (1 - 0.2*level*i/4) of class speed: level 0 is
    // uniform, level 4 spans 1.0x down to 0.2x.
    for (int i = 0; i < 5; ++i) {
      const double degradation =
          1.0 - 0.2 * level * (static_cast<double>(i) / 4.0);
      cluster.add_provider(
          sim::straggler_profile(sim::desktop_profile(), degradation));
    }
    for (int i = 0; i < 60; ++i) {
      cluster.submit(
          proto::TaskletBody{proto::SyntheticBody{100'000'000, i, 256}});
    }
    cluster.run_until_quiescent();
    const broker::PoolStats stats = cluster.broker().pool_stats();
    const double spread = 0.2 * level;
    line("%-6d %10.2f %12.4f %12.4f %9zu/%zu", level, spread,
         stats.heterogeneity, stats.cv, stats.confident, stats.providers);
    line("csv,E11,%d,%.2f,%.6f,%.6f", level, spread, stats.heterogeneity,
         stats.cv);
    monotone = monotone && stats.heterogeneity > previous_score &&
               stats.heterogeneity >= 0.0 && stats.heterogeneity < 1.0;
    previous_score = stats.heterogeneity;
  }
  line("csv,E11,monotone,%d", monotone ? 1 : 0);
  if (!monotone) {
    line("E11 FAILED: heterogeneity score is not strictly monotone in the");
    line("pool's speed dispersion");
    return 1;
  }
  line("");
  line("shape check: the score is ~0 for the uniform pool and rises strictly");
  line("with every widening of the measured-speed spread, bounded in [0, 1).");
  return e10_failed ? 1 : 0;
}

// E4 — Reliability under churn (figure).
//
// What the paper-style figure shows: job success rate and completion time as
// provider churn intensifies, with and without the middleware's reliability
// mechanisms (automatic re-issue; redundant execution). Expected shape:
//   * with no recovery (max_reissues=0, r=1) success collapses as mean
//     session length approaches the tasklet service time;
//   * re-issue restores success to ~100% at the cost of extra attempts and
//     latency — it is *the* churn mechanism;
//   * redundancy uses majority voting (floor(r/2)+1 agreeing replicas), so
//     under churn it *costs*: it multiplies offered load and demands more
//     surviving replicas. Its payoff is integrity against silently faulty
//     providers (see E8), not churn tolerance.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "bench_util.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

int main() {
  using namespace tasklets;
  using bench::header;
  using bench::line;

  constexpr int kTasklets = 100;
  constexpr std::uint64_t kFuel = 800'000'000;  // 2 s on a desktop core

  // Observability export mode (the CI validation step): when
  // TASKLETS_TRACE_OUT is set, run one traced churn configuration instead of
  // the full sweep, write the Chrome trace JSON to that path and the metrics
  // snapshot to TASKLETS_METRICS_OUT (JSON) when that is also set.
  if (const char* trace_out = std::getenv("TASKLETS_TRACE_OUT")) {
    metrics::MetricsRegistry::instance().reset();
    metrics::set_enabled(true);
    TraceStore trace;
    core::SimConfig config;
    config.seed = 17;
    config.trace = &trace;
    core::SimCluster cluster(config);
    sim::DeviceProfile profile = sim::desktop_profile();
    profile.slots = 2;
    profile.mean_session = from_seconds(5.0);  // heavy churn: retries happen
    profile.mean_downtime = from_seconds(3.0);
    cluster.add_providers(profile, 12);
    proto::Qoc qoc;
    qoc.max_reissues = 10;
    for (int i = 0; i < kTasklets; ++i) {
      cluster.submit(proto::TaskletBody{proto::SyntheticBody{kFuel, i, 512}},
                     qoc);
    }
    cluster.run_until_quiescent(30 * 60 * kSecond);
    // Stream through the incremental writer (the same path `serve
    // --trace-out` uses) so CI validates the drained/streamed format.
    const std::uint64_t dropped = trace.dropped();
    ChromeTraceWriter writer(trace_out);
    writer.write_all(trace.drain());
    if (!writer.ok()) {
      std::fprintf(stderr, "cannot write %s\n", trace_out);
      return 1;
    }
    writer.finish();
    line("trace: %zu spans (%llu dropped) -> %s", writer.written(),
         static_cast<unsigned long long>(dropped), trace_out);
    const auto snapshot = metrics::MetricsRegistry::instance().snapshot();
    if (const char* metrics_out = std::getenv("TASKLETS_METRICS_OUT")) {
      std::ofstream out(metrics_out, std::ios::trunc);
      out << snapshot.to_json() << '\n';
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", metrics_out);
        return 1;
      }
      line("metrics -> %s", metrics_out);
    } else {
      line("%s", snapshot.to_text().c_str());
    }
    return 0;
  }

  struct Mode {
    std::string name;
    std::uint8_t redundancy;
    std::uint8_t max_reissues;
  };
  const std::vector<Mode> modes = {
      {"no_recovery", 1, 0},
      {"reissue", 1, 10},
      {"redundant_r2", 2, 10},
      {"redundant_r3", 3, 10},
  };

  header("E4", "success rate & latency vs churn (100 tasklets x 800 Mfuel, "
               "12 desktops)");
  // Shape gate inputs (NaN until the cell ran, so a missing cell fails).
  double no_recovery_at_2s = std::nan("");
  double worst_reissue = std::nan("");
  line("%-14s %12s %10s %12s %12s %10s", "mode", "session(s)", "success",
       "mean lat(s)", "p95 lat(s)", "attempts");

  for (const auto& mode : modes) {
    for (const double session_s : {2.0, 5.0, 10.0, 30.0, 120.0}) {
      core::SimConfig config;
      config.seed = 17;
      core::SimCluster cluster(config);
      sim::DeviceProfile profile = sim::desktop_profile();
      profile.slots = 2;
      profile.mean_session = from_seconds(session_s);
      profile.mean_downtime = from_seconds(3.0);
      cluster.add_providers(profile, 12);

      proto::Qoc qoc;
      qoc.redundancy = mode.redundancy;
      qoc.max_reissues = mode.max_reissues;
      for (int i = 0; i < kTasklets; ++i) {
        cluster.submit(proto::TaskletBody{proto::SyntheticBody{kFuel, i, 512}},
                       qoc);
      }
      // Unrecoverable tasklets never report; bound the run and count
      // whatever finished.
      cluster.run_until_quiescent(30 * 60 * kSecond);
      const auto metrics = bench::collect(cluster);
      line("%-14s %12.0f %9.0f%% %12.2f %12.2f %10.2f", mode.name.c_str(),
           session_s, 100.0 * metrics.success_rate, metrics.mean_latency_s,
           metrics.p95_latency_s, metrics.mean_attempts);
      line("csv,E4,%s,%.0f,%.4f,%.3f,%.3f,%.2f", mode.name.c_str(), session_s,
           metrics.success_rate, metrics.mean_latency_s, metrics.p95_latency_s,
           metrics.mean_attempts);
      if (mode.name == "no_recovery" && session_s == 2.0) {
        no_recovery_at_2s = metrics.success_rate;
      }
      if (mode.name == "reissue") {
        worst_reissue = std::isnan(worst_reissue)
                            ? metrics.success_rate
                            : std::min(worst_reissue, metrics.success_rate);
      }
    }
  }

  line("");
  line("shape check: no_recovery success falls steeply once sessions shrink");
  line("toward the 2s service time; reissue holds ~100%% success with rising");
  line("attempt counts. redundant modes sit *above* reissue in latency and");
  line("attempts (majority voting triples load and needs more survivors) —");
  line("redundancy buys integrity (E8), re-issue buys churn tolerance.");
  // Gate: churn at 2 s sessions sinks no_recovery below half, while reissue
  // holds at least 95% at every session length.
  if (!(no_recovery_at_2s < 0.5 && worst_reissue >= 0.95)) {
    line("E4 FAILED: no_recovery success at 2s sessions %.4f (want < 0.5),",
         no_recovery_at_2s);
    line("worst reissue success %.4f (want >= 0.95)", worst_reissue);
    return 1;
  }
  return 0;
}

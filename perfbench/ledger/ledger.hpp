// Tasklet ledger: shared plumbing for the benchmark driver.
//
// One run measures one workload for a time budget and prints, as its last
// stdout line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics, each timed from this directory's own code
// by calling the layer's public functions. Informational lines (host
// context, ledger breakdowns, the placement checksum) come before it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <sched.h>

namespace ledger {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Collects metrics and the attempted/failed tally; prints the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Adds to the tally. A tasklet that ended wrong counts as failed.
  void tally(std::uint64_t attempted, std::uint64_t failed);
  // Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
  [[nodiscard]] bool correct() const noexcept { return correct_; }
  void print_result() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

// printf-style informational line on stdout.
void note(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Process user+sys CPU seconds so far, and the peak resident set in MiB.
[[nodiscard]] double process_cpu_seconds();
[[nodiscard]] double peak_rss_mb();

// Pins the calling thread, and every thread it creates while pinned, to the
// first CPU of its affinity mask; restores the mask on destruction.
class PinToOneCpu {
 public:
  PinToOneCpu();
  ~PinToOneCpu();
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// One "host {...}" line: nproc, affinity, build, compiler, TVM dispatch,
// load average at start and the seed.
void print_host_context(const Options& options);

// One round: set up a fresh system, warm it, then time a fixed amount of
// work. Every workload repeats rounds until its time budget is spent, so
// memory is bounded by one round and set-up is sampled several times.
struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;  // timed part only
  double cpu_s = 0.0;   // process CPU over the timed part
  std::uint64_t completed = 0;  // correct completions
  std::uint64_t failed = 0;     // failed or wrong
  std::vector<double> latency_us;
};

// A Round with its latency samples reduced to quantiles. A run keeps only
// these, so it holds one round's samples at a time and its peak resident
// set does not grow with the number of rounds.
struct RoundSummary {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::size_t samples = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
};

// Calls `round` once to warm the process, then again until `seconds` of
// wall time have passed (and at least `min_rounds` times), stopping early
// on an incorrect round. The warm-up round is dropped.
std::vector<RoundSummary> run_rounds(double seconds, int min_rounds,
                                     const std::function<Round()>& round,
                                     const Report& report);

// setup_s, tasklets_per_s, latency_p50_us/p90_us, cpu_us_per_tasklet and
// peak_rss_mb: per-round values, medians across rounds.
void report_end_to_end(const std::vector<RoundSummary>& rounds, Report& report);

// Seeded, platform-stable 64-bit mixing (splitmix64).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Workloads. Each reads options.trace to pick the end-to-end or the
// per-layer metric set.
void run_dispatch_serial(const Options& options, Report& report);
void run_kernel_fanout(const Options& options, Report& report);
void run_pipeline_tcp(const Options& options, Report& report);
void run_placement_pool(const Options& options, Report& report);

}  // namespace ledger

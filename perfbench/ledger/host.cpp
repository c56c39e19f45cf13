#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ledger.hpp"

namespace ledger {

namespace {

// Shortest round-trip decimal form of a double.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  // Prefer the shortest representation that reads back identically.
  for (int precision = 6; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) return shorter;
  }
  return buf;
}

std::string affinity_list(const cpu_set_t& set) {
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!out.empty()) out += ',';
    out += std::to_string(cpu);
  }
  return out;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::tally(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::fail(const std::string& why) {
  if (correct_) std::fprintf(stderr, "ledger: incorrect: %s\n", why.c_str());
  correct_ = false;
}

void Report::print_result() const {
  std::string out = "{\"correct\": ";
  out += correct_ && failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

PinToOneCpu::PinToOneCpu() {
  if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

PinToOneCpu::~PinToOneCpu() {
  if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
}

void print_host_context(const Options& options) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ::sched_getaffinity(0, sizeof mask, &mask);
  double load[3] = {0, 0, 0};
  ::getloadavg(load, 3);
  note("host {\"nproc\": %d, \"online_cpus\": %ld, \"affinity\": \"%s\", "
       "\"build_type\": \"%s\", \"compiler\": \"%s\", "
       "\"threaded_dispatch\": %d, \"loadavg_1m\": %.2f, \"seed\": %llu, "
       "\"workload\": \"%s\", \"trace\": %d, \"seconds\": %g}",
       CPU_COUNT(&mask), ::sysconf(_SC_NPROCESSORS_ONLN),
       affinity_list(mask).c_str(), LEDGER_BUILD_TYPE, __VERSION__,
       LEDGER_THREADED_DISPATCH, load[0],
       static_cast<unsigned long long>(options.seed), options.workload.c_str(),
       options.trace ? 1 : 0, options.seconds);
}

std::vector<RoundSummary> run_rounds(double seconds, int min_rounds,
                                     const std::function<Round()>& round,
                                     const Report& report) {
  std::vector<RoundSummary> rounds;
  const auto start = Clock::now();
  // The first round only warms the process (page faults, CPU clocks).
  (void)round();
  ::malloc_trim(0);
  while (report.correct() &&
         (static_cast<int>(rounds.size()) < min_rounds ||
          seconds_between(start, Clock::now()) < seconds)) {
    const Round r = round();
    rounds.push_back(RoundSummary{r.setup_s, r.wall_s, r.cpu_s, r.completed, r.failed,
                                  r.latency_us.size(), quantile(r.latency_us, 0.50),
                                  quantile(r.latency_us, 0.90),
                                  quantile(r.latency_us, 0.99)});
    // Hand the round's freed heap back, so every round starts from the same
    // resident footprint and peak_rss_mb reads one round's peak.
    ::malloc_trim(0);
  }
  return rounds;
}

void report_end_to_end(const std::vector<RoundSummary>& rounds, Report& report) {
  std::vector<double> setup, rate, p50, p90, p99, cpu;
  for (const RoundSummary& r : rounds) {
    report.tally(r.completed + r.failed, r.failed);
    if (r.completed == 0 || r.wall_s <= 0.0) continue;
    setup.push_back(r.setup_s);
    rate.push_back(static_cast<double>(r.completed) / r.wall_s);
    p50.push_back(r.p50_us);
    p90.push_back(r.p90_us);
    p99.push_back(r.p99_us);
    cpu.push_back(r.cpu_s * 1e6 / static_cast<double>(r.completed));
  }
  if (setup.empty()) report.fail("no round completed any tasklet");
  std::string per_round;
  for (const double v : p50) per_round += " " + std::to_string(v);
  std::string setup_per_round;
  for (const double v : setup) setup_per_round += " " + std::to_string(v);
  note("rounds %zu, latency samples per round %zu, latency_p50_us per round:%s; "
       "setup_s per round:%s",
       rounds.size(),
       rounds.empty() ? std::size_t{0} : rounds.front().samples,
       per_round.c_str(), setup_per_round.c_str());
  // The p99 swings with bursts of host preemption on shared machines, so it
  // is printed here and the bounded tail metric is the p90.
  note("latency_p99_us %.3f (median over rounds)", median(p99));
  report.metric("setup_s", median(setup), "s");
  report.metric("tasklets_per_s", median(rate), "1/s");
  report.metric("latency_p50_us", median(p50), "us");
  report.metric("latency_p90_us", median(p90), "us");
  report.metric("cpu_us_per_tasklet", median(cpu), "us");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace ledger

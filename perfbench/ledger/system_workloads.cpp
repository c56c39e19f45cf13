// dispatch_serial and kernel_fanout: closed loops through core::TaskletSystem
// (in-proc transport, default configuration).
#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/metrics.hpp"
#include "core/system.hpp"
#include "layers.hpp"

namespace ledger {

using namespace tasklets;

namespace {

// What one round of a TaskletSystem workload runs with.
struct SystemRoundConfig {
  std::size_t tasklets = 0;
  bool tracing = false;
  bool metrics_on = true;
  std::vector<Span>* spans = nullptr;  // receives the timed part's spans
};

// Starts the timed part: drops warm-up spans and counters, notes the CPU.
void begin_timed(core::TaskletSystem& system, double& cpu_start,
                 Clock::time_point& wall_start) {
  if (system.trace_store() != nullptr) (void)system.trace_store()->drain();
  metrics::MetricsRegistry::instance().reset();
  cpu_start = process_cpu_seconds();
  wall_start = Clock::now();
}

void end_timed(core::TaskletSystem& system, const SystemRoundConfig& config,
               Round& round, double cpu_start, Clock::time_point wall_start) {
  round.wall_s = seconds_between(wall_start, Clock::now());
  round.cpu_s = process_cpu_seconds() - cpu_start;
  if (config.spans != nullptr && system.trace_store() != nullptr) {
    *config.spans = system.trace_store()->all();
  }
}

// --- dispatch_serial ----------------------------------------------------------------

constexpr std::size_t kSerialTasklets = 10'000;
constexpr std::size_t kSerialTracedTasklets = 4'000;
constexpr std::size_t kSerialWarmup = 500;
constexpr std::string_view kTrivialKernel = "int main() { return 1; }";

Round dispatch_round(const SystemRoundConfig& config, Report& report) {
  const MetricsSwitch metrics_switch(config.metrics_on);
  Round round;
  const auto setup_start = Clock::now();
  core::SystemConfig system_config;
  system_config.tracing = config.tracing;
  core::TaskletSystem system(system_config);
  system.add_provider();
  auto body = core::compile_tasklet(kTrivialKernel, {});
  if (!body.is_ok()) {
    report.fail("trivial kernel does not compile");
    return round;
  }

  // Set-up: construction, provider calibration and compilation; warm-up is
  // not in it.
  round.setup_s = seconds_between(setup_start, Clock::now());

  auto once = [&] {
    return system.submit(proto::TaskletBody{*body}).get();
  };
  for (std::size_t i = 0; i < kSerialWarmup; ++i) (void)once();

  double cpu_start = 0.0;
  Clock::time_point wall_start;
  begin_timed(system, cpu_start, wall_start);
  round.latency_us.reserve(config.tasklets);
  for (std::size_t i = 0; i < config.tasklets; ++i) {
    const auto start = Clock::now();
    const proto::TaskletReport result = once();
    round.latency_us.push_back(us_between(start, Clock::now()));
    const auto* value = std::get_if<std::int64_t>(&result.result);
    if (result.status == proto::TaskletStatus::kCompleted && value != nullptr &&
        *value == 1) {
      ++round.completed;
    } else {
      ++round.failed;
    }
  }
  end_timed(system, config, round, cpu_start, wall_start);
  return round;
}

// --- kernel_fanout -------------------------------------------------------------------

constexpr std::size_t kFanoutTasklets = 1'000;
constexpr std::size_t kFanoutTracedTasklets = 600;
constexpr std::size_t kFanoutWarmup = 24;
constexpr std::size_t kFanoutWindow = 4;

const std::array<KernelCall, 3> kWarmupCalls = {{
    {0, {std::int64_t{256}, std::int64_t{64}, std::int64_t{128}, -2.0, 1.0, -1.2, 1.2,
         std::int64_t{128}}},
    {1, {std::int64_t{18}}},
    {2, {std::int64_t{20'000}}},
}};

struct Expected {
  tvm::HostArg result;
  std::uint64_t fuel = 0;
};

struct FanoutInputs {
  KernelPrograms kernels;
  std::vector<KernelCall> stream;
  std::vector<Expected> expected;  // per stream entry
};

// The seeded stream and, for each entry, the (result, fuel) a direct
// tvm::execute of the same program and arguments gives.
FanoutInputs make_fanout_inputs(std::uint64_t seed, std::size_t n) {
  FanoutInputs in;
  in.kernels = compile_kernels();
  in.stream = make_kernel_stream(seed, n);
  std::map<std::string, Expected> cache;
  for (const KernelCall& call : in.stream) {
    std::string key = std::to_string(call.kernel);
    for (const auto& arg : call.args) key += "|" + tvm::to_string(arg);
    auto it = cache.find(key);
    if (it == cache.end()) {
      auto outcome = tvm::execute(in.kernels.programs[call.kernel], call.args);
      if (!outcome.is_ok()) {
        throw std::runtime_error("kernel input traps: " + outcome.status().to_string());
      }
      it = cache.emplace(key, Expected{outcome->result, outcome->fuel_used}).first;
    }
    in.expected.push_back(it->second);
  }
  return in;
}

proto::Qoc qoc_for(const KernelCall& call) {
  proto::Qoc qoc;
  qoc.memoize = call.memoize;
  return qoc;
}

bool matches(const proto::TaskletReport& report, const Expected& expected) {
  return report.status == proto::TaskletStatus::kCompleted &&
         tvm::args_equal(report.result, expected.result) &&
         report.fuel_used == expected.fuel;
}

Round fanout_round(const FanoutInputs& in, const SystemRoundConfig& config) {
  const MetricsSwitch metrics_switch(config.metrics_on);
  Round round;
  const auto setup_start = Clock::now();
  core::SystemConfig system_config;
  system_config.tracing = config.tracing;
  core::TaskletSystem system(system_config);
  system.add_provider();
  system.add_provider();
  // Kernel compilation is part of set-up: the bodies ship fresh bytecode.
  const KernelPrograms kernels = compile_kernels();
  round.setup_s = seconds_between(setup_start, Clock::now());

  auto body_for = [&](const KernelCall& call) {
    return proto::TaskletBody{proto::VmBody{kernels.bytes[call.kernel], call.args}};
  };
  // Warm-up, the same for every seed: each kernel on both providers.
  for (std::size_t i = 0; i < kFanoutWarmup; ++i) {
    (void)system.submit(body_for(kWarmupCalls[i % kWarmupCalls.size()])).get();
  }

  double cpu_start = 0.0;
  Clock::time_point wall_start;
  begin_timed(system, cpu_start, wall_start);
  const std::size_t n = std::min(config.tasklets, in.stream.size());
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  auto caller = [&] {
    std::vector<double> latencies;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    for (std::size_t i = next++; i < n; i = next++) {
      const auto start = Clock::now();
      const proto::TaskletReport result =
          system.submit(body_for(in.stream[i]), qoc_for(in.stream[i])).get();
      latencies.push_back(us_between(start, Clock::now()));
      if (matches(result, in.expected[i])) {
        ++completed;
      } else {
        ++failed;
      }
    }
    const std::scoped_lock lock(mutex);
    round.latency_us.insert(round.latency_us.end(), latencies.begin(),
                            latencies.end());
    round.completed += completed;
    round.failed += failed;
  };
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < kFanoutWindow; ++t) callers.emplace_back(caller);
  for (auto& thread : callers) thread.join();
  end_timed(system, config, round, cpu_start, wall_start);
  return round;
}

// --- traced runs ----------------------------------------------------------------------

// The part every TaskletSystem workload's traced run shares: alternate
// plain, traced and metrics-off rounds of `round_fn` until the budget is
// spent, and report counters, phases and overheads from them.
void traced_system_rounds(
    const std::string& workload, const Options& options, Clock::time_point start,
    const std::function<Round(const SystemRoundConfig&)>& round_fn,
    std::size_t tasklets, Report& report) {
  SystemRoundConfig plain{tasklets, false, true, nullptr};
  // First plain round: its registry counters describe the workload.
  const Round first = round_fn(plain);
  report_registry_counters(first.completed, report);
  report.tally(first.completed + first.failed, first.failed);

  std::vector<double> plain_p50{quantile(first.latency_us, 0.5)};
  std::vector<double> traced_p50;
  std::vector<double> off_p50;
  std::vector<Span> spans;
  do {
    std::vector<Span> round_spans;
    const Round traced = round_fn({tasklets, true, true, &round_spans});
    const Round off = round_fn({tasklets, false, false, nullptr});
    const Round again = round_fn(plain);
    for (const Round* r : {&traced, &off, &again}) {
      report.tally(r->completed + r->failed, r->failed);
    }
    traced_p50.push_back(quantile(traced.latency_us, 0.5));
    off_p50.push_back(quantile(off.latency_us, 0.5));
    plain_p50.push_back(quantile(again.latency_us, 0.5));
    spans = std::move(round_spans);
  } while (report.correct() &&
           seconds_between(start, Clock::now()) < options.seconds);
  report_phases(workload, spans, median(plain_p50), report);
  report_overheads(median(plain_p50), median(traced_p50), median(off_p50), report);
  // TaskletSystem builds its broker and consumer itself, so the benchmark
  // cannot decorate them, and in-proc delivery never encodes.
  report_broker_layer({}, report);
  report_no_codec(report);
}

}  // namespace

void measure_dispatch_pinned(Report& report) {
  const PinToOneCpu pin;
  const Round pinned = dispatch_round({kSerialTracedTasklets, false, true, nullptr},
                                      report);
  report.metric("core.dispatch_pinned_p50_us", quantile(pinned.latency_us, 0.5),
                "us");
}

void run_dispatch_serial(const Options& options, Report& report) {
  if (!options.trace) {
    const auto rounds = run_rounds(
        options.seconds, 5,
        [&] { return dispatch_round({kSerialTasklets, false, true, nullptr}, report); },
        report);
    report_end_to_end(rounds, report);
    return;
  }
  const auto start = Clock::now();
  measure_inproc_hop(report);
  measure_dispatch_pinned(report);
  measure_kernels_and_store(options.seed, report);
  traced_system_rounds(
      "dispatch_serial", options, start,
      [&](const SystemRoundConfig& config) { return dispatch_round(config, report); },
      kSerialTracedTasklets, report);
}

void run_kernel_fanout(const Options& options, Report& report) {
  const FanoutInputs in = make_fanout_inputs(
      options.seed, (options.trace ? kFanoutTracedTasklets : kFanoutTasklets));
  if (!options.trace) {
    const auto rounds = run_rounds(
        options.seconds, 5,
        [&] { return fanout_round(in, {kFanoutTasklets, false, true, nullptr}); },
        report);
    report_end_to_end(rounds, report);
    return;
  }
  const auto start = Clock::now();
  measure_inproc_hop(report);
  measure_dispatch_pinned(report);
  measure_kernels_and_store(options.seed, report);
  traced_system_rounds(
      "kernel_fanout", options, start,
      [&](const SystemRoundConfig& config) { return fanout_round(in, config); },
      kFanoutTracedTasklets, report);
}

}  // namespace ledger

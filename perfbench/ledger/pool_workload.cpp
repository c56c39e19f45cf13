// placement_pool: broker::Broker driven directly on one thread against a
// 2,000-provider pool in the standard 2:4:6:8:10 server-to-phone mix. Every
// AssignTasklet is answered at once, so every timed submit places.
#include <algorithm>
#include <cinttypes>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "layers.hpp"

namespace ledger {

using namespace tasklets;

namespace {

constexpr std::size_t kPoolSize = 2'000;
constexpr std::size_t kPoolTasklets = 1'500;
constexpr std::size_t kPoolTracedTasklets = 1'000;
constexpr std::size_t kPoolWarmup = 200;
constexpr double kCostCeiling = 0.45;
const std::string kSite = "site-a";

struct ClassShape {
  proto::DeviceClass device_class;
  int share;  // out of 30
  double speed;
  double cost_per_gfuel;
  std::uint32_t slots;
};

// Server -> phone, cost falling with speed.
constexpr std::array<ClassShape, 5> kClasses = {{
    {proto::DeviceClass::kServer, 2, 4e9, 1.0, 16},
    {proto::DeviceClass::kDesktop, 4, 2e9, 0.6, 8},
    {proto::DeviceClass::kLaptop, 6, 1e9, 0.35, 4},
    {proto::DeviceClass::kSbc, 8, 4e8, 0.15, 2},
    {proto::DeviceClass::kMobile, 10, 2.5e8, 0.1, 1},
}};

std::vector<proto::Capability> make_pool(std::uint64_t seed) {
  Rng rng(mix64(seed ^ 0x706F6F6CULL));
  std::vector<proto::Capability> pool;
  pool.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    int slot = static_cast<int>(i % 30);
    const ClassShape* shape = &kClasses.back();
    for (const ClassShape& c : kClasses) {
      if (slot < c.share) {
        shape = &c;
        break;
      }
      slot -= c.share;
    }
    proto::Capability capability;
    capability.device_class = shape->device_class;
    capability.speed_fuel_per_sec = shape->speed * (0.85 + 0.3 * rng.uniform());
    capability.cost_per_gfuel = shape->cost_per_gfuel * (0.85 + 0.3 * rng.uniform());
    capability.slots = shape->slots;
    if (i % 10 == 7) capability.locality = kSite;  // 10% of every class
    pool.push_back(std::move(capability));
  }
  return pool;
}

// Exactly 40% plain, 20% speed, 20% redundancy 2, 10% local_only and 10%
// cost ceiling, in seeded order, so every seed asks for the same work.
std::vector<proto::TaskletSpec> make_specs(std::uint64_t seed, std::size_t n) {
  Rng rng(mix64(seed ^ 0x73706563ULL));
  std::vector<double> kinds(n);
  for (std::size_t i = 0; i < n; ++i) {
    kinds[i] = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
  }
  for (std::size_t i = n; i > 1; --i) std::swap(kinds[i - 1], kinds[rng.next_below(i)]);
  std::vector<proto::TaskletSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    proto::TaskletSpec spec;
    spec.id = TaskletId{i + 1};
    spec.job = JobId{1};
    spec.body = proto::SyntheticBody{
        static_cast<std::uint64_t>(rng.uniform_int(1'000'000, 100'000'000)),
        static_cast<std::int64_t>(rng.next() >> 2), 256};
    const double kind = kinds[i];
    if (kind < 0.4) {
      // plain
    } else if (kind < 0.6) {
      spec.qoc.speed = proto::SpeedGoal::kFast;
    } else if (kind < 0.8) {
      spec.qoc.redundancy = 2;
    } else if (kind < 0.9) {
      spec.qoc.locality = proto::Locality::kLocalOnly;
    } else {
      spec.qoc.cost_ceiling = kCostCeiling;
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

proto::AttemptOutcome answer_synthetic(const proto::AssignTasklet& assign) {
  proto::AttemptOutcome outcome;
  if (const auto* body = std::get_if<proto::SyntheticBody>(&assign.body)) {
    outcome.result = body->result;
    outcome.fuel_used = body->fuel;
    outcome.instructions = body->fuel;
  }
  return outcome;
}

// Checks one trip against the spec's QoC; true when the tasklet ended right.
bool check_trip(const proto::TaskletSpec& spec, const BrokerPump::Trip& trip,
                const std::vector<proto::Capability>& pool) {
  if (!trip.report || trip.report->status != proto::TaskletStatus::kCompleted) {
    return false;
  }
  const auto& body = std::get<proto::SyntheticBody>(spec.body);
  const auto* result = std::get_if<std::int64_t>(&trip.report->result);
  if (result == nullptr || *result != body.result) return false;
  if (trip.assigned.size() != spec.qoc.redundancy) return false;
  std::vector<NodeId> distinct = trip.assigned;
  std::sort(distinct.begin(), distinct.end());
  if (std::adjacent_find(distinct.begin(), distinct.end()) != distinct.end()) {
    return false;
  }
  for (const NodeId provider : trip.assigned) {
    const auto& capability = pool[provider.value() - kFirstProvider];
    if (spec.qoc.locality == proto::Locality::kLocalOnly &&
        capability.locality != kSite) {
      return false;
    }
    if (spec.qoc.cost_ceiling > 0.0 &&
        capability.cost_per_gfuel > spec.qoc.cost_ceiling) {
      return false;
    }
  }
  return true;
}

// FNV-1a over (tasklet id, provider id) of every assignment in issue order.
void fold_checksum(std::uint64_t& hash, TaskletId tasklet, NodeId provider) {
  for (const std::uint64_t word : {tasklet.value(), provider.value()}) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
}

struct PoolRound {
  Round round;
  std::uint64_t checksum = 0xCBF29CE484222325ULL;
  std::vector<double> decision_us;
};

PoolRound pool_round(const std::vector<proto::Capability>& pool,
                     const std::vector<proto::TaskletSpec>& specs) {
  PoolRound out;
  const auto setup_start = Clock::now();
  BrokerPump pump({pool, kSite, false, nullptr});
  // Set-up: construction and the 2,000 registrations; warm-up is not in it.
  out.round.setup_s = seconds_between(setup_start, Clock::now());
  auto trip_for = [&](std::size_t i) {
    const auto trip = pump.run(specs[i], answer_synthetic);
    for (const NodeId provider : trip.assigned) {
      fold_checksum(out.checksum, specs[i].id, provider);
    }
    return trip;
  };
  for (std::size_t i = 0; i < kPoolWarmup; ++i) {
    if (!check_trip(specs[i], trip_for(i), pool)) ++out.round.failed;
  }
  const double cpu_start = process_cpu_seconds();
  const auto wall_start = Clock::now();
  for (std::size_t i = kPoolWarmup; i < specs.size(); ++i) {
    const auto trip = trip_for(i);
    out.round.latency_us.push_back(trip.latency_us);
    out.decision_us.push_back(trip.decision_us);
    if (check_trip(specs[i], trip, pool)) {
      ++out.round.completed;
    } else {
      ++out.round.failed;
    }
  }
  out.round.wall_s = seconds_between(wall_start, Clock::now());
  out.round.cpu_s = process_cpu_seconds() - cpu_start;
  return out;
}

// One pass of `specs` through the workload's own shape: the broker alone,
// submitted to directly. With `trace` set the broker records spans, but only
// for tasklets a consumer opened a trace for, so here it records none.
struct PumpPass {
  std::unique_ptr<BrokerPump> pump;
  double p50_us = 0.0;
  double wall_s = 0.0;
  double cpu_us_per_tasklet = 0.0;
};

PumpPass pump_pass(const std::vector<proto::Capability>& pool,
                   const std::vector<proto::TaskletSpec>& specs, TraceStore* trace,
                   Report& report) {
  PumpPass pass;
  pass.pump = std::make_unique<BrokerPump>(BrokerPump::Config{pool, kSite, false, trace});
  std::vector<double> latency;
  std::uint64_t failed = 0;
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  for (const auto& spec : specs) {
    const auto trip = pass.pump->run(spec, answer_synthetic);
    latency.push_back(trip.latency_us);
    if (!check_trip(spec, trip, pool)) ++failed;
  }
  pass.wall_s = seconds_between(start, Clock::now());
  pass.cpu_us_per_tasklet =
      (process_cpu_seconds() - cpu_start) * 1e6 / static_cast<double>(specs.size());
  report.tally(specs.size(), failed);
  pass.p50_us = quantile(latency, 0.5);
  return pass;
}

void note_checksum(std::uint64_t checksum, std::uint64_t seed, std::size_t tasklets) {
  note("placement_checksum %016" PRIx64 " (seed %" PRIu64 ", %zu tasklets)", checksum,
       seed, tasklets);
}

}  // namespace

void run_placement_pool(const Options& options, Report& report) {
  const auto pool = make_pool(options.seed);
  if (!options.trace) {
    const auto specs = make_specs(options.seed, kPoolWarmup + kPoolTasklets);
    std::vector<std::uint64_t> checksums;
    std::vector<double> decision_p50, decision_p99;
    const auto rounds = run_rounds(
        options.seconds, 5,
        [&] {
          PoolRound r = pool_round(pool, specs);
          checksums.push_back(r.checksum);
          decision_p50.push_back(quantile(r.decision_us, 0.5));
          decision_p99.push_back(quantile(r.decision_us, 0.99));
          return std::move(r.round);
        },
        report);
    if (std::adjacent_find(checksums.begin(), checksums.end(),
                           std::not_equal_to<>()) != checksums.end()) {
      report.fail("placement checksum differs between rounds of one seed");
    }
    note_checksum(checksums.empty() ? 0 : checksums.front(), options.seed,
                  specs.size());
    note("decision_p50_us %.3f decision_p99_us %.3f (median over rounds)",
         median(decision_p50), median(decision_p99));
    report_end_to_end(rounds, report);
    return;
  }

  const auto start = Clock::now();
  {
    // The same checksum an untraced run of this seed prints.
    const auto specs = make_specs(options.seed, kPoolWarmup + kPoolTasklets);
    const PoolRound checked = pool_round(pool, specs);
    report.tally(checked.round.completed + checked.round.failed, checked.round.failed);
    note_checksum(checked.checksum, options.seed, specs.size());
  }
  measure_inproc_hop(report);
  measure_kernels_and_store(options.seed, report);
  const auto specs = make_specs(options.seed, kPoolTracedTasklets);

  // Timed handlers and counters from one plain pass. The broker is driven
  // in-process, so nothing is encoded.
  metrics::MetricsRegistry::instance().reset();
  PumpPass timed = pump_pass(pool, specs, nullptr, report);
  report_registry_counters(specs.size(), report);
  const BrokerLayer layer = pump_layer(*timed.pump, timed.wall_s);
  report_broker_layer(layer, report);
  report_no_codec(report);
  note_cpu_ledger("placement_pool", layer_self_times(layer, specs.size()),
                  timed.cpu_us_per_tasklet);
  std::vector<double> plain_p50{timed.p50_us};
  timed.pump.reset();
  measure_dispatch_pinned(report);

  std::vector<double> traced_p50, off_p50;
  std::vector<Span> spans;
  do {
    TraceStore store;
    traced_p50.push_back(pump_pass(pool, specs, &store, report).p50_us);
    spans = store.all();
    {
      const MetricsSwitch off(false);
      off_p50.push_back(pump_pass(pool, specs, nullptr, report).p50_us);
    }
    plain_p50.push_back(pump_pass(pool, specs, nullptr, report).p50_us);
  } while (report.correct() && seconds_between(start, Clock::now()) < options.seconds);
  report_phases("placement_pool", spans, median(plain_p50), report);
  report_overheads(median(plain_p50), median(traced_p50), median(off_p50), report);
}

}  // namespace ledger

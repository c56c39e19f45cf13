#include "layers.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace_analysis.hpp"
#include "core/kernels.hpp"
#include "net/inproc.hpp"
#include "provider/execution.hpp"
#include "store/blob_store.hpp"
#include "store/digest.hpp"
#include "store/memo.hpp"
#include "tcl/compiler.hpp"
#include "tvm/interpreter.hpp"

namespace ledger {

using namespace tasklets;

namespace {

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Median over 7 batches of the per-call cost of `fn`, in ns. The batch size
// doubles until one batch takes at least 1 ms.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::size_t calls = 16;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (ns_between(start, Clock::now()) >= 1e6 || calls >= (1u << 24)) break;
    calls *= 2;
  }
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    batches.push_back(ns_between(start, Clock::now()) / static_cast<double>(calls));
  }
  return median(std::move(batches));
}

volatile std::uint64_t g_sink = 0;

constexpr std::array<const char*, 4> kCodecMessages = {
    "SubmitTasklet", "AssignTasklet", "AttemptResult", "TaskletDone"};

// Indexed like kKernelNames.
const std::array<std::string_view, 3> kKernelSources = {
    core::kernels::kMandelbrotRow, core::kernels::kFib, core::kernels::kSieve};

}  // namespace

// --- TimedScheduler / TimedActor ---------------------------------------------------

NodeId TimedScheduler::pick(const proto::TaskletSpec& spec,
                            const broker::SchedulingContext& context, Rng& rng) {
  const auto start = Clock::now();
  const NodeId choice = inner_->pick(spec, context, rng);
  const double ns = ns_between(start, Clock::now());
  times_.pick_us.push_back(ns / 1e3);
  times_.picked_ns += ns;
  return choice;
}

std::size_t TimedScheduler::pick_batch(const broker::SchedulingContext& context,
                                       std::span<broker::ProviderView> candidates,
                                       Rng& rng, std::span<NodeId> choices) {
  const auto start = Clock::now();
  const std::size_t placed = inner_->pick_batch(context, candidates, rng, choices);
  const double ns = ns_between(start, Clock::now());
  times_.pick_batch_us.push_back(ns / 1e3);
  times_.picked_ns += ns;
  return placed;
}

TimedActor::TimedActor(std::unique_ptr<proto::Actor> inner, HandlerTimes& times,
                       const PickTimes* picks)
    : proto::Actor(inner->id()), inner_(std::move(inner)), times_(times),
      picks_(picks) {}

void TimedActor::on_start(SimTime now, proto::Outbox& out) {
  inner_->on_start(now, out);
}

void TimedActor::on_message(const proto::Envelope& envelope, SimTime now,
                            proto::Outbox& out) {
  const double picked_before = picks_ != nullptr ? picks_->picked_ns : 0.0;
  const auto start = Clock::now();
  inner_->on_message(envelope, now, out);
  const double ns = ns_between(start, Clock::now());
  times_.busy_ns += ns;
  if (std::holds_alternative<proto::SubmitTasklet>(envelope.payload)) {
    times_.submit_us.push_back(ns / 1e3);
    const double picked = picks_ != nullptr ? picks_->picked_ns - picked_before : 0.0;
    times_.eligible_us.push_back((ns - picked) / 1e3);
  } else if (std::holds_alternative<proto::AttemptResult>(envelope.payload)) {
    times_.result_us.push_back(ns / 1e3);
  } else if (std::holds_alternative<proto::TaskletDone>(envelope.payload)) {
    times_.report_us.push_back(ns / 1e3);
  }
}

void TimedActor::on_timer(std::uint64_t timer_id, SimTime now, proto::Outbox& out) {
  const auto start = Clock::now();
  inner_->on_timer(timer_id, now, out);
  times_.busy_ns += ns_between(start, Clock::now());
}

void TimedActor::on_batch_begin(SimTime now) { inner_->on_batch_begin(now); }

void TimedActor::on_batch_end(SimTime now, proto::Outbox& out) {
  const auto start = Clock::now();
  inner_->on_batch_end(now, out);
  const double ns = ns_between(start, Clock::now());
  times_.busy_ns += ns;
  times_.batch_end_us.push_back(ns / 1e3);
}

// --- BrokerPump ---------------------------------------------------------------------

namespace {

SimTime pump_now(Clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
      .count();
}

}  // namespace

BrokerPump::BrokerPump(Config config)
    : config_(std::move(config)), epoch_(Clock::now()) {
  broker::BrokerConfig broker_config;
  broker_config.trace = config_.trace;
  broker_ = std::make_unique<TimedActor>(
      std::make_unique<broker::Broker>(
          kBrokerId,
          std::make_unique<TimedScheduler>(broker::make_qoc_aware(), picks),
          broker_config),
      broker_times, &picks);
  if (config_.with_consumer) {
    consumer::ConsumerConfig consumer_config;
    consumer_config.trace = config_.trace;
    consumer_ = std::make_unique<consumer::ConsumerAgent>(kConsumerId, kBrokerId,
                                                          config_.locality,
                                                          consumer_config);
  }
  proto::Outbox out(kBrokerId);
  broker_->on_start(pump_now(epoch_), out);
  for (std::size_t i = 0; i < config_.pool.size(); ++i) {
    broker_->on_message(
        proto::Envelope{NodeId{kFirstProvider + i}, kBrokerId,
                        proto::RegisterProvider{config_.pool[i], 1}},
        pump_now(epoch_), out);
  }
  broker_times = {};  // registration is set-up, not handler load
}

void BrokerPump::keep_sample(const proto::Envelope& envelope) {
  const std::string_view name = proto::message_name(envelope.payload);
  if (std::find(kCodecMessages.begin(), kCodecMessages.end(), name) ==
      kCodecMessages.end()) {
    return;
  }
  for (const auto& kept : samples) {
    if (proto::message_name(kept.payload) == name) return;
  }
  samples.push_back(envelope);
}

void BrokerPump::deliver(proto::Outbox& out) {
  for (auto& envelope : out.take_messages()) queue_.push_back(std::move(envelope));
}

BrokerPump::Trip BrokerPump::run(proto::TaskletSpec spec, const AnswerFn& answer) {
  Trip trip;
  const auto start = Clock::now();
  {
    proto::Outbox out(kConsumerId);
    if (consumer_ != nullptr) {
      consumer_->submit(std::move(spec),
                        [&trip](const proto::TaskletReport& report) {
                          trip.report = report;
                        },
                        pump_now(epoch_), out);
    } else {
      spec.origin_locality = config_.locality;
      out.send(kBrokerId, proto::SubmitTasklet{std::move(spec), {}});
    }
    deliver(out);
  }
  while (!queue_.empty()) {
    proto::Envelope envelope = std::move(queue_.front());
    queue_.pop_front();
    keep_sample(envelope);
    if (envelope.to == kBrokerId) {
      proto::Outbox out(kBrokerId);
      const bool submit =
          std::holds_alternative<proto::SubmitTasklet>(envelope.payload);
      const auto handler_start = Clock::now();
      broker_->on_message(envelope, pump_now(epoch_), out);
      if (submit) trip.decision_us = us_between(handler_start, Clock::now());
      deliver(out);
    } else if (envelope.to == kConsumerId) {
      if (consumer_ != nullptr) {
        proto::Outbox out(kConsumerId);
        consumer_->on_message(envelope, pump_now(epoch_), out);
        deliver(out);
      } else if (const auto* done = std::get_if<proto::TaskletDone>(&envelope.payload)) {
        trip.report = done->report;
      }
    } else if (const auto* assign =
                   std::get_if<proto::AssignTasklet>(&envelope.payload)) {
      trip.assigned.push_back(envelope.to);
      queue_.push_back(proto::Envelope{
          envelope.to, kBrokerId,
          proto::AttemptResult{assign->attempt, assign->tasklet, answer(*assign)}});
    }
  }
  trip.latency_us = us_between(start, Clock::now());
  return trip;
}

// --- kernel_fanout inputs -------------------------------------------------------------

std::vector<KernelCall> make_kernel_stream(std::uint64_t seed, std::size_t n) {
  // Stratified so every seed asks for the same amount of work: fresh calls
  // cycle through the kernels, and the j-th of a kernel's m calls draws its
  // argument from the j-th of m equal slices of the range, in seeded order.
  Rng rng(mix64(seed ^ 0x6B65726E656C73ULL));
  const std::size_t fresh = n - n / 4;
  std::array<std::vector<std::size_t>, 3> slices;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t m = fresh / 3 + (k < fresh % 3 ? 1 : 0);
    for (std::size_t j = 0; j < m; ++j) slices[k].push_back(j);
    for (std::size_t j = m; j > 1; --j) {
      std::swap(slices[k][j - 1], slices[k][rng.next_below(j)]);
    }
  }
  auto draw = [&](std::size_t k, std::size_t j) {
    return (static_cast<double>(slices[k][j]) + rng.uniform()) /
           static_cast<double>(slices[k].size());
  };
  std::vector<KernelCall> stream;
  std::array<std::vector<std::size_t>, 3> fresh_of;  // stream indices per kernel
  std::size_t fresh_seen = 0;
  std::size_t repeats_seen = 0;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 4 == 3) {
      // Every fourth entry repeats an earlier fresh call of the next kernel
      // in turn; the repeat and its original are memoized.
      const auto& candidates = fresh_of[repeats_seen++ % 3];
      const std::size_t original = candidates[rng.next_below(candidates.size())];
      stream[original].memoize = true;
      KernelCall call = stream[original];
      call.repeat = true;
      stream.push_back(std::move(call));
      continue;
    }
    KernelCall call;
    const std::size_t k = fresh_seen % 3;
    const double u = draw(k, fresh_seen / 3);
    ++fresh_seen;
    call.kernel = static_cast<int>(k);
    switch (k) {
      case 0:  // one row of a 256x128 image, 128 iterations
        call.args = {std::int64_t{256}, static_cast<std::int64_t>(u * 128),
                     std::int64_t{128}, -2.0, 1.0, -1.2, 1.2, std::int64_t{128}};
        break;
      case 1:
        call.args = {static_cast<std::int64_t>(18 + u * 4)};
        break;
      default:
        call.args = {static_cast<std::int64_t>(20'000 + u * 20'001)};
        break;
    }
    fresh_of[k].push_back(i);
    stream.push_back(std::move(call));
  }
  return stream;
}

KernelPrograms compile_kernels() {
  KernelPrograms out;
  for (std::size_t k = 0; k < kKernelSources.size(); ++k) {
    auto program = tcl::compile(kKernelSources[k]);
    if (!program.is_ok()) {
      throw std::runtime_error("kernel " + std::string(kKernelNames[k]) +
                               " does not compile: " +
                               program.status().to_string());
    }
    out.programs[k] = std::move(program).value();
    out.bytes[k] = out.programs[k].serialize();
  }
  return out;
}

// --- microbenchmarks --------------------------------------------------------------------

double measure_codec(const std::vector<proto::Envelope>& samples, Report& report) {
  double total_ns = 0.0;
  for (const char* name : kCodecMessages) {
    const auto it = std::find_if(samples.begin(), samples.end(),
                                 [name](const proto::Envelope& e) {
                                   return proto::message_name(e.payload) == name;
                                 });
    if (it == samples.end()) {
      report.fail(std::string("no ") + name + " message to time");
      continue;
    }
    Bytes buf;
    const double encode_ns = ns_per_call([&] {
      buf.clear();
      proto::encode_into(*it, buf);
      g_sink = g_sink + buf.size();
    });
    buf.clear();
    proto::encode_into(*it, buf);
    bool decoded = true;
    const double decode_ns = ns_per_call([&] {
      auto envelope = proto::decode(buf);
      decoded = decoded && envelope.is_ok();
      g_sink = g_sink + 1;
    });
    if (!decoded) report.fail(std::string("decode of ") + name + " failed");
    report.metric(std::string("proto.encode_ns.") + name, encode_ns, "ns");
    report.metric(std::string("proto.decode_ns.") + name, decode_ns, "ns");
    total_ns += encode_ns + decode_ns;
  }
  return total_ns;
}

void report_no_codec(Report& report) {
  for (const char* name : kCodecMessages) {
    report.metric(std::string("proto.encode_ns.") + name, 0.0, "ns");
    report.metric(std::string("proto.decode_ns.") + name, 0.0, "ns");
  }
}

namespace {

// Routes envelopes straight into the target host's mailbox.
class HopEnv final : public net::HostEnv {
 public:
  void route(proto::Envelope envelope) override {
    (envelope.to == kBrokerId ? pinger : ponger)->post(std::move(envelope));
  }
  [[nodiscard]] SimTime now() const override { return clock_.now(); }

  net::ActorHost* pinger = nullptr;
  net::ActorHost* ponger = nullptr;

 private:
  SteadyClock clock_;
};

class Ponger final : public proto::Actor {
 public:
  Ponger() : proto::Actor(kConsumerId) {}
  void on_start(SimTime, proto::Outbox&) override {}
  void on_message(const proto::Envelope& envelope, SimTime,
                  proto::Outbox& out) override {
    out.send(envelope.from, proto::Heartbeat{});
  }
  void on_timer(std::uint64_t, SimTime, proto::Outbox&) override {}
};

class Pinger final : public proto::Actor {
 public:
  explicit Pinger(std::size_t round_trips)
      : proto::Actor(kBrokerId), left_(round_trips) {}
  void on_start(SimTime, proto::Outbox&) override {}
  void on_message(const proto::Envelope&, SimTime, proto::Outbox& out) override {
    rtt_us.push_back(us_between(sent_, Clock::now()));
    if (--left_ == 0) {
      done.set_value();
      return;
    }
    serve(out);
  }
  void on_timer(std::uint64_t, SimTime, proto::Outbox&) override {}
  void serve(proto::Outbox& out) {
    sent_ = Clock::now();
    out.send(kConsumerId, proto::Heartbeat{});
  }

  std::vector<double> rtt_us;
  std::promise<void> done;

 private:
  std::size_t left_;
  Clock::time_point sent_;
};

// Median one-way hop: half the round trip between two mailbox threads.
double hop_p50_us(std::size_t round_trips) {
  HopEnv env;
  auto pinger_actor = std::make_unique<Pinger>(round_trips);
  Pinger& pinger = *pinger_actor;
  net::ActorHost ping_host(std::move(pinger_actor), env);
  net::ActorHost pong_host(std::make_unique<Ponger>(), env);
  env.pinger = &ping_host;
  env.ponger = &pong_host;
  ping_host.start();
  pong_host.start();
  auto done = pinger.done.get_future();
  ping_host.post_closure([&pinger](SimTime, proto::Outbox& out) { pinger.serve(out); });
  done.wait();
  pong_host.stop();
  ping_host.stop();
  // The first tenth warms the threads and caches.
  std::vector<double> rtt(pinger.rtt_us.begin() +
                              static_cast<std::ptrdiff_t>(pinger.rtt_us.size() / 10),
                          pinger.rtt_us.end());
  return median(std::move(rtt)) / 2.0;
}

}  // namespace

void measure_inproc_hop(Report& report) {
  constexpr std::size_t kRoundTrips = 4000;
  report.metric("net.inproc.hop_p50_us", hop_p50_us(kRoundTrips), "us");
  const PinToOneCpu pin;
  report.metric("net.inproc.hop_pinned_p50_us", hop_p50_us(kRoundTrips), "us");
}

void measure_kernels_and_store(std::uint64_t seed, Report& report) {
  // tcl: compile time per kernel.
  for (std::size_t k = 0; k < kKernelSources.size(); ++k) {
    std::vector<double> compile_us;
    for (int i = 0; i < 9; ++i) {
      const auto start = Clock::now();
      auto program = tcl::compile(kKernelSources[k]);
      compile_us.push_back(us_between(start, Clock::now()));
      if (!program.is_ok()) report.fail("kernel compile failed");
    }
    report.metric(std::string("tcl.compile_us.") + kKernelNames[k],
                  median(std::move(compile_us)), "us");
  }

  // tvm + provider: the first calls of each kernel in the seeded stream.
  const KernelPrograms kernels = compile_kernels();
  const auto stream = make_kernel_stream(seed, 240);
  provider::VmExecutor executor;
  std::array<std::vector<double>, 3> exec_us, run_us, mfuel_per_s;
  std::vector<double> overhead_us;
  double fuel_total = 0.0;
  std::size_t fuel_calls = 0;
  for (const KernelCall& call : stream) {
    const auto k = static_cast<std::size_t>(call.kernel);
    if (call.repeat || exec_us[k].size() >= 10) continue;
    const tvm::Program& program = kernels.programs[k];
    provider::ExecRequest request;
    request.attempt = AttemptId{1};
    request.tasklet = TaskletId{1};
    request.body = proto::VmBody{kernels.bytes[k], call.args};
    (void)executor.run(request);  // verification + plan cache warm
    // Best of three for each side, alternating, so both see the same caches.
    Result<tvm::ExecOutcome> outcome = tvm::execute(program, call.args);
    proto::AttemptOutcome run;
    double exec = 1e300;
    double run_time = 1e300;
    for (int rep = 0; rep < 3 && outcome.is_ok(); ++rep) {
      const auto exec_start = Clock::now();
      outcome = tvm::execute(program, call.args);
      exec = std::min(exec, us_between(exec_start, Clock::now()));
      const auto run_start = Clock::now();
      run = executor.run(request);
      run_time = std::min(run_time, us_between(run_start, Clock::now()));
    }
    if (!outcome.is_ok() || run.status != proto::AttemptStatus::kOk ||
        run.fuel_used != outcome->fuel_used ||
        !tvm::args_equal(run.result, outcome->result)) {
      report.fail("VmExecutor::run disagrees with tvm::execute");
      return;
    }
    exec_us[k].push_back(exec);
    run_us[k].push_back(run_time);
    mfuel_per_s[k].push_back(static_cast<double>(outcome->fuel_used) / exec);
    overhead_us.push_back(run_time - exec);
    fuel_total += static_cast<double>(outcome->fuel_used);
    ++fuel_calls;
  }
  for (std::size_t k = 0; k < 3; ++k) {
    report.metric(std::string("tvm.exec_us.") + kKernelNames[k],
                  median(exec_us[k]), "us");
    report.metric(std::string("tvm.mfuel_per_s.") + kKernelNames[k],
                  median(mfuel_per_s[k]), "Mfuel/s");
  }
  report.metric("tvm.fuel_per_tasklet",
                fuel_calls == 0 ? 0.0 : fuel_total / static_cast<double>(fuel_calls),
                "fuel");
  for (std::size_t k = 0; k < 3; ++k) {
    report.metric(std::string("provider.run_us.") + kKernelNames[k],
                  median(run_us[k]), "us");
  }
  report.metric("provider.overhead_us", median(overhead_us), "us");

  // store: digests, memo lookups and blob gets on seeded content.
  Rng rng(mix64(seed ^ 0x73746F7265ULL));
  Bytes blob(64 * 1024);
  for (auto& b : blob) b = static_cast<std::byte>(rng.next());
  const double digest_ns = ns_per_call([&] {
    g_sink = g_sink + store::digest_bytes(blob).lo;
  });
  report.metric("store.digest_bytes_ns_per_kb", digest_ns / 64.0, "ns");
  std::size_t next_call = 0;
  const double args_ns = ns_per_call([&] {
    const KernelCall& call = stream[next_call++ % stream.size()];
    g_sink = g_sink + store::digest_args(call.args).lo;
  });
  report.metric("store.digest_args_ns", args_ns, "ns");

  constexpr std::size_t kEntries = 4096;
  store::MemoTable memo(kEntries);
  std::vector<store::MemoKey> keys;
  for (std::size_t i = 0; i < kEntries; ++i) {
    keys.push_back(store::MemoKey{store::Digest{rng.next() | 1, rng.next()},
                                  store::Digest{rng.next() | 1, rng.next()}});
    memo.insert(keys.back(), store::MemoEntry{std::int64_t{1}, 1, 1, NodeId{1}});
  }
  std::size_t next_key = 0;
  const double memo_ns = ns_per_call([&] {
    const auto* entry = memo.lookup(keys[(next_key++ * 2654435761u) % kEntries]);
    g_sink = g_sink + (entry != nullptr ? 1 : 0);
  });
  report.metric("store.memo_lookup_ns", memo_ns, "ns");

  store::BlobStore blobs;
  std::vector<store::Digest> digests;
  for (std::size_t i = 0; i < 256; ++i) {
    Bytes content(1024);
    for (auto& b : content) b = static_cast<std::byte>(rng.next());
    digests.push_back(store::digest_bytes(content));
    blobs.put(digests.back(), std::move(content));
  }
  std::size_t next_blob = 0;
  const double blob_ns = ns_per_call([&] {
    const Bytes* got = blobs.get(digests[(next_blob++ * 40503u) % digests.size()]);
    g_sink = g_sink + (got != nullptr ? got->size() : 0);
  });
  report.metric("store.blob_get_ns", blob_ns, "ns");
}

BrokerLayer pump_layer(const BrokerPump& pump, double wall_s) {
  return {&pump.broker_times, &pump.picks, nullptr, nullptr, wall_s};
}

void report_broker_layer(const BrokerLayer& layer, Report& report) {
  static const HandlerTimes kNoHandlers;
  static const PickTimes kNoPicks;
  const HandlerTimes& broker = layer.broker != nullptr ? *layer.broker : kNoHandlers;
  const PickTimes& picks = layer.picks != nullptr ? *layer.picks : kNoPicks;
  report.metric("broker.submit_us_p50", quantile(broker.submit_us, 0.5), "us");
  report.metric("broker.submit_us_p99", quantile(broker.submit_us, 0.99), "us");
  report.metric("broker.result_us_p50", quantile(broker.result_us, 0.5), "us");
  report.metric("broker.batch_end_us_p50", quantile(broker.batch_end_us, 0.5),
                "us");
  report.metric("broker.pick_us_p50", quantile(picks.pick_us, 0.5), "us");
  report.metric("broker.pick_batch_us_p50", quantile(picks.pick_batch_us, 0.5),
                "us");
  report.metric("broker.eligible_us_p50", quantile(broker.eligible_us, 0.5), "us");
  report.metric("broker.busy_share",
                layer.wall_s > 0.0 ? broker.busy_ns / 1e9 / layer.wall_s : 0.0,
                "ratio");
  report.metric("consumer.submit_us_p50",
                layer.consumer_submit_us != nullptr
                    ? quantile(*layer.consumer_submit_us, 0.5)
                    : 0.0,
                "us");
  report.metric("consumer.report_us_p50",
                layer.consumer != nullptr ? quantile(layer.consumer->report_us, 0.5)
                                          : 0.0,
                "us");
}

LayerTimes layer_self_times(const BrokerLayer& layer, std::size_t tasklets) {
  const double n = tasklets == 0 ? 1.0 : static_cast<double>(tasklets);
  double submit_ns = 0.0;
  if (layer.consumer_submit_us != nullptr) {
    for (const double us : *layer.consumer_submit_us) submit_ns += us * 1e3;
  }
  const double consumer_ns =
      (layer.consumer != nullptr ? layer.consumer->busy_ns : 0.0) + submit_ns;
  return {{"broker", (layer.broker->busy_ns - layer.picks->picked_ns) / n / 1e3},
          {"scheduler", layer.picks->picked_ns / n / 1e3},
          {"consumer", consumer_ns / n / 1e3}};
}

void note_cpu_ledger(const std::string& workload, const LayerTimes& layers,
                     double cpu_us_per_tasklet) {
  std::string line;
  double sum = 0.0;
  for (const auto& [name, us] : layers) {
    line += " " + name + "=" + std::to_string(us);
    sum += us;
  }
  note("ledger %s (us per tasklet, layer self times):%s | layer_sum=%.3f "
       "remainder=%.3f | cpu_us_per_tasklet=%.3f",
       workload.c_str(), line.c_str(), sum, cpu_us_per_tasklet - sum,
       cpu_us_per_tasklet);
}

void report_registry_counters(std::uint64_t completed, Report& report) {
  auto& registry = metrics::MetricsRegistry::instance();
  const double done = completed == 0 ? 1.0 : static_cast<double>(completed);
  auto counter = [&](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double writev = counter("net.tcp.writev_calls");
  report.metric("net.inproc.routed_per_tasklet", counter("net.inproc.routed") / done,
                "count");
  report.metric("net.tcp.writev_per_tasklet", writev / done, "count");
  report.metric("net.tcp.frames_per_writev",
                ratio(counter("net.tcp.frames_coalesced") + writev, writev), "count");
  report.metric("net.tcp.send_queue_depth_max",
                registry.histogram("net.tcp.send_queue_depth").snapshot().quantile(1.0),
                "count");
  report.metric("proto.bytes_per_tasklet", counter("net.tcp.bytes_out") / done, "B");
  report.metric("broker.batch_size_p50",
                registry.histogram("broker.batch.size").snapshot().quantile(0.5),
                "count");
  report.metric("broker.attempts_per_tasklet",
                ratio(counter("broker.attempts_issued"), counter("broker.submitted")),
                "count");
  report.metric("consumer.resubmits", counter("consumer.resubmits"), "count");
  report.metric("store.memo_hit_ratio",
                ratio(counter("broker.store.memo_hits"), counter("broker.submitted")),
                "ratio");
  report.metric("store.digest_assign_ratio",
                ratio(counter("broker.store.assigns_by_digest"),
                      counter("broker.attempts_issued")),
                "ratio");
}

void report_phases(const std::string& workload, const std::vector<Span>& spans,
                   double untraced_p50_us, Report& report) {
  const analysis::WaitGraph graph = analysis::analyze_all(spans);
  const double tasklets = graph.tasklets == 0 ? 1.0 : static_cast<double>(graph.tasklets);
  std::string line;
  double named_mean_us = 0.0;
  for (std::size_t i = 0; i < analysis::kPhaseCount; ++i) {
    const auto phase = static_cast<analysis::Phase>(i);
    const std::string name(analysis::phase_name(phase));
    const double p50_us = graph.phases[i].quantile(0.5) / 1e3;
    const double mean_us = static_cast<double>(graph.phases[i].total) / tasklets / 1e3;
    report.metric("core.phase." + name + "_p50_us", p50_us, "us");
    if (phase != analysis::Phase::kUnattributed) {
      named_mean_us += mean_us;
      line += " " + name + "=" + std::to_string(mean_us);
    }
  }
  const double residual_us =
      static_cast<double>(graph.phases[analysis::phase_index(
          analysis::Phase::kUnattributed)].total) / tasklets / 1e3;
  const double total_us = static_cast<double>(graph.total) / tasklets / 1e3;
  if (graph.tasklets == 0) return;  // nothing traced: the phases read 0
  note("ledger %s (us per tasklet, traced means over %zu tasklets):%s | "
       "layer_sum=%.3f unattributed=%.3f traced_total=%.3f | "
       "untraced latency_p50_us=%.3f",
       workload.c_str(), graph.tasklets, line.c_str(), named_mean_us, residual_us,
       total_us, untraced_p50_us);
}

void report_overheads(double plain_p50_us, double traced_p50_us,
                      double metrics_off_p50_us, Report& report) {
  auto pct = [](double a, double b) { return b > 0.0 ? (a / b - 1.0) * 100.0 : 0.0; };
  report.metric("core.obs_overhead_pct", pct(traced_p50_us, plain_p50_us), "%");
  report.metric("core.metrics_overhead_pct", pct(plain_p50_us, metrics_off_p50_us),
                "%");
}

}  // namespace ledger

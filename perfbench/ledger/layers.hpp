// Per-layer probes: timing decorators for the broker's Scheduler and for
// any proto::Actor, a single-threaded broker -> instant-provider pump that
// times the broker's handlers, the shared kernel_fanout input stream, and
// the layer microbenchmarks every traced run prints.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "broker/broker.hpp"
#include "broker/scheduling.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "consumer/consumer.hpp"
#include "ledger.hpp"
#include "proto/actor.hpp"
#include "proto/messages.hpp"
#include "tvm/program.hpp"

namespace ledger {

using namespace tasklets;

// Pick times a TimedScheduler records; owned by the caller so they outlive
// the broker that owns the scheduler.
struct PickTimes {
  std::vector<double> pick_us;
  std::vector<double> pick_batch_us;
  double picked_ns = 0.0;  // running total, read around each broker handler
};

// Wraps the Scheduler handed to a Broker and times pick / pick_batch.
// Only ever called from the broker's own thread.
class TimedScheduler final : public broker::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<broker::Scheduler> inner, PickTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  NodeId pick(const proto::TaskletSpec& spec,
              const broker::SchedulingContext& context, Rng& rng) override;
  std::size_t pick_batch(const broker::SchedulingContext& context,
                         std::span<broker::ProviderView> candidates, Rng& rng,
                         std::span<NodeId> choices) override;
  std::string_view name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<broker::Scheduler> inner_;
  PickTimes& times_;
};

// Handler times a TimedActor records; owned by the caller so they outlive
// the runtime that owns the actor. Written on the actor's thread, read once
// that runtime has stopped.
struct HandlerTimes {
  std::vector<double> submit_us;    // SubmitTasklet handlers
  std::vector<double> result_us;    // AttemptResult handlers
  std::vector<double> report_us;    // TaskletDone handlers
  std::vector<double> eligible_us;  // per SubmitTasklet: submit minus pick
  std::vector<double> batch_end_us;
  double busy_ns = 0.0;  // every handler
};

// Wraps an actor and times its handlers.
class TimedActor final : public proto::Actor {
 public:
  // `picks` (nullable) are the wrapped broker's scheduler times; submit
  // time minus the pick time inside it is the eligibility work.
  TimedActor(std::unique_ptr<proto::Actor> inner, HandlerTimes& times,
             const PickTimes* picks);

  void on_start(SimTime now, proto::Outbox& out) override;
  void on_message(const proto::Envelope& envelope, SimTime now,
                  proto::Outbox& out) override;
  void on_timer(std::uint64_t timer_id, SimTime now, proto::Outbox& out) override;
  void on_batch_begin(SimTime now) override;
  void on_batch_end(SimTime now, proto::Outbox& out) override;

  [[nodiscard]] proto::Actor& inner() noexcept { return *inner_; }

 private:
  std::unique_ptr<proto::Actor> inner_;
  HandlerTimes& times_;
  const PickTimes* picks_;
};

// Sets the metrics enable flag for a scope, restoring it on exit.
class MetricsSwitch {
 public:
  explicit MetricsSwitch(bool on) : saved_(metrics::enabled()) {
    metrics::set_enabled(on);
  }
  ~MetricsSwitch() { metrics::set_enabled(saved_); }
  MetricsSwitch(const MetricsSwitch&) = delete;
  MetricsSwitch& operator=(const MetricsSwitch&) = delete;

 private:
  bool saved_;
};

inline constexpr NodeId kBrokerId{1};
inline constexpr NodeId kConsumerId{2};
inline constexpr std::uint64_t kFirstProvider = 1000;

// Answers one AssignTasklet the way a provider would.
using AnswerFn = std::function<proto::AttemptOutcome(const proto::AssignTasklet&)>;

// Drives a Broker (and optionally a ConsumerAgent) on the calling thread.
// Each submitted tasklet is pumped to its terminal report: assignments are
// answered at once by `answer`, so every submit places.
class BrokerPump {
 public:
  struct Config {
    std::vector<proto::Capability> pool;  // provider i is kFirstProvider + i
    std::string locality;                 // the submitter's origin tag
    // Submit through a ConsumerAgent, so the sampled messages have the
    // shape a consumer gives them.
    bool with_consumer = false;
    TraceStore* trace = nullptr;
  };

  // One tasklet's trip through the pump.
  struct Trip {
    std::optional<proto::TaskletReport> report;
    std::vector<NodeId> assigned;  // provider of every AssignTasklet, in order
    double latency_us = 0.0;       // submit -> terminal report
    double decision_us = 0.0;      // the broker's SubmitTasklet handler
  };

  explicit BrokerPump(Config config);

  Trip run(proto::TaskletSpec spec, const AnswerFn& answer);

  HandlerTimes broker_times;
  PickTimes picks;
  // First envelope of each codec-measured message type seen in a trip.
  std::vector<proto::Envelope> samples;

 private:
  void deliver(proto::Outbox& out);
  void keep_sample(const proto::Envelope& envelope);

  Config config_;
  Clock::time_point epoch_;
  std::unique_ptr<TimedActor> broker_;
  std::unique_ptr<consumer::ConsumerAgent> consumer_;
  std::deque<proto::Envelope> queue_;
};

// --- kernel_fanout inputs -------------------------------------------------------

inline constexpr std::array<const char*, 3> kKernelNames = {"mandelbrot", "fib",
                                                            "sieve"};

struct KernelCall {
  int kernel = 0;  // index into kKernelNames
  std::vector<tvm::HostArg> args;
  bool repeat = false;   // an exact copy of an earlier call
  bool memoize = false;  // QoC memoize: set on repeats and their originals
};

// The seeded kernel_fanout stream: mandelbrot rows 256x128, fib(18..21),
// sieve(20k..40k). Every fourth entry repeats an earlier fresh call
// exactly; those repeats and the calls they copy carry QoC memoize.
[[nodiscard]] std::vector<KernelCall> make_kernel_stream(std::uint64_t seed,
                                                         std::size_t n);

// The three kernel programs compiled from core/kernels.
struct KernelPrograms {
  std::array<tvm::Program, 3> programs;
  std::array<Bytes, 3> bytes;
};
[[nodiscard]] KernelPrograms compile_kernels();

// --- microbenchmarks (traced runs) -----------------------------------------------

// proto.encode_ns.<msg> / proto.decode_ns.<msg> for SubmitTasklet,
// AssignTasklet, AttemptResult and TaskletDone, on the workload's own
// messages (`samples` holds at least one of each). Returns the sum, the
// codec cost of one tasklet that crosses a wire, in ns.
double measure_codec(const std::vector<proto::Envelope>& samples, Report& report);
// The same metrics as 0, for workloads that never encode.
void report_no_codec(Report& report);

// net.inproc.hop_p50_us and net.inproc.hop_pinned_p50_us: a ping-pong
// between two ActorHosts.
void measure_inproc_hop(Report& report);

// core.dispatch_pinned_p50_us: dispatch_serial with every thread on one CPU.
void measure_dispatch_pinned(Report& report);

// tvm.*, provider.*, tcl.* and the store.* microbenchmarks, on the
// kernel_fanout programs and arguments of `seed`.
void measure_kernels_and_store(std::uint64_t seed, Report& report);

// broker.* (timed handlers of `pump`) and consumer.submit/report. A default
// BrokerLayer, for a workload whose broker the benchmark does not build,
// reports them all as 0.
struct BrokerLayer {
  const HandlerTimes* broker = nullptr;
  const PickTimes* picks = nullptr;
  const HandlerTimes* consumer = nullptr;  // nullptr: no consumer layer timed
  const std::vector<double>* consumer_submit_us = nullptr;
  double wall_s = 0.0;  // wall time the handlers' busy share is taken over
};
[[nodiscard]] BrokerLayer pump_layer(const BrokerPump& pump, double wall_s);
void report_broker_layer(const BrokerLayer& layer, Report& report);

// Per-tasklet self time, in us, of each timed layer; and the ledger line
// that sets them, their sum and the remainder beside cpu_us_per_tasklet.
using LayerTimes = std::vector<std::pair<std::string, double>>;
[[nodiscard]] LayerTimes layer_self_times(const BrokerLayer& layer,
                                          std::size_t tasklets);
void note_cpu_ledger(const std::string& workload, const LayerTimes& layers,
                     double cpu_us_per_tasklet);

// Counters read from the metrics registry after the workload's real run:
// net.inproc.routed_per_tasklet, net.tcp.*, proto.bytes_per_tasklet,
// broker.batch_size_p50, broker.attempts_per_tasklet, consumer.resubmits,
// store.memo_hit_ratio and store.digest_assign_ratio.
void report_registry_counters(std::uint64_t completed, Report& report);

// core.phase.<p>_p50_us from the spans of a traced run, plus the ledger
// line that sets the phase sum and residual beside the untraced p50. With
// no traced tasklet in `spans` the phases read 0 and no line is printed.
void report_phases(const std::string& workload, const std::vector<Span>& spans,
                   double untraced_p50_us, Report& report);

// core.obs_overhead_pct / core.metrics_overhead_pct.
void report_overheads(double plain_p50_us, double traced_p50_us,
                      double metrics_off_p50_us, Report& report);

}  // namespace ledger

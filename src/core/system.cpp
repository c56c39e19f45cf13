#include "core/system.hpp"

#include <chrono>

#include "common/log.hpp"
#include "net/tcp.hpp"
#include "provider/benchmark.hpp"
#include "tcl/compiler.hpp"

namespace tasklets::core {

Result<proto::VmBody> compile_tasklet(std::string_view tcl_source,
                                      std::vector<tvm::HostArg> args,
                                      std::string_view entry) {
  tcl::CompileOptions options;
  options.entry = entry;
  TASKLETS_ASSIGN_OR_RETURN(auto program, tcl::compile(tcl_source, options));
  proto::VmBody body;
  body.program = program.serialize();
  body.args = std::move(args);
  return body;
}

// Per-provider execution service: a worker pool sized to the slot count, an
// optional emulated slowdown (sleeps proportionally to execution time) and
// fault injection. Completions are posted back into the owning actor host.
//
// Known-small work skips the pool. When every completed run of a program fit
// in kInlineFuel and nothing else of this provider is in flight, execute()
// runs the assignment inline, on the thread running the runtime's turns:
// the mailbox thread all actors of an in-proc runtime share, or a caller
// whose submit drives them. That removes the turns -> worker -> turns round
// trip from its path (DESIGN.md section 5).
class TaskletSystem::ProviderExecution final : public provider::ExecutionService {
 public:
  ProviderExecution(std::shared_ptr<provider::VmExecutor> executor,
                    std::uint32_t slots, double slowdown, double fault_rate,
                    std::uint64_t fault_seed)
      : executor_(std::move(executor)),
        slowdown_(slowdown),
        fault_rate_(fault_rate),
        fault_rng_(fault_seed),
        pool_(slots) {}

  void set_owner(net::ActorHost* owner) noexcept {
    owner_.store(owner, std::memory_order_release);
  }

  // Enables "vm" spans for executions on this provider. Set before the agent
  // starts (same ordering requirement as set_owner).
  void set_trace(TraceStore* store, NodeId node) noexcept {
    trace_ = store;
    node_ = node;
  }

  void execute(provider::ExecRequest request, provider::ExecDone done) override {
    Attempt attempt{executor_->begin(request), std::move(done), request.trace,
                    request.tasklet};
    const bool idle = outstanding_++ == 0;
    // A slowdown provider's emulation sleep would block its mailbox.
    if (idle && slowdown_ <= 1.0 && attempt.run.completed_within(kInlineFuel)) {
      TASKLETS_COUNT("provider.vm.inline", 1);
      if (run_attempt(attempt, kInlineCapFuel, /*to_end=*/false)) return;
      TASKLETS_COUNT("provider.vm.inline_handoffs", 1);
    }
    pool_.submit([this, attempt = std::move(attempt)]() mutable {
      (void)run_attempt(attempt, kFuelSlice, /*to_end=*/true);
    });
  }

  void stop() { pool_.stop(); }

  // In-flight work checkpoints at the next slice boundary and is reported
  // kSuspended; new work is never drained (the agent rejects it while
  // offline anyway).
  void drain() noexcept { drain_.store(true, std::memory_order_relaxed); }

 private:
  // Both inline constants are sized from the measured cross-core hand-off
  // (~10 us, net.inproc.hop_p50_us on a 4-CPU host) and the VM's slowest
  // kernel class (~170 Mfuel/s on call-heavy code: bench_vm fib20, pinned,
  // same host, EXPERIMENTS.md E7). kInlineFuel is about 30 us of VM work,
  // a little more than the two saved hand-offs cost. kInlineCapFuel is the
  // most a mispredicted inline run may hold the mailbox before the pool
  // takes over its suspended machine.
  static constexpr std::uint64_t kInlineFuel = 5'000;
  static constexpr std::uint64_t kInlineCapFuel = 2 * kInlineFuel;
  // Pool slices bound how late a drain request is seen (~ms of compute).
  static constexpr std::uint64_t kFuelSlice = 2'000'000;

  // An assignment between execute() and its completion.
  struct Attempt {
    provider::VmExecutor::Run run;
    provider::ExecDone done;
    TraceContext trace;
    TaskletId tasklet;
    SimTime vm_time = 0;  // execution time of earlier calls to run_attempt
  };

  // The run body of both paths. Steps the VM in slices of `fuel_slice`,
  // until it has an outcome or, unless `to_end`, for one slice. Then applies
  // slowdown and fault injection and posts the completion, with its "vm"
  // span, into the owner's mailbox. Returns false, posting nothing, when the
  // one slice left the machine suspended.
  bool run_attempt(Attempt& attempt, std::uint64_t fuel_slice, bool to_end) {
    const SteadyClock clock;
    const SimTime start = clock.now();
    std::optional<proto::AttemptOutcome> outcome =
        attempt.run.step(fuel_slice, drain_);
    while (!outcome && to_end) outcome = attempt.run.step(fuel_slice, drain_);
    if (!outcome) {
      attempt.vm_time += clock.now() - start;
      return false;
    }
    if (slowdown_ > 1.0) {
      const SimTime elapsed = attempt.vm_time + (clock.now() - start);
      const auto extra = static_cast<SimTime>(
          static_cast<double>(elapsed) * (slowdown_ - 1.0));
      std::this_thread::sleep_for(std::chrono::nanoseconds(extra));
    }
    if (fault_rate_ > 0.0) {
      const std::scoped_lock lock(fault_mutex_);
      *outcome = provider::maybe_corrupt(std::move(*outcome), fault_rate_,
                                         fault_rng_);
    }
    net::ActorHost* owner = owner_.load(std::memory_order_acquire);
    if (owner == nullptr) return true;
    // The worker's wall clock and the actor host's `now` share no epoch, so
    // the "vm" span is anchored to the completion's host timestamp and
    // extends backwards by the measured execution time.
    const SimTime elapsed = attempt.vm_time + (clock.now() - start);
    owner->post_closure([this, outcome = std::move(*outcome),
                         done = std::move(attempt.done), elapsed,
                         ctx = attempt.trace, tasklet = attempt.tasklet](
                            SimTime now, proto::Outbox& out) mutable {
      --outstanding_;
      if (trace_ != nullptr && ctx.active()) {
        Span span;
        span.trace_id = ctx.trace_id;
        span.parent_span = ctx.parent_span;
        span.name = "vm";
        span.node = node_;
        span.tasklet = tasklet;
        span.start = now > elapsed ? now - elapsed : 0;
        span.end = now;
        span.args.emplace_back("status",
                               std::string(proto::to_string(outcome.status)));
        span.args.emplace_back("instructions",
                               std::to_string(outcome.instructions));
        span.args.emplace_back("fuel", std::to_string(outcome.fuel_used));
        trace_->add(std::move(span));
      }
      done(std::move(outcome), now, out);
    });
    return true;
  }

  std::shared_ptr<provider::VmExecutor> executor_;
  std::atomic<bool> drain_{false};
  double slowdown_;
  double fault_rate_;
  std::mutex fault_mutex_;
  Rng fault_rng_;
  std::atomic<net::ActorHost*> owner_ = nullptr;
  TraceStore* trace_ = nullptr;
  NodeId node_;
  // Attempts passed to execute() whose completion closure has not run yet.
  // execute() and those closures both run on the thread running the
  // runtime's turns, and turns never overlap, so the count needs no
  // synchronization.
  std::uint32_t outstanding_ = 0;
  ThreadPool pool_;
};

TaskletSystem::TaskletSystem(SystemConfig config)
    : config_(std::move(config)),
      executor_(std::make_shared<provider::VmExecutor>(config_.exec_limits)) {
  if (config_.tracing) {
    trace_ = std::make_unique<TraceStore>();
    config_.broker.trace = trace_.get();
    config_.consumer.trace = trace_.get();
  }
  if (config_.transport == Transport::kTcp) {
    runtime_ = std::make_unique<net::TcpRuntime>();
  } else {
    runtime_ = std::make_unique<net::InProcRuntime>();
  }
  if (config_.fault_plan.has_value()) {
    auto faulty = std::make_unique<net::FaultyRuntime>(std::move(runtime_),
                                                       *config_.fault_plan);
    faults_ = faulty.get();
    runtime_ = std::move(faulty);
  }
  auto scheduler_result = broker::make_scheduler(config_.scheduler);
  std::unique_ptr<broker::Scheduler> scheduler;
  if (scheduler_result.is_ok()) {
    scheduler = std::move(scheduler_result).value();
  } else {
    // Configuration error: fall back loudly to the default policy.
    TASKLETS_LOG(kError, "system") << scheduler_result.status().to_string()
                                   << "; using qoc_aware";
    scheduler = broker::make_qoc_aware();
  }
  broker_id_ = node_ids_.next();
  auto broker_actor = std::make_unique<broker::Broker>(
      broker_id_, std::move(scheduler), config_.broker);
  broker_ = broker_actor.get();
  broker_host_ = &runtime_->add(std::move(broker_actor));

  consumer_id_ = node_ids_.next();
  auto consumer_actor = std::make_unique<consumer::ConsumerAgent>(
      consumer_id_, broker_id_, config_.consumer_locality, config_.consumer);
  consumer_ = consumer_actor.get();
  consumer_host_ = &runtime_->add(std::move(consumer_actor));

  if (config_.ops.enabled) {
    // Admin requests read broker state via the broker's actor host, so the
    // read is serialized with message handling like every other access.
    broker::Broker* broker = broker_;
    net::ActorHost* host = broker_host_;
    auto state_fn = [broker, host]() {
      auto promise = std::make_shared<std::promise<OpsPlane::BrokerState>>();
      auto future = promise->get_future();
      host->post_closure([broker, promise](SimTime, proto::Outbox&) {
        OpsPlane::BrokerState state;
        state.stats = broker->stats();
        state.providers = broker->provider_views();
        state.pool = broker::compute_pool_stats(state.providers);
        state.queue_length = broker->queue_length();
        broker->memo_table().for_each(
            [&state](const store::MemoKey&, const store::MemoEntry& entry) {
              ++state.memo_by_provider[entry.provider];
            });
        promise->set_value(std::move(state));
      });
      return future.get();
    };
    ops_ = std::make_unique<OpsPlane>(config_.ops, std::move(state_fn),
                                      trace_.get(), /*start_sampler=*/true);
  }
}

TaskletSystem::~TaskletSystem() { stop(); }

void TaskletSystem::stop() {
  {
    // Waits for running submits: after this no submit reaches a host that
    // stop_all() destroys.
    const std::unique_lock lock(lifecycle_mutex_);
    if (stopped_) return;
    stopped_ = true;
  }
  // Ops plane first: its stop() joins the sampler and every in-flight admin
  // handler, so nothing reaches into the broker host after this line.
  if (ops_ != nullptr) ops_->stop();
  // Pools first: stop() joins in-flight executions, whose completion
  // closures post into actor hosts, so the hosts must still be alive.
  // Actors submitting to a stopped pool is harmless (submit is a no-op).
  {
    const std::scoped_lock lock(providers_mutex_);
    for (auto& execution : provider_executions_) execution->stop();
  }
  runtime_->stop_all();
}

std::size_t TaskletSystem::provider_count() const noexcept {
  const std::scoped_lock lock(providers_mutex_);
  return provider_executions_.size();
}

NodeId TaskletSystem::add_provider(ProviderOptions options) {
  proto::Capability capability = options.capability;
  if (capability.slots == 0) capability.slots = 1;
  if (capability.speed_fuel_per_sec <= 0.0) {
    capability.speed_fuel_per_sec =
        provider::measure_speed(*executor_) / options.slowdown;
  }
  auto execution = std::make_unique<ProviderExecution>(
      executor_, capability.slots, options.slowdown, options.fault_rate,
      options.fault_seed);
  const NodeId id = node_ids_.next();
  provider::ProviderConfig provider_config;
  provider_config.heartbeat_interval = config_.broker.heartbeat_interval;
  provider_config.trace = trace_.get();
  execution->set_trace(trace_.get(), id);
  auto agent = std::make_unique<provider::ProviderAgent>(
      id, broker_id_, std::move(capability), *execution, provider_config);
  // The execution service must know its host before the agent registers
  // (registration can trigger an immediate assignment).
  net::ActorHost& host = runtime_->add(std::move(agent), /*autostart=*/false);
  execution->set_owner(&host);
  host.start();
  const std::scoped_lock lock(providers_mutex_);
  providers_by_id_.emplace(id, std::make_pair(execution.get(), &host));
  provider_executions_.push_back(std::move(execution));
  return id;
}

void TaskletSystem::drain_provider(NodeId id) {
  ProviderExecution* execution = nullptr;
  net::ActorHost* host = nullptr;
  {
    const std::scoped_lock lock(providers_mutex_);
    const auto it = providers_by_id_.find(id);
    if (it == providers_by_id_.end()) return;
    execution = it->second.first;
    host = it->second.second;
  }
  // Order matters: deregister first so the broker stops assigning, then flip
  // the drain flag so running slices checkpoint.
  host->post_closure([host](SimTime, proto::Outbox& out) {
    auto& agent = static_cast<provider::ProviderAgent&>(host->actor());
    agent.leave(out);
  });
  execution->drain();
}

std::future<proto::TaskletReport> TaskletSystem::submit(proto::TaskletBody body,
                                                        proto::Qoc qoc, JobId job) {
  proto::TaskletSpec spec;
  spec.id = tasklet_ids_.next();
  spec.job = job.valid() ? job : job_ids_.next();
  spec.body = std::move(body);
  spec.qoc = qoc;

  auto promise = std::make_shared<std::promise<proto::TaskletReport>>();
  std::future<proto::TaskletReport> future = promise->get_future();
  consumer::ConsumerAgent* agent = consumer_;
  const std::shared_lock lock(lifecycle_mutex_);
  if (stopped_) return future;  // the promise breaks on return
  consumer_host_->post_closure_and_drive(
      [agent, spec = std::move(spec), promise](SimTime now,
                                               proto::Outbox& out) mutable {
        agent->submit(std::move(spec),
                      [promise](const proto::TaskletReport& report) {
                        promise->set_value(report);
                      },
                      now, out);
      });
  return future;
}

std::future<proto::DagStatus> TaskletSystem::submit_dag(
    std::vector<dag::DagNode> nodes, proto::Qoc qoc,
    std::vector<std::uint32_t> outputs) {
  dag::DagSpec spec;
  spec.id = dag_ids_.next();
  spec.job = job_ids_.next();
  spec.nodes = std::move(nodes);
  spec.qoc = qoc;
  spec.outputs = std::move(outputs);

  auto promise = std::make_shared<std::promise<proto::DagStatus>>();
  std::future<proto::DagStatus> future = promise->get_future();
  consumer::ConsumerAgent* agent = consumer_;
  const std::shared_lock lock(lifecycle_mutex_);
  if (stopped_) return future;  // the promise breaks on return
  consumer_host_->post_closure_and_drive(
      [agent, spec = std::move(spec), promise](SimTime now,
                                               proto::Outbox& out) mutable {
        agent->submit_dag(std::move(spec),
                          [promise](const proto::DagStatus& status) {
                            promise->set_value(status);
                          },
                          /*node_handler=*/nullptr, now, out);
      });
  return future;
}

std::vector<std::future<proto::TaskletReport>> TaskletSystem::submit_batch(
    std::vector<proto::TaskletBody> bodies, proto::Qoc qoc) {
  const JobId job = job_ids_.next();
  std::vector<std::future<proto::TaskletReport>> futures;
  futures.reserve(bodies.size());
  for (auto& body : bodies) {
    futures.push_back(submit(std::move(body), qoc, job));
  }
  return futures;
}

metrics::MetricsSnapshot TaskletSystem::metrics_snapshot() {
  return metrics::MetricsRegistry::instance().snapshot();
}

broker::BrokerStats TaskletSystem::broker_stats() {
  auto promise = std::make_shared<std::promise<broker::BrokerStats>>();
  auto future = promise->get_future();
  broker::Broker* broker = broker_;
  broker_host_->post_closure(
      [broker, promise](SimTime, proto::Outbox&) {
        promise->set_value(broker->stats());
      });
  return future.get();
}

}  // namespace tasklets::core

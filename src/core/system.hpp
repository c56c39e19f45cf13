// TaskletSystem: the threaded (real-execution) runtime facade.
//
// One process hosts a broker, any number of providers (each with its own
// execution worker pool sized to its slot count) and a consumer endpoint
// with a future-based submission API. This is the runtime the examples use
// and the deployment shape a downstream application embeds; the simulator
// (core/sim_cluster.hpp) shares every protocol component with it.
//
// Typical use:
//   core::TaskletSystem system;
//   system.add_provider();                       // self-measured capability
//   auto body = core::compile_tasklet(source, {args...});
//   auto future = system.submit(std::move(*body));
//   proto::TaskletReport report = future.get();
#pragma once

#include <future>
#include <unordered_map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "broker/broker.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "consumer/consumer.hpp"
#include "core/ops.hpp"
#include "net/fault.hpp"
#include "net/inproc.hpp"
#include "proto/types.hpp"
#include "provider/provider.hpp"
#include "tvm/marshal.hpp"

namespace tasklets::core {

// Compiles TCL source and packages it with arguments as a tasklet body.
[[nodiscard]] Result<proto::VmBody> compile_tasklet(
    std::string_view tcl_source, std::vector<tvm::HostArg> args,
    std::string_view entry = "main");

struct ProviderOptions {
  // Device identity advertised to the broker. If speed_fuel_per_sec is 0 it
  // is self-measured with the calibration benchmark.
  proto::Capability capability{};
  // Emulated slowdown for heterogeneity experiments on one physical host:
  // 2.0 makes the provider behave half as fast (sleeps after executing).
  double slowdown = 1.0;
  // Silent result-corruption probability (tests redundancy voting).
  double fault_rate = 0.0;
  std::uint64_t fault_seed = 0x5EED;
};

enum class Transport : std::uint8_t {
  kInProc = 0,  // direct mailbox delivery (default)
  kTcp,         // length-prefixed frames over loopback TCP sockets
};

struct SystemConfig {
  std::string scheduler = "qoc_aware";
  Transport transport = Transport::kInProc;
  broker::BrokerConfig broker{};
  tvm::ExecLimits exec_limits{};
  std::string consumer_locality;  // origin tag for QoC locality matching
  consumer::ConsumerConfig consumer{};
  // When set, the transport is wrapped in a net::FaultyRuntime applying
  // this plan to every message (chaos testing). See faults().
  std::optional<net::FaultPlan> fault_plan;
  // Distributed tracing: when true the system owns a TraceStore and every
  // actor (broker, consumer, providers, VM executions) records spans into
  // it. Query via trace_store(); export with TraceStore::export_chrome_json.
  bool tracing = false;
  // Live ops plane (core/ops.hpp): metrics time series + health rules +
  // admin endpoint. Off by default.
  OpsConfig ops{};
};

class TaskletSystem {
 public:
  explicit TaskletSystem(SystemConfig config = {});
  ~TaskletSystem();

  TaskletSystem(const TaskletSystem&) = delete;
  TaskletSystem& operator=(const TaskletSystem&) = delete;

  // Adds a provider node; returns its id. Thread-safe.
  NodeId add_provider(ProviderOptions options = {});

  // Gracefully drains a provider: it deregisters from the broker and its
  // in-flight executions checkpoint at the next fuel-slice boundary and are
  // reported as suspended — the broker migrates them to other providers,
  // which resume from the snapshots. No work is lost or restarted.
  void drain_provider(NodeId id);

  // Submits a tasklet body; the future resolves with the terminal report.
  // When the runtime is idle, submit may run the runtime's handlers on the
  // calling thread before it returns (net/inproc.hpp), so a known-small
  // tasklet's future can already be ready. Thread-safe.
  [[nodiscard]] std::future<proto::TaskletReport> submit(proto::TaskletBody body,
                                                         proto::Qoc qoc = {},
                                                         JobId job = {});

  // Submits a whole batch under one job id; futures in submission order.
  [[nodiscard]] std::vector<std::future<proto::TaskletReport>> submit_batch(
      std::vector<proto::TaskletBody> bodies, proto::Qoc qoc = {});

  // Submits a dataflow graph (protocol r4): nodes reference each other by
  // index through `inputs` edges, finished results are bound into dependents
  // broker-side. The future resolves with the terminal DagStatus (outputs =
  // the reports of `outputs` nodes, or every sink when empty). Like submit,
  // it may run the runtime's handlers on the calling thread.
  [[nodiscard]] std::future<proto::DagStatus> submit_dag(
      std::vector<dag::DagNode> nodes, proto::Qoc qoc = {},
      std::vector<std::uint32_t> outputs = {});

  // Snapshot of broker statistics (synchronizes with the broker actor).
  [[nodiscard]] broker::BrokerStats broker_stats();

  // Snapshot of the process-wide metrics registry (see common/metrics.hpp).
  // The registry is process-global, so counters aggregate across systems if
  // several coexist; MetricsRegistry::instance().reset() isolates runs.
  [[nodiscard]] static metrics::MetricsSnapshot metrics_snapshot();

  // The system's span collector, or nullptr unless SystemConfig::tracing.
  [[nodiscard]] TraceStore* trace_store() noexcept { return trace_.get(); }

  // The live ops plane, or nullptr unless SystemConfig::ops.enabled. Use
  // ops()->admin_port() to reach the introspection endpoint when the config
  // asked for an ephemeral port.
  [[nodiscard]] OpsPlane* ops() noexcept { return ops_.get(); }

  // Number of providers added so far.
  [[nodiscard]] std::size_t provider_count() const noexcept;

  // The fault-injection decorator, or nullptr when no fault plan was
  // configured. Tests use it for partitions and the decision trace.
  [[nodiscard]] net::FaultyRuntime* faults() noexcept { return faults_; }

  // Ids of the system's fixed actors (for fault plans / partitions).
  [[nodiscard]] NodeId broker_id() const noexcept { return broker_id_; }
  [[nodiscard]] NodeId consumer_id() const noexcept { return consumer_id_; }

  // Stops all actors and worker pools. Called by the destructor; after
  // stop() submissions fail their futures with broken_promise.
  void stop();

 private:
  class ProviderExecution;

  SystemConfig config_;
  // Declared before runtime_: actors hold raw pointers into the store, so it
  // must outlive them (members destroy in reverse declaration order).
  std::unique_ptr<TraceStore> trace_;
  std::unique_ptr<net::Runtime> runtime_;
  net::FaultyRuntime* faults_ = nullptr;  // == runtime_.get() when wrapping
  IdGenerator<NodeId> node_ids_;
  IdGenerator<TaskletId> tasklet_ids_;
  IdGenerator<JobId> job_ids_;
  IdGenerator<DagId> dag_ids_;
  NodeId broker_id_;
  NodeId consumer_id_;
  broker::Broker* broker_ = nullptr;      // owned by runtime_
  consumer::ConsumerAgent* consumer_ = nullptr;  // owned by runtime_
  net::ActorHost* broker_host_ = nullptr;
  net::ActorHost* consumer_host_ = nullptr;
  std::shared_ptr<provider::VmExecutor> executor_;
  mutable std::mutex providers_mutex_;
  std::vector<std::unique_ptr<ProviderExecution>> provider_executions_;
  std::unordered_map<NodeId, std::pair<ProviderExecution*, net::ActorHost*>>
      providers_by_id_;
  // Constructed last, stopped first: its admin handlers and sampler reach
  // into the broker host, so it must never outlive the runtime's actors.
  std::unique_ptr<OpsPlane> ops_;
  // Submits hold it shared while they post and drive; stop() flips
  // stopped_ under it exclusively.
  std::shared_mutex lifecycle_mutex_;
  bool stopped_ = false;
};

}  // namespace tasklets::core

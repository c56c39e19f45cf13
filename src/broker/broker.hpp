// The Tasklet broker: the mediator between resource consumers and providers.
//
// Responsibilities (mirroring the paper's architecture):
//   * provider registry with capability records, liveness via heartbeats,
//     and observed-reliability tracking,
//   * matchmaking: QoC filtering + pluggable scheduling policy,
//   * tasklet lifecycle: queueing under contention, redundant replica
//     issue to distinct providers, majority voting over replica results,
//     re-issue on provider loss, deadline enforcement,
//   * result delivery to consumers with provenance (who executed, attempts,
//     fuel, latency).
//
// The broker is a pure protocol actor (proto/actor.hpp): deterministic given
// its inbox order, which both runtimes exploit.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "broker/pool_stats.hpp"
#include "broker/scheduling.hpp"
#include "broker/speed_estimator.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "proto/actor.hpp"
#include "store/blob_store.hpp"
#include "store/memo.hpp"

namespace tasklets::broker {

struct BrokerConfig {
  // Providers are expected to heartbeat at this cadence; the broker declares
  // a provider lost after `liveness_multiplier` missed beats.
  SimTime heartbeat_interval = 1 * kSecond;
  double liveness_multiplier = 3.5;
  // Cadence of the broker's liveness / deadline scan.
  SimTime scan_interval = 500 * kMillisecond;
  // A tasklet whose QoC constraints no registered provider can satisfy is
  // failed as unschedulable only after this grace period — providers may
  // still be registering (submission and registration race at startup).
  SimTime unschedulable_grace = 2 * kSecond;
  // Default per-attempt fuel limit handed to providers (0 = provider default).
  std::uint64_t default_max_fuel = 0;
  // Immediate provider rejections (no slot / offline) are re-placed under
  // this separate budget: unlike losses they cost nothing but a round trip,
  // so they should not burn the QoC re-issue budget.
  std::uint32_t max_rejections = 64;
  // How long a gracefully-draining provider gets to checkpoint and report
  // its in-flight work before the broker gives up and re-issues it.
  SimTime drain_grace = 10 * kSecond;
  // Per-provider effective-speed estimation (EWMA of fuel/s per completed
  // attempt). Always on — it is passive measurement; only the adaptive
  // policy and the defenses below consume it.
  SpeedEstimatorConfig speed_estimator;
  // Quantile-based straggler defense (MapReduce-style backup tasks): when
  // `straggler_multiplier` > 0, an attempt of a non-redundant tasklet older
  // than multiplier × the `straggler_quantile` of completed-attempt
  // durations gets one speculative backup on a different provider (the
  // first result wins); past twice that bound it is fenced (late result
  // ignored) and reassigned. The bound adapts to what the pool actually
  // needs, so it stays quiet on a uniformly slow pool and fires early on a
  // fast one. Engages only after `straggler_min_samples` completions —
  // before that the duration distribution is too thin.
  double straggler_multiplier = 0.0;
  double straggler_quantile = 0.95;
  std::size_t straggler_min_samples = 20;
  // Deadline admission control: reject a submission outright (as
  // unschedulable) when its QoC deadline cannot be met even by the fastest
  // admissible provider at measured speed. Only synthetic bodies carry a
  // known fuel requirement, so only they are ever rejected.
  bool admission_control = false;
  std::uint64_t rng_seed = 0x7A5CB0A7;
  // Span collector; nullptr disables tracing at the broker.
  TraceStore* trace = nullptr;

  // --- content-addressed store (protocol r3) ---------------------------------
  // Send digest-only AssignTasklet bodies to providers whose program cache
  // is known-warm (they pull the bytes on a miss). Off forces every assign
  // inline, as in r2.
  bool dedup_assign = true;
  // Byte budget for interned program blobs. Blobs referenced by live
  // tasklets are pinned and never evicted, even over budget.
  std::size_t blob_budget_bytes = 64u << 20;
  // Result memo table capacity ((program, args) entries).
  std::size_t memo_entries = 4096;

  // --- swarm scale (r5) -------------------------------------------------------
  // Concluded tasklets kept for duplicate-submit replay. 0 keeps every
  // terminal record forever (the historical behaviour); a bound evicts the
  // oldest terminal records FIFO, trading replay coverage for bounded
  // memory — million-tasklet benches set this. DAG-bound node tasklets are
  // never evicted this way (the DAG machinery owns their lifetime).
  std::size_t terminal_retention = 0;
};

// Aggregate counters for benches and monitoring.
struct BrokerStats {
  std::uint64_t tasklets_submitted = 0;
  std::uint64_t tasklets_completed = 0;
  std::uint64_t tasklets_failed = 0;       // deterministic traps
  std::uint64_t tasklets_exhausted = 0;    // re-issue budget spent
  std::uint64_t tasklets_deadline = 0;
  std::uint64_t tasklets_unschedulable = 0;
  std::uint64_t attempts_issued = 0;
  std::uint64_t attempts_ok = 0;
  std::uint64_t attempts_lost = 0;
  std::uint64_t reissues = 0;
  std::uint64_t votes_overruled = 0;  // replicas disagreeing with majority
  std::uint64_t providers_expired = 0;
  std::uint64_t max_queue_length = 0;
  std::uint64_t speculations = 0;       // backup attempts issued
  std::uint64_t speculation_wins = 0;   // tasklets whose backup finished first
  std::uint64_t migrations = 0;         // suspended attempts re-placed
  std::uint64_t duplicate_submits = 0;  // SubmitTasklet retransmits fenced
  std::uint64_t duplicate_results = 0;  // late/fenced AttemptResults ignored
  std::uint64_t attempts_reconciled = 0;  // omitted by two heartbeats, fenced
  std::uint64_t straggler_reassigns = 0;  // attempts fenced by the straggler bound
  std::uint64_t admission_rejected = 0;   // submits rejected as deadline-infeasible
  // Content-addressed store (r3).
  std::uint64_t memo_hits = 0;          // submissions answered from the memo
  std::uint64_t memo_inserts = 0;       // verified results stored
  std::uint64_t program_dedup_hits = 0; // DigestBody submits resolved locally
  std::uint64_t program_fetches = 0;    // FetchProgram sent to consumers
  std::uint64_t program_serves = 0;     // ProgramData served to providers
  std::uint64_t assigns_by_digest = 0;  // digest-only assignments sent
  std::uint64_t assign_bytes_saved = 0; // program bytes not re-shipped
  // Tasklet DAGs (r4).
  std::uint64_t dags_submitted = 0;
  std::uint64_t dags_completed = 0;
  std::uint64_t dags_failed = 0;            // incl. invalid specs
  std::uint64_t duplicate_dag_submits = 0;  // SubmitDag retransmits fenced
  std::uint64_t dag_nodes_executed = 0;     // completed via provider attempts
  std::uint64_t dag_nodes_memo = 0;         // Merkle subtree memo hits
  std::uint64_t dag_nodes_skipped = 0;      // upstream cones never demanded
  std::uint64_t dag_results_delegated = 0;  // results bound broker-side
  std::uint64_t dag_result_bytes_interned = 0;  // result blobs put in the store
};

class Broker final : public proto::Actor {
 public:
  Broker(NodeId id, std::unique_ptr<Scheduler> scheduler,
         BrokerConfig config = {});

  void on_start(SimTime now, proto::Outbox& out) override;
  void on_message(const proto::Envelope& envelope, SimTime now,
                  proto::Outbox& out) override;
  void on_timer(std::uint64_t timer_id, SimTime now, proto::Outbox& out) override;
  // Batched-tick hot path: while a runtime-delivered burst is open, queue
  // drains requested by individual handlers are deferred and coalesced into
  // one placement pass at on_batch_end.
  void on_batch_begin(SimTime now) override;
  void on_batch_end(SimTime now, proto::Outbox& out) override;

  [[nodiscard]] const BrokerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t queue_length() const noexcept { return pending_count_; }
  [[nodiscard]] std::size_t provider_count() const noexcept;
  [[nodiscard]] std::size_t online_provider_count() const noexcept;
  [[nodiscard]] const Scheduler& scheduler() const noexcept { return *scheduler_; }

  // Per-provider completed-attempt counts (utilisation / fairness metrics).
  [[nodiscard]] std::vector<std::pair<NodeId, std::uint64_t>> provider_completions() const;

  // Ops-plane introspection: a copy of every *online* provider's view with
  // busy_slots refreshed (id-sorted), and the pool aggregate over it. Both
  // are what the admin endpoint's `providers` command and the heterogeneity
  // gauges render.
  [[nodiscard]] std::vector<ProviderView> provider_views() const;
  [[nodiscard]] PoolStats pool_stats() const;

  // Speed-estimator introspection (tests, benches): the EWMA effective
  // fuel/s the broker measured for `provider` (0 if unknown / no samples)
  // and how many samples back it.
  [[nodiscard]] double measured_speed(NodeId provider) const noexcept;
  [[nodiscard]] std::uint64_t speed_samples(NodeId provider) const noexcept;
  // Completed-attempt durations feeding the straggler bound.
  [[nodiscard]] std::size_t completion_samples() const noexcept {
    return completions_.count();
  }

  // Content store introspection (tests, benches).
  [[nodiscard]] const store::BlobStore& blob_store() const noexcept {
    return blobs_;
  }
  [[nodiscard]] const store::MemoTable& memo_table() const noexcept {
    return memo_;
  }

 private:
  struct ProviderState {
    ProviderView view;
    SimTime last_heartbeat = 0;
    bool online = false;
    bool draining = false;       // graceful drain pending
    SimTime draining_since = 0;  // when the drain began
    // Registration epoch last acked (see proto::RegisterProvider). A
    // re-registration with the same non-zero incarnation is a retransmit,
    // not a restart.
    std::uint64_t incarnation = 0;
    std::unordered_set<AttemptId> inflight;
    // The in-flight attempts the last heartbeat omitted (ascending); a
    // second consecutive omission fences them (handle_heartbeat).
    std::vector<AttemptId> omitted;
    // Program digests this provider's cache is believed to hold (from
    // inline assignments and served fetches); FIFO-capped. Cleared when a
    // new incarnation registers — the cache died with the old process.
    std::unordered_set<store::Digest> warm;
    std::deque<store::Digest> warm_order;
    // Measured effective speed (EWMA over completed attempts). Kept across
    // re-registrations — the device restarted, but it is the same hardware.
    SpeedEstimator speed;
    // Lazily-bound per-provider metric handles: registry entries are
    // immortal, so caching the references here keeps the "broker.assigned.*"
    // / "broker.speed.*" name formatting off the per-attempt hot path.
    metrics::Counter* assigned_counter = nullptr;
    metrics::Gauge* speed_gauge = nullptr;
  };

  struct AttemptState {
    NodeId provider;
    SimTime issued_at = 0;
    // Tracing: this attempt's span id; the AssignTasklet's trace parent.
    std::uint64_t span = 0;
  };

  struct VoteEntry {
    tvm::HostArg result;
    std::uint64_t fuel = 0;
    std::uint64_t instructions = 0;
    std::uint32_t count = 0;
    NodeId first_provider;
  };

  struct TaskletState {
    proto::TaskletSpec spec;
    NodeId consumer;
    // Tracing context from the submit (trace id + consumer root span).
    TraceContext trace;
    SimTime submitted_at = 0;
    std::unordered_map<AttemptId, AttemptState> attempts;
    // Every provider that ever received an attempt for this tasklet:
    // soft-avoided on re-issue so retries and vote tie-breakers land on
    // fresh providers when any exist.
    std::unordered_set<NodeId> used_providers;
    std::vector<VoteEntry> votes;
    std::uint32_t attempts_total = 0;   // every attempt ever issued
    std::uint32_t replicas_pending = 0; // replicas still to be placed
    std::uint32_t reissues_used = 0;
    std::uint32_t rejections = 0;
    std::uint64_t fuel_total = 0;
    bool done = false;
    bool speculated = false;       // a backup replica was issued
    AttemptId speculative_attempt; // the backup (invalid until speculated)
    // Latest migration checkpoint: non-empty after a provider drained this
    // tasklet's execution; new attempts resume from it.
    Bytes resume_snapshot;
    // Content digests of the body (invalid for synthetic bodies). Computed
    // once at submission; key the blob pin, the memo table and the
    // warm-provider affinity signal.
    store::Digest program_digest;
    store::Digest args_digest;
    // The tasklet holds a pin on blobs_[program_digest] until it finishes.
    bool program_ref = false;
    // DigestBody submission whose program bytes are still being pulled from
    // the consumer; replicas are placed once ProgramData lands.
    bool awaiting_program = false;
    SimTime fetch_started = 0;
    // The terminal report, retained so a duplicate SubmitTasklet arriving
    // after conclusion replays it instead of re-running the tasklet (the
    // consumer's resubmission loop makes submission at-least-once).
    std::optional<proto::TaskletReport> final_report;
    // Set for broker-internal DAG node executions (r4): conclusions are
    // routed to the DAG executor instead of a consumer TaskletDone.
    DagId dag;
    std::uint32_t dag_node = 0;
  };

  // Per-node runtime state of an in-flight DAG.
  struct DagNodeRuntime {
    proto::DagNodeDisposition disposition = proto::DagNodeDisposition::kPending;
    bool demanded = false;          // some output transitively needs this node
    std::uint32_t waiting_inputs = 0;  // edges whose producer is not terminal
    TaskletId tasklet;              // internal tasklet id once released
    std::optional<proto::TaskletReport> report;
  };

  struct DagState {
    dag::DagSpec spec;              // bodies mutate as results are bound in
    NodeId consumer;
    TraceContext trace;
    SimTime submitted_at = 0;
    std::vector<std::uint32_t> topo;
    std::vector<store::Digest> programs;  // per-node program content digests
    std::vector<store::Digest> merkle;    // per-node Merkle digests
    std::vector<std::uint32_t> outputs;
    std::vector<DagNodeRuntime> nodes;
    std::uint32_t outstanding = 0;  // demanded non-memo nodes not yet terminal
    bool failed = false;
    bool done = false;
    // Retained terminal status: duplicate SubmitDag frames replay it.
    std::optional<proto::DagStatus> final_status;
  };

  static constexpr std::uint64_t kScanTimer = 1;
  static constexpr std::uint64_t kDeadlineTimerBit = 1ULL << 63;
  // Internal DAG node tasklets live in their own id namespace so they can
  // never collide with consumer-chosen tasklet ids (and stay clear of the
  // deadline-timer bit above).
  static constexpr std::uint64_t kDagNodeIdBit = 1ULL << 62;

  // --- message handlers -------------------------------------------------------
  void handle_register(NodeId from, const proto::RegisterProvider& m, SimTime now,
                       proto::Outbox& out);
  void handle_deregister(NodeId from, const proto::DeregisterProvider& m,
                         SimTime now, proto::Outbox& out);
  void handle_heartbeat(NodeId from, const proto::Heartbeat& m, SimTime now,
                        proto::Outbox& out);
  void handle_submit(NodeId from, const proto::SubmitTasklet& m, SimTime now,
                     proto::Outbox& out);
  void handle_cancel(const proto::CancelTasklet& m, SimTime now);
  void handle_attempt_result(NodeId from, const proto::AttemptResult& m,
                             SimTime now, proto::Outbox& out);
  // Provider pulling program bytes for a digest-only assignment.
  void handle_fetch_program(NodeId from, const proto::FetchProgram& m,
                            proto::Outbox& out);
  // Consumer answering our FetchProgram for a DigestBody submission.
  void handle_program_data(const proto::ProgramData& m, SimTime now,
                           proto::Outbox& out);

  // --- DAG execution (r4) -----------------------------------------------------
  // Validates, runs the Merkle demand pass (memo hits short-circuit whole
  // subtrees) and releases the initially-ready nodes.
  void handle_submit_dag(NodeId from, const proto::SubmitDag& m, SimTime now,
                         proto::Outbox& out);
  // Turns one demanded, fully-resolved node into an internal tasklet and
  // pushes it through the ordinary submission machinery (admission control,
  // deadline timer, memo probe, placement).
  void release_dag_node(DagId dag_id, DagState& dag, std::uint32_t node,
                        SimTime now, proto::Outbox& out);
  // finish() calls this for dag-bound tasklets instead of TaskletDone:
  // records the node's fate, delegates the result into dependents' argument
  // slots, releases newly-ready nodes and concludes the DAG when possible.
  void on_dag_node_done(TaskletState& state, const proto::TaskletReport& report,
                        SimTime now, proto::Outbox& out);
  // Marks a demanded node terminal without execution (demand-pass memo hit).
  void settle_dag_node_from_memo(DagId dag_id, DagState& dag, std::uint32_t node,
                                 const store::MemoEntry& entry, SimTime now);
  // Binds `result` into every demanded dependent of `node`; returns the
  // dependents that became ready.
  std::vector<std::uint32_t> bind_dag_result(DagState& dag, std::uint32_t node,
                                             const tvm::HostArg& result);
  void finish_dag(DagId id, DagState& dag, SimTime now, proto::Outbox& out);
  void dag_trace_instant(const DagState& dag, std::string name, SimTime now,
                         std::vector<std::pair<std::string, std::string>> args = {});

  // --- scheduling ---------------------------------------------------------------
  // Providers eligible for one more replica of `state` right now.
  [[nodiscard]] std::vector<ProviderView> eligible_providers(
      const TaskletState& state) const;
  // True if some registered provider could *ever* satisfy the QoC filter
  // (ignoring load/liveness) — otherwise the tasklet is unschedulable.
  [[nodiscard]] bool satisfiable(const TaskletState& state) const;
  [[nodiscard]] static bool qoc_admits(const TaskletState& state,
                                       const proto::Capability& capability);
  // Tries to place one replica; returns the new attempt id (invalid id on
  // failure: no eligible provider or the policy refused).
  AttemptId try_place_replica(TaskletId id, SimTime now, proto::Outbox& out);
  // Commits one placement decision: all the bookkeeping (attempt record,
  // slot claim, spans, AssignTasklet send) after a provider was chosen.
  AttemptId issue_attempt(TaskletId id, TaskletState& state, NodeId choice,
                          SimTime now, proto::Outbox& out);
  // Places queued replicas while capacity lasts.
  void drain_queue(SimTime now, proto::Outbox& out);
  // Deferred drain: inside a batch the request is latched and served once
  // at on_batch_end; outside a batch it drains immediately.
  void request_drain(SimTime now, proto::Outbox& out);
  // Batched fast path of drain_queue: snapshots the free-slot pool once,
  // collects the FIFO prefix of shape-neutral queued tasklets and places
  // them with one Scheduler::pick_batch call instead of one full
  // eligible-set rebuild per tasklet.
  void drain_queue_batched(SimTime now, proto::Outbox& out);
  // True when a queued tasklet's placement depends only on the pool, not on
  // per-spec state — the precondition for joining a batched placement pass.
  [[nodiscard]] bool batchable_shape(const TaskletState& state) const;
  void enqueue_replica(TaskletId id);

  // --- lifecycle ------------------------------------------------------------------
  void on_provider_lost(NodeId provider, SimTime now, proto::Outbox& out);
  // Why an attempt is fenced: picks its span status and counters.
  enum class Fence : std::uint8_t { kProviderLost, kStraggler, kReconciled };
  // Fences one outstanding attempt: frees its provider slot, drops it from
  // the attempt index and its tasklet (a late result then counts as a
  // duplicate), closes its span and re-issues the tasklet unless it has
  // concluded or, for a straggler, its speculative backup still runs.
  void fence_attempt(AttemptId attempt, Fence cause, SimTime now,
                     proto::Outbox& out);
  void record_vote(TaskletState& state, const proto::AttemptOutcome& outcome,
                   NodeId provider);
  // Checks whether voting has concluded; completes the tasklet if so.
  void maybe_conclude(TaskletId id, TaskletState& state, SimTime now,
                      proto::Outbox& out);
  void fail_tasklet(TaskletId id, TaskletState& state, proto::TaskletStatus status,
                    std::string error, SimTime now, proto::Outbox& out);
  void complete_tasklet(TaskletId id, TaskletState& state, const VoteEntry& winner,
                        SimTime now, proto::Outbox& out);
  void finish(TaskletId id, TaskletState& state, proto::TaskletReport report,
              proto::Outbox& out);
  // Shared lost-attempt recovery: burn one re-issue if the budget allows,
  // else fail kExhausted once nothing else is outstanding.
  void reissue_or_exhaust(TaskletId id, TaskletState& state, SimTime now,
                          proto::Outbox& out);
  // Measurement half of the feedback loop: fold one completed attempt
  // (fuel over elapsed) into the provider's speed estimate and the
  // pool-wide completion-duration distribution.
  void record_speed_sample(NodeId provider, std::uint64_t fuel, SimTime elapsed);
  // Straggler defense (scan-timer): speculate on attempts past the
  // quantile bound, fence + reassign those past twice the bound.
  void defend_stragglers(SimTime now, proto::Outbox& out);
  // Pool signals (scan-timer): recompute the heterogeneity score policies
  // see in SchedulingContext and publish the pool/health gauges.
  void refresh_pool_signals();
  // Deadline admission control; true when the submit was rejected.
  bool admission_rejects(TaskletId id, TaskletState& state, SimTime now,
                         proto::Outbox& out);

  [[nodiscard]] std::uint32_t majority_threshold(const TaskletState& state) const;

  // --- content store (r3) -----------------------------------------------------
  // Computes digests, interns/pins program bytes, answers from the memo
  // table. Returns true if the submission concluded (memo hit) or parked
  // (program fetch pending) — i.e. no replicas should be placed yet.
  bool resolve_body(TaskletId id, TaskletState& state, SimTime now,
                    proto::Outbox& out);
  // Builds the assignment body for one attempt: digest-only for warm
  // providers when dedup_assign allows, inline otherwise (marking the
  // provider warm).
  [[nodiscard]] proto::TaskletBody make_assign_body(const TaskletState& state,
                                                    ProviderState& provider);
  void mark_warm(ProviderState& provider, const store::Digest& digest);
  void release_program_ref(TaskletState& state);
  // Answers a repeat submission from the memo table; true on a hit.
  bool try_memo_hit(TaskletId id, TaskletState& state, SimTime now,
                    proto::Outbox& out);
  // Releases tasklets parked on `digest` once its bytes are resident: binds
  // the pin and places replicas. `deduped` marks the waiters as dedup hits
  // (the blob arrived via another submission's inline bytes, so these
  // submissions never re-shipped the program).
  void unpark_waiters(const store::Digest& digest, bool deduped, SimTime now,
                      proto::Outbox& out);

  // --- tracing helpers (no-ops when config_.trace is null or the submit
  // carried no context) -------------------------------------------------------
  void trace_instant(const TaskletState& state, std::string name, TaskletId id,
                     SimTime now,
                     std::vector<std::pair<std::string, std::string>> args = {});
  // Closes an attempt's complete span (issue -> result/fence). No-op for an
  // already-closed attempt (span id 0).
  void end_attempt_span(const TaskletState& state, TaskletId id,
                        const AttemptState& attempt, SimTime now,
                        std::string_view status);
  // At conclusion (finish / cancel): closes still-outstanding attempt spans
  // as "abandoned" and, for tasklets that never reached placement, emits the
  // queue span so their wait is attributed rather than undercounted.
  void close_open_spans(TaskletState& state, TaskletId id, SimTime now);

  std::unique_ptr<Scheduler> scheduler_;
  BrokerConfig config_;
  BrokerStats stats_;
  Rng rng_;
  IdGenerator<AttemptId> attempt_ids_;
  std::unordered_map<NodeId, ProviderState> providers_;
  std::unordered_map<TaskletId, TaskletState> tasklets_;
  std::unordered_map<AttemptId, TaskletId> attempt_index_;
  // Unplaced replicas, bucketed by QoC priority class (highest first; FIFO
  // within a class). One entry per replica.
  std::map<std::uint8_t, std::deque<TaskletId>, std::greater<>> pending_;
  std::size_t pending_count_ = 0;
  // Content-addressed store (r3): interned program blobs, memoized results,
  // and submissions parked on a pending program fetch.
  store::BlobStore blobs_;
  store::MemoTable memo_;
  std::unordered_map<store::Digest, std::vector<TaskletId>> awaiting_program_;
  // In-flight and concluded DAGs (r4), plus the id source for their
  // internal node tasklets (namespaced with kDagNodeIdBit).
  std::unordered_map<DagId, DagState> dags_;
  std::uint64_t next_dag_node_seq_ = 1;
  // Pool-wide completed-attempt durations (straggler bound input).
  CompletionTracker completions_;
  // Heterogeneity score cached on the scan cadence — placement happens per
  // message, so the O(providers) aggregate is not recomputed per attempt.
  double pool_heterogeneity_ = 0.0;
  // Batched-tick state: while batching_ is true (runtime delivered a burst),
  // handler-requested queue drains only latch need_drain_; on_batch_end runs
  // the single deferred drain. batch_messages_ feeds the broker.batch.size
  // histogram.
  bool batching_ = false;
  bool need_drain_ = false;
  std::uint32_t batch_messages_ = 0;
  // Scratch buffers reused across drain_queue_batched calls (capacity
  // persists; cleared per pass).
  std::vector<ProviderView> batch_snapshot_;
  std::vector<NodeId> batch_choices_;
  std::vector<TaskletId> batch_ids_;
  // FIFO of concluded tasklet ids backing config_.terminal_retention.
  std::deque<TaskletId> terminal_order_;
};

}  // namespace tasklets::broker

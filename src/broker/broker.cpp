#include "broker/broker.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/metrics.hpp"

namespace tasklets::broker {

namespace {
constexpr std::string_view kLog = "broker";
// EWMA factor for observed provider reliability.
constexpr double kReliabilityAlpha = 0.2;
// Deadline admission control inflates the predicted runtime by this factor
// to cover queueing and transfer.
constexpr double kAdmissionSafety = 1.25;
// Per-provider warm-digest history the affinity scheduling tracks.
constexpr std::size_t kWarmEntriesPerProvider = 256;
// A DigestBody submission whose program cannot be fetched from its consumer
// within this grace fails kExhausted.
constexpr SimTime kProgramFetchGrace = 10 * kSecond;
}  // namespace

void Broker::trace_instant(const TaskletState& state, std::string name,
                           TaskletId id, SimTime now,
                           std::vector<std::pair<std::string, std::string>> args) {
  if (config_.trace == nullptr || !state.trace.active()) return;
  config_.trace->instant(state.trace, std::move(name), this->id(), id, now,
                         std::move(args));
}

void Broker::end_attempt_span(const TaskletState& state, TaskletId id,
                              const AttemptState& attempt, SimTime now,
                              std::string_view status) {
  if (config_.trace == nullptr || !state.trace.active()) return;
  // span 0 means already closed (close_open_spans at conclusion) — a late
  // result for it must not emit the span twice.
  if (attempt.span == 0) return;
  Span span;
  span.trace_id = state.trace.trace_id;
  span.span_id = attempt.span;
  span.parent_span = state.trace.parent_span;
  span.name = "attempt";
  span.node = this->id();
  span.tasklet = id;
  span.start = attempt.issued_at;
  span.end = now;
  span.args.emplace_back("provider", attempt.provider.to_string());
  span.args.emplace_back("status", std::string(status));
  config_.trace->add(std::move(span));
}

void Broker::close_open_spans(TaskletState& state, TaskletId id, SimTime now) {
  if (config_.trace == nullptr || !state.trace.active()) return;
  // A tasklet can conclude while attempts are still outstanding (fences,
  // cancels, speculative losers, results that never arrive). Close their
  // spans as "abandoned" so phase attribution sees that wall time instead of
  // undercounting it; zeroing the stored span id keeps a late result from
  // emitting the span twice.
  for (auto& [attempt_id, attempt] : state.attempts) {
    if (attempt.span == 0) continue;
    end_attempt_span(state, id, attempt, now, "abandoned");
    attempt.span = 0;
  }
  if (state.attempts_total == 0) {
    // Never placed (admission reject, unschedulable, failed program fetch,
    // memo hit): the queue span from try_place_replica never happened, so
    // account the queue wait here, submission to conclusion.
    Span queue_span;
    queue_span.trace_id = state.trace.trace_id;
    queue_span.parent_span = state.trace.parent_span;
    queue_span.name = "queue";
    queue_span.node = this->id();
    queue_span.tasklet = id;
    queue_span.start = state.submitted_at;
    queue_span.end = now;
    config_.trace->add(std::move(queue_span));
  }
}

Broker::Broker(NodeId id, std::unique_ptr<Scheduler> scheduler, BrokerConfig config)
    : Actor(id),
      scheduler_(std::move(scheduler)),
      config_(config),
      rng_(config.rng_seed),
      blobs_(config.blob_budget_bytes),
      memo_(config.memo_entries) {}

void Broker::on_start(SimTime, proto::Outbox& out) {
  out.arm_timer(kScanTimer, config_.scan_interval);
}

std::size_t Broker::provider_count() const noexcept { return providers_.size(); }

std::size_t Broker::online_provider_count() const noexcept {
  std::size_t n = 0;
  for (const auto& [id, p] : providers_) {
    if (p.online) ++n;
  }
  return n;
}

std::vector<std::pair<NodeId, std::uint64_t>> Broker::provider_completions() const {
  std::vector<std::pair<NodeId, std::uint64_t>> out;
  out.reserve(providers_.size());
  for (const auto& [id, p] : providers_) {
    out.emplace_back(id, p.view.completed);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ProviderView> Broker::provider_views() const {
  std::vector<ProviderView> views;
  views.reserve(providers_.size());
  for (const auto& [id, p] : providers_) {
    if (!p.online) continue;
    ProviderView view = p.view;
    view.busy_slots = static_cast<std::uint32_t>(p.inflight.size());
    views.push_back(std::move(view));
  }
  std::sort(views.begin(), views.end(),
            [](const ProviderView& a, const ProviderView& b) {
              return a.id < b.id;
            });
  return views;
}

PoolStats Broker::pool_stats() const {
  return compute_pool_stats(provider_views());
}

void Broker::refresh_pool_signals() {
  const PoolStats pool = pool_stats();
  pool_heterogeneity_ = pool.heterogeneity;
  if (!metrics::enabled()) return;
  auto& registry = metrics::MetricsRegistry::instance();
  registry.gauge("broker.pool.heterogeneity")
      .set(static_cast<std::int64_t>(pool.heterogeneity * 1e6));
  registry.gauge("broker.pool.online")
      .set(static_cast<std::int64_t>(pool.providers));
  registry.gauge("broker.pool.confident")
      .set(static_cast<std::int64_t>(pool.confident));
  registry.gauge("broker.pool.mean_speed")
      .set(static_cast<std::int64_t>(pool.mean_speed));
  for (const auto& [id, p] : providers_) {
    if (!p.online) continue;
    // Per-provider health gauge (dynamic name, so no macro cache).
    registry.gauge("broker.health." + id.to_string())
        .set(static_cast<std::int64_t>(health_score(p.view) * 1e6));
  }
}

double Broker::measured_speed(NodeId provider) const noexcept {
  const auto it = providers_.find(provider);
  return it != providers_.end() ? it->second.speed.estimate() : 0.0;
}

std::uint64_t Broker::speed_samples(NodeId provider) const noexcept {
  const auto it = providers_.find(provider);
  return it != providers_.end() ? it->second.speed.samples() : 0;
}

void Broker::record_speed_sample(NodeId provider, std::uint64_t fuel,
                                 SimTime elapsed) {
  const auto it = providers_.find(provider);
  if (it == providers_.end()) return;
  ProviderState& p = it->second;
  p.speed.record(static_cast<double>(fuel), to_seconds(elapsed));
  completions_.record(elapsed);
  // Publish into the policy-visible view only once confident — until then
  // ProviderView::effective_speed() keeps returning the advertised score.
  p.view.speed_samples = p.speed.samples();
  p.view.measured_speed_fuel_per_sec =
      p.speed.confident() ? p.speed.estimate() : 0.0;
  if (metrics::enabled()) {
    // Per-provider estimator gauge; reference bound once (see
    // issue_attempt's assigned counter for the rationale).
    if (p.speed_gauge == nullptr) {
      p.speed_gauge = &metrics::MetricsRegistry::instance().gauge(
          "broker.speed." + provider.to_string());
    }
    p.speed_gauge->set(static_cast<std::int64_t>(p.speed.estimate()));
  }
}

void Broker::on_batch_begin(SimTime) {
  batching_ = true;
  need_drain_ = false;
  batch_messages_ = 0;
}

void Broker::on_batch_end(SimTime now, proto::Outbox& out) {
  batching_ = false;
  TASKLETS_OBSERVE("broker.batch.size", static_cast<double>(batch_messages_));
  batch_messages_ = 0;
  if (need_drain_) {
    need_drain_ = false;
    drain_queue(now, out);
  }
}

void Broker::request_drain(SimTime now, proto::Outbox& out) {
  // Inside a runtime-delivered burst the drain is deferred to on_batch_end:
  // one placement pass serves the whole burst instead of one pass per
  // register/heartbeat/result message.
  if (batching_) {
    need_drain_ = true;
    return;
  }
  drain_queue(now, out);
}

void Broker::on_message(const proto::Envelope& envelope, SimTime now,
                        proto::Outbox& out) {
  if (batching_) ++batch_messages_;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::RegisterProvider>) {
          handle_register(envelope.from, m, now, out);
        } else if constexpr (std::is_same_v<T, proto::DeregisterProvider>) {
          handle_deregister(envelope.from, m, now, out);
        } else if constexpr (std::is_same_v<T, proto::Heartbeat>) {
          handle_heartbeat(envelope.from, m, now, out);
        } else if constexpr (std::is_same_v<T, proto::SubmitTasklet>) {
          handle_submit(envelope.from, m, now, out);
        } else if constexpr (std::is_same_v<T, proto::CancelTasklet>) {
          handle_cancel(m, now);
        } else if constexpr (std::is_same_v<T, proto::AttemptResult>) {
          handle_attempt_result(envelope.from, m, now, out);
        } else if constexpr (std::is_same_v<T, proto::FetchProgram>) {
          handle_fetch_program(envelope.from, m, out);
        } else if constexpr (std::is_same_v<T, proto::ProgramData>) {
          handle_program_data(m, now, out);
        } else if constexpr (std::is_same_v<T, proto::SubmitDag>) {
          handle_submit_dag(envelope.from, m, now, out);
        } else {
          TASKLETS_LOG(kWarn, kLog)
              << "unexpected message " << proto::message_name(envelope.payload);
        }
      },
      envelope.payload);
}

void Broker::on_timer(std::uint64_t timer_id, SimTime now, proto::Outbox& out) {
  if (timer_id == kScanTimer) {
    // Liveness scan: expire providers whose heartbeat is stale.
    const auto deadline_age = static_cast<SimTime>(
        config_.liveness_multiplier *
        static_cast<double>(config_.heartbeat_interval));
    std::vector<NodeId> expired;
    for (const auto& [id, p] : providers_) {
      if (p.online && now - p.last_heartbeat > deadline_age) {
        expired.push_back(id);
      }
    }
    for (const NodeId id : expired) {
      TASKLETS_LOG(kInfo, kLog) << "provider " << id.to_string() << " expired";
      ++stats_.providers_expired;
      on_provider_lost(id, now, out);
    }
    // Draining providers whose grace ran out: re-issue what never arrived.
    std::vector<NodeId> drain_expired;
    for (const auto& [id, p] : providers_) {
      if (p.draining && !p.inflight.empty() &&
          now - p.draining_since > config_.drain_grace) {
        drain_expired.push_back(id);
      }
    }
    for (const NodeId id : drain_expired) {
      TASKLETS_LOG(kWarn, kLog) << "provider " << id.to_string()
                                << " drain grace expired";
      on_provider_lost(id, now, out);
    }
    // Unschedulability check: queued tasklets past the grace period whose
    // QoC filter no registered provider can ever satisfy.
    std::vector<TaskletId> doomed;
    for (const auto& [priority, queue] : pending_) {
      for (const TaskletId id : queue) {
        const auto it = tasklets_.find(id);
        if (it == tasklets_.end() || it->second.done) continue;
        if (now - it->second.submitted_at < config_.unschedulable_grace) continue;
        if (!satisfiable(it->second)) doomed.push_back(id);
      }
    }
    for (const TaskletId id : doomed) {
      const auto tit = tasklets_.find(id);
      if (tit == tasklets_.end()) continue;  // evicted mid-loop
      auto& state = tit->second;
      if (state.done) continue;  // duplicate queue entries
      ++stats_.tasklets_unschedulable;
      fail_tasklet(id, state, proto::TaskletStatus::kUnschedulable,
                   "no registered provider satisfies the QoC constraints", now,
                   out);
    }
    // Adaptive straggler defense: the threshold is a quantile of *measured*
    // completion durations, not a fixed knob.
    if (config_.straggler_multiplier > 0) defend_stragglers(now, out);
    // Pool signals: heterogeneity score + per-provider health gauges, on the
    // same cadence as everything else derived from measurement.
    refresh_pool_signals();
    // Program fetches (r3): FetchProgram to the consumer is at-least-once —
    // re-send on the scan cadence for submissions still parked, and fail
    // those past the fetch grace (the consumer is gone or keeps losing
    // frames; without the bytes the tasklet can never run).
    if (!awaiting_program_.empty()) {
      std::vector<TaskletId> fetch_failed;
      for (auto it = awaiting_program_.begin();
           it != awaiting_program_.end();) {
        auto& waiting = it->second;
        std::erase_if(waiting, [&](TaskletId id) {
          const auto tit = tasklets_.find(id);
          return tit == tasklets_.end() || tit->second.done ||
                 !tit->second.awaiting_program;
        });
        NodeId refetch_consumer;
        for (const TaskletId id : waiting) {
          const TaskletState& state = tasklets_.at(id);
          if (now - state.fetch_started > kProgramFetchGrace) {
            fetch_failed.push_back(id);
          } else {
            refetch_consumer = state.consumer;
          }
        }
        if (refetch_consumer.valid()) {
          ++stats_.program_fetches;
          TASKLETS_COUNT("broker.store.program_fetches", 1);
          out.send(refetch_consumer, proto::FetchProgram{it->first});
        }
        it = waiting.empty() ? awaiting_program_.erase(it) : ++it;
      }
      for (const TaskletId id : fetch_failed) {
        const auto tit = tasklets_.find(id);
        if (tit == tasklets_.end()) continue;  // evicted mid-loop
        auto& state = tit->second;
        if (state.done) continue;
        state.awaiting_program = false;
        ++stats_.tasklets_exhausted;
        fail_tasklet(id, state, proto::TaskletStatus::kExhausted,
                     "program fetch failed", now, out);
      }
    }
    out.arm_timer(kScanTimer, config_.scan_interval);
    return;
  }
  if ((timer_id & kDeadlineTimerBit) != 0) {
    const TaskletId id{timer_id & ~kDeadlineTimerBit};
    const auto it = tasklets_.find(id);
    if (it == tasklets_.end() || it->second.done) return;
    ++stats_.tasklets_deadline;
    fail_tasklet(id, it->second, proto::TaskletStatus::kDeadlineExceeded,
                 "QoC deadline elapsed", now, out);
  }
}

// --- registry ---------------------------------------------------------------------

void Broker::handle_register(NodeId from, const proto::RegisterProvider& m,
                             SimTime now, proto::Outbox& out) {
  ProviderState& p = providers_[from];
  const bool rejoin = p.view.id.valid();
  if (rejoin && m.incarnation != 0 && m.incarnation == p.incarnation) {
    // Retransmit of an already-acked registration (the provider re-sends
    // until our ack gets through): refresh liveness, re-ack, and leave
    // in-flight work alone — this is NOT a restart.
    p.last_heartbeat = now;
    p.online = true;
    p.draining = false;
    out.send(from, proto::RegisterAck{m.incarnation});
    request_drain(now, out);
    return;
  }
  if (rejoin && !p.inflight.empty()) {
    // A (re-)registration under a new incarnation means the provider
    // restarted: anything the broker still thinks is running there died
    // with the previous incarnation.
    on_provider_lost(from, now, out);
  }
  if (rejoin) {
    // The program cache died with the old process: forget the warm set so
    // affinity scheduling doesn't send digests the provider cannot resolve.
    p.warm.clear();
    p.warm_order.clear();
  }
  p.view.id = from;
  p.view.capability = m.capability;
  p.last_heartbeat = now;
  p.online = true;
  p.draining = false;
  if (!rejoin) {
    p.view.observed_reliability = 1.0;
    p.speed = SpeedEstimator(config_.speed_estimator);
  }
  p.incarnation = m.incarnation;
  out.send(from, proto::RegisterAck{m.incarnation});
  TASKLETS_LOG(kInfo, kLog) << "provider " << from.to_string() << " registered ("
                            << proto::to_string(m.capability.device_class) << ", "
                            << m.capability.speed_fuel_per_sec / 1e6 << " Mfuel/s, "
                            << m.capability.slots << " slots)";
  request_drain(now, out);
}

void Broker::handle_deregister(NodeId from, const proto::DeregisterProvider& m,
                               SimTime now, proto::Outbox& out) {
  const auto it = providers_.find(from);
  if (it == providers_.end()) return;
  if (m.draining && !it->second.inflight.empty()) {
    // Graceful drain: no new assignments, but give the provider a grace
    // window to checkpoint and report its in-flight work as suspended (the
    // migration path). The liveness scan re-issues whatever is still
    // outstanding when the grace expires.
    it->second.online = false;
    it->second.draining = true;
    it->second.draining_since = now;
    return;
  }
  on_provider_lost(from, now, out);
}

void Broker::handle_heartbeat(NodeId from, const proto::Heartbeat& m,
                              SimTime now, proto::Outbox& out) {
  const auto it = providers_.find(from);
  if (it == providers_.end()) {
    // Heartbeat from an unknown node: it must (re)register first; ignore.
    return;
  }
  ProviderState& p = it->second;
  p.last_heartbeat = now;
  // A heartbeat from an expired provider revives it (it never actually
  // left, the network hiccuped). Its previous in-flight work was already
  // re-issued; it simply offers capacity again.
  p.online = true;
  // Reconciliation (r5): the beat lists every attempt the provider holds.
  // One omission can be a beat that overtook the assign or the result; a
  // second consecutive one means that frame was lost.
  std::vector<AttemptId> omitted;
  std::vector<AttemptId> lost;
  for (const AttemptId attempt : p.inflight) {
    if (std::binary_search(m.attempts.begin(), m.attempts.end(), attempt)) {
      continue;
    }
    const bool again =
        std::binary_search(p.omitted.begin(), p.omitted.end(), attempt);
    (again ? lost : omitted).push_back(attempt);
  }
  std::sort(omitted.begin(), omitted.end());
  p.omitted = std::move(omitted);
  std::sort(lost.begin(), lost.end());
  for (const AttemptId attempt : lost) {
    fence_attempt(attempt, Fence::kReconciled, now, out);
  }
  request_drain(now, out);
}

// --- submission & scheduling ----------------------------------------------------

void Broker::handle_submit(NodeId from, const proto::SubmitTasklet& m, SimTime now,
                           proto::Outbox& out) {
  const TaskletId id = m.spec.id;
  if (const auto it = tasklets_.find(id); it != tasklets_.end()) {
    // Submission is at-least-once from the consumer's side. A retransmit of
    // a tasklet still in progress is dropped; one for a concluded tasklet
    // replays the retained terminal report (the original TaskletDone may
    // have been lost).
    ++stats_.duplicate_submits;
    TASKLETS_COUNT("broker.duplicate_submits", 1);
    if (it->second.done && it->second.final_report.has_value()) {
      out.send(from, proto::TaskletDone{*it->second.final_report});
    }
    return;
  }
  ++stats_.tasklets_submitted;
  TASKLETS_COUNT("broker.submitted", 1);
  TaskletState& state = tasklets_[id];
  state.spec = m.spec;
  state.consumer = from;
  state.trace = m.trace;
  state.submitted_at = now;
  state.replicas_pending = std::max<std::uint32_t>(1, m.spec.qoc.redundancy);

  // Deadline admission control: refuse work the measured pool provably
  // cannot finish in time, before it occupies a slot or the queue.
  if (admission_rejects(id, state, now, out)) return;
  // Unsatisfiable tasklets queue rather than fail: providers may still be
  // registering. The scan timer declares them unschedulable after the grace
  // period (see on_timer).
  if (m.spec.qoc.deadline > 0) {
    out.arm_timer(kDeadlineTimerBit | id.value(), m.spec.qoc.deadline);
  }
  // Content store (r3): digest the body, answer from the memo, intern the
  // program. A memo hit concluded the tasklet; a DigestBody with unknown
  // bytes is parked until the consumer answers our FetchProgram.
  if (resolve_body(id, state, now, out)) return;
  if (batching_) {
    // Submit burst: defer placement to the single drain at on_batch_end —
    // queueing is O(1) here, and the batched drain places the whole burst
    // with one pool snapshot instead of one per submission.
    for (std::uint32_t i = 0; i < tasklets_.at(id).replicas_pending; ++i) {
      enqueue_replica(id);
    }
    need_drain_ = true;
    return;
  }
  while (state.replicas_pending > 0 && try_place_replica(id, now, out).valid()) {
  }
  for (std::uint32_t i = 0; i < tasklets_.at(id).replicas_pending; ++i) {
    enqueue_replica(id);
  }
}

void Broker::handle_cancel(const proto::CancelTasklet& m, SimTime now) {
  const auto it = tasklets_.find(m.tasklet);
  if (it == tasklets_.end() || it->second.done) return;
  // Mark done; in-flight results will be ignored, queued replicas skipped.
  it->second.done = true;
  close_open_spans(it->second, m.tasklet, now);
  release_program_ref(it->second);
}

// Whether a provider's static capability satisfies the tasklet's QoC filter
// (locality and cost); liveness and load are checked separately.
bool Broker::qoc_admits(const TaskletState& state,
                        const proto::Capability& capability) {
  const auto& qoc = state.spec.qoc;
  const auto& origin = state.spec.origin_locality;
  const auto& tag = capability.locality;
  if (qoc.locality == proto::Locality::kLocalOnly &&
      (origin.empty() || tag != origin)) {
    return false;
  }
  if (qoc.locality == proto::Locality::kRemoteOnly && !origin.empty() &&
      tag == origin) {
    return false;
  }
  if (qoc.cost_ceiling > 0.0 && capability.cost_per_gfuel > qoc.cost_ceiling) {
    return false;
  }
  return true;
}

bool Broker::satisfiable(const TaskletState& state) const {
  for (const auto& [id, p] : providers_) {
    if (qoc_admits(state, p.view.capability)) return true;
  }
  return false;
}

std::vector<ProviderView> Broker::eligible_providers(const TaskletState& state) const {
  std::vector<ProviderView> eligible;
  for (const auto& [id, p] : providers_) {
    if (!p.online) continue;
    if (p.inflight.size() >= p.view.capability.slots) continue;
    if (!qoc_admits(state, p.view.capability)) continue;
    // Hard rule: concurrent replicas never share a provider.
    bool inflight_here = false;
    for (const auto& [attempt_id, attempt] : state.attempts) {
      if (attempt.provider == id) {
        inflight_here = true;
        break;
      }
    }
    if (inflight_here) continue;
    ProviderView view = p.view;
    view.busy_slots = static_cast<std::uint32_t>(p.inflight.size());
    // Cache affinity: only meaningful when digest assignment is on — with it
    // off every assign ships the full program anyway.
    view.warm = config_.dedup_assign && state.program_digest.valid() &&
                p.warm.contains(state.program_digest);
    eligible.push_back(std::move(view));
  }
  // Soft rule: prefer providers this tasklet has never touched — retries
  // after rejection/loss and vote tie-breakers should land on fresh
  // providers whenever any exist.
  std::vector<ProviderView> fresh;
  for (const auto& view : eligible) {
    if (!state.used_providers.contains(view.id)) fresh.push_back(view);
  }
  if (!fresh.empty()) eligible = std::move(fresh);
  // Deterministic order for the policies (unordered_map iteration is not).
  std::sort(eligible.begin(), eligible.end(),
            [](const ProviderView& a, const ProviderView& b) { return a.id < b.id; });
  return eligible;
}

AttemptId Broker::try_place_replica(TaskletId id, SimTime now, proto::Outbox& out) {
  TaskletState& state = tasklets_.at(id);
  if (state.done || state.replicas_pending == 0) return AttemptId{};
  const auto eligible = eligible_providers(state);
  if (eligible.empty()) return AttemptId{};
  SchedulingContext context;
  context.eligible = eligible;
  context.pool_heterogeneity = pool_heterogeneity_;
  // Baseline for selective policies: the fastest *online and QoC-admissible*
  // provider — waiting for a fast slot the filter excludes would be futile.
  for (const auto& [pid, p] : providers_) {
    if (p.online && qoc_admits(state, p.view.capability)) {
      context.best_online_speed = std::max(context.best_online_speed,
                                           p.view.capability.speed_fuel_per_sec);
      context.best_online_effective_speed = std::max(
          context.best_online_effective_speed, p.view.effective_speed());
    }
  }
  const NodeId choice = scheduler_->pick(state.spec, context, rng_);
  if (!choice.valid()) return AttemptId{};  // policy refused; stays queued
  return issue_attempt(id, state, choice, now, out);
}

AttemptId Broker::issue_attempt(TaskletId id, TaskletState& state, NodeId choice,
                                SimTime now, proto::Outbox& out) {
  ProviderState& provider = providers_.at(choice);
  const AttemptId attempt = attempt_ids_.next();
  const bool tracing = config_.trace != nullptr && state.trace.active();
  AttemptState attempt_state{choice, now, tracing ? next_span_id() : 0};
  if (tracing) {
    if (state.attempts_total == 0) {
      // Queue wait: submission to the moment the first attempt is placed.
      Span queue_span;
      queue_span.trace_id = state.trace.trace_id;
      queue_span.parent_span = state.trace.parent_span;
      queue_span.name = "queue";
      queue_span.node = this->id();
      queue_span.tasklet = id;
      queue_span.start = state.submitted_at;
      queue_span.end = now;
      config_.trace->add(std::move(queue_span));
    }
    trace_instant(state, "schedule", id, now,
                  {{"provider", choice.to_string()},
                   {"attempt", attempt.to_string()}});
  }
  provider.inflight.insert(attempt);
  state.attempts.emplace(attempt, attempt_state);
  state.used_providers.insert(choice);
  state.attempts_total += 1;
  state.replicas_pending -= 1;
  attempt_index_.emplace(attempt, id);
  ++stats_.attempts_issued;
  TASKLETS_COUNT("broker.attempts_issued", 1);
  if (metrics::enabled()) {
    // Per-provider assignment counts. The registry entry is immortal, so
    // the reference is bound once per provider and the name is formatted
    // once, not per attempt.
    if (provider.assigned_counter == nullptr) {
      provider.assigned_counter = &metrics::MetricsRegistry::instance().counter(
          "broker.assigned." + choice.to_string());
    }
    provider.assigned_counter->inc();
  }

  proto::AssignTasklet assign;
  assign.attempt = attempt;
  assign.tasklet = id;
  assign.body = make_assign_body(state, provider);
  assign.max_fuel = config_.default_max_fuel;
  // Migrated work resumes from the latest checkpoint (single-replica only;
  // redundant tasklets never migrate, so this stays empty for them).
  assign.resume_snapshot = state.resume_snapshot;
  // The attempt span is the parent of everything the provider records.
  assign.trace = TraceContext{state.trace.trace_id, attempt_state.span};
  out.send(choice, std::move(assign));
  return attempt;
}

void Broker::enqueue_replica(TaskletId id) {
  const std::uint8_t priority = tasklets_.at(id).spec.qoc.priority;
  pending_[priority].push_back(id);
  ++pending_count_;
  stats_.max_queue_length =
      std::max<std::uint64_t>(stats_.max_queue_length, pending_count_);
  TASKLETS_GAUGE_SET("broker.queue_depth",
                     static_cast<std::int64_t>(pending_count_));
}

bool Broker::batchable_shape(const TaskletState& state) const {
  // A tasklet joins a batched placement pass only when nothing about it
  // individualises the decision: no prior attempts (no used-provider
  // exclusions), no locality/cost filter, no redundancy or speed goal (the
  // batch scorer is goal-neutral), no migration snapshot, and no program
  // digest when digest affinity is on (warm-provider preference is
  // per-tasklet state).
  const auto& qoc = state.spec.qoc;
  return state.attempts.empty() && state.used_providers.empty() &&
         state.resume_snapshot.empty() &&
         qoc.locality == proto::Locality::kAny && qoc.cost_ceiling <= 0.0 &&
         qoc.redundancy <= 1 && qoc.speed == proto::SpeedGoal::kNone &&
         !(config_.dedup_assign && state.program_digest.valid());
}

void Broker::drain_queue_batched(SimTime now, proto::Outbox& out) {
  // One pool snapshot for the whole pass instead of one eligible-set
  // rebuild per queued tasklet: O(P log P + B log P) for a burst of B
  // instead of O(B * P).
  batch_snapshot_.clear();
  SchedulingContext context;
  context.pool_heterogeneity = pool_heterogeneity_;
  std::size_t free_slots = 0;
  for (const auto& [pid, p] : providers_) {
    if (!p.online) continue;
    context.best_online_speed = std::max(context.best_online_speed,
                                         p.view.capability.speed_fuel_per_sec);
    context.best_online_effective_speed =
        std::max(context.best_online_effective_speed, p.view.effective_speed());
    const std::size_t busy = p.inflight.size();
    if (busy >= p.view.capability.slots) continue;
    free_slots += p.view.capability.slots - busy;
    ProviderView view = p.view;
    view.busy_slots = static_cast<std::uint32_t>(busy);
    view.warm = false;  // batchable tasklets carry no digest affinity
    batch_snapshot_.push_back(std::move(view));
  }
  if (batch_snapshot_.empty()) return;
  std::sort(
      batch_snapshot_.begin(), batch_snapshot_.end(),
      [](const ProviderView& a, const ProviderView& b) { return a.id < b.id; });

  // The FIFO prefix of shape-neutral tasklets per priority class, highest
  // class first, capped at the free slots. A non-batchable head stops its
  // class — within a class the batched pass must not overtake it.
  batch_ids_.clear();
  for (auto& [priority, queue] : pending_) {
    if (batch_ids_.size() >= free_slots) break;
    for (const TaskletId id : queue) {
      if (batch_ids_.size() >= free_slots) break;
      const auto it = tasklets_.find(id);
      if (it == tasklets_.end() || it->second.done ||
          it->second.replicas_pending == 0) {
        continue;  // stale entry: the per-tasklet loop below pops it
      }
      if (!batchable_shape(it->second)) break;
      batch_ids_.push_back(id);
    }
  }
  if (batch_ids_.size() < 2) return;  // nothing to amortize

  batch_choices_.resize(batch_ids_.size());
  const std::size_t placed = scheduler_->pick_batch(
      context, std::span<ProviderView>(batch_snapshot_), rng_,
      std::span<NodeId>(batch_choices_.data(), batch_ids_.size()));
  for (std::size_t i = 0; i < placed; ++i) {
    const TaskletId id = batch_ids_[i];
    issue_attempt(id, tasklets_.at(id), batch_choices_[i], now, out);
  }
  // Placed tasklets are deliberately not popped here: issue_attempt zeroed
  // their replicas_pending, so the per-tasklet loop below removes their
  // queue entries as stale and handles whatever the batch left behind.
}

void Broker::drain_queue(SimTime now, proto::Outbox& out) {
  // Batched fast path first: a backlog of shape-neutral tasklets is placed
  // with one pool snapshot; the per-tasklet loop below then covers the
  // remainder (QoC-constrained heads, policies without batch support).
  if (pending_count_ >= 4) drain_queue_batched(now, out);
  // Strict priority across classes, FIFO with head-of-line semantics within
  // a class. A head that cannot be placed blocks only its own class — an
  // unplaceable high-priority tasklet (e.g. a local-only one waiting for
  // its site) must not starve lower classes forever.
  for (auto& [priority, queue] : pending_) {
    while (!queue.empty()) {
      const TaskletId id = queue.front();
      const auto it = tasklets_.find(id);
      if (it == tasklets_.end() || it->second.done ||
          it->second.replicas_pending == 0) {
        queue.pop_front();
        --pending_count_;
        continue;
      }
      if (!try_place_replica(id, now, out).valid()) break;  // next class
      queue.pop_front();
      --pending_count_;
    }
  }
  TASKLETS_GAUGE_SET("broker.queue_depth",
                     static_cast<std::int64_t>(pending_count_));
}

// --- results & lifecycle ----------------------------------------------------------

void Broker::handle_attempt_result(NodeId from, const proto::AttemptResult& m,
                                   SimTime now, proto::Outbox& out) {
  // Free the provider slot — but only if this attempt was genuinely
  // outstanding there. Duplicate results (network retransmits) and results
  // for attempts already fenced (timeout, provider loss) must not distort
  // the reliability EWMA, the speed estimator, or the completion counters.
  bool genuine = false;
  if (const auto pit = providers_.find(from); pit != providers_.end()) {
    if (pit->second.inflight.erase(m.attempt) > 0) {
      genuine = true;
      auto& view = pit->second.view;
      const double success =
          m.outcome.status == proto::AttemptStatus::kOk ? 1.0 : 0.0;
      view.observed_reliability =
          (1.0 - kReliabilityAlpha) * view.observed_reliability +
          kReliabilityAlpha * success;
      if (m.outcome.status == proto::AttemptStatus::kOk) {
        view.completed += 1;
      } else {
        view.failed += 1;
      }
    }
  }

  const auto idx = attempt_index_.find(m.attempt);
  if (idx == attempt_index_.end()) {
    // Late result for a concluded or fenced attempt.
    ++stats_.duplicate_results;
    TASKLETS_COUNT("broker.duplicate_results", 1);
    request_drain(now, out);
    return;
  }
  const TaskletId id = idx->second;
  auto& state = tasklets_.at(id);
  // Attempt-id fencing: a result only counts if it comes from the provider
  // the attempt was issued to (guards against corrupted/misrouted frames).
  if (const auto ait = state.attempts.find(m.attempt);
      ait != state.attempts.end() && ait->second.provider != from) {
    ++stats_.duplicate_results;
    TASKLETS_COUNT("broker.duplicate_results", 1);
    request_drain(now, out);
    return;
  }
  attempt_index_.erase(idx);
  if (const auto ait = state.attempts.find(m.attempt);
      ait != state.attempts.end()) {
    end_attempt_span(state, id, ait->second, now,
                     proto::to_string(m.outcome.status));
    if (genuine && m.outcome.status == proto::AttemptStatus::kOk) {
      record_speed_sample(from, m.outcome.fuel_used,
                          now - ait->second.issued_at);
    }
  }
  state.attempts.erase(m.attempt);
  if (state.done) {
    request_drain(now, out);
    return;
  }

  switch (m.outcome.status) {
    case proto::AttemptStatus::kOk: {
      ++stats_.attempts_ok;
      TASKLETS_COUNT("broker.attempts_ok", 1);
      state.fuel_total += m.outcome.fuel_used;
      const bool from_backup =
          state.speculated && m.attempt == state.speculative_attempt;
      record_vote(state, m.outcome, from);
      maybe_conclude(id, state, now, out);
      if (state.done && from_backup) ++stats_.speculation_wins;
      break;
    }
    case proto::AttemptStatus::kTrap:
      // Deterministic failure: every replica would trap identically.
      fail_tasklet(id, state, proto::TaskletStatus::kFailed, m.outcome.error, now,
                   out);
      break;
    case proto::AttemptStatus::kProviderLost: {
      ++stats_.attempts_lost;
      TASKLETS_COUNT("broker.attempts_lost", 1);
      reissue_or_exhaust(id, state, now, out);
      break;
    }
    case proto::AttemptStatus::kSuspended: {
      // Migration: the provider drained and checkpointed. Re-place the
      // tasklet with the snapshot so the next provider resumes. Redundant
      // tasklets fall back to plain re-issue (their replicas cannot share a
      // single checkpoint).
      if (state.spec.qoc.redundancy <= 1 && !m.outcome.snapshot.empty()) {
        state.resume_snapshot = m.outcome.snapshot;
        ++stats_.migrations;
        TASKLETS_COUNT("broker.migrations", 1);
        trace_instant(state, "migrate", id, now,
                      {{"from", from.to_string()},
                       {"snapshot_bytes",
                        std::to_string(m.outcome.snapshot.size())}});
        state.replicas_pending += 1;
        if (!try_place_replica(id, now, out).valid()) enqueue_replica(id);
        break;
      }
      ++stats_.attempts_lost;
      TASKLETS_COUNT("broker.attempts_lost", 1);
      reissue_or_exhaust(id, state, now, out);
      break;
    }
    case proto::AttemptStatus::kRejected: {
      // An instant "no": the provider had no slot or was offline. Re-place
      // under the (larger) rejection budget — the QoC re-issue budget is for
      // work actually lost.
      // Whatever the reason, stop believing the provider's cache holds this
      // program — "program unavailable" rejections in particular mean its
      // fetches failed, and a digest-only retry there would loop.
      if (state.program_digest.valid()) {
        if (const auto pit = providers_.find(from); pit != providers_.end()) {
          pit->second.warm.erase(state.program_digest);
        }
      }
      ++stats_.attempts_lost;
      TASKLETS_COUNT("broker.attempts_lost", 1);
      if (state.rejections < config_.max_rejections) {
        state.rejections += 1;
        state.replicas_pending += 1;
        ++stats_.reissues;
        TASKLETS_COUNT("broker.reissues", 1);
        trace_instant(state, "retry", id, now,
                      {{"reason", "rejected"}, {"by", from.to_string()}});
        if (!try_place_replica(id, now, out).valid()) enqueue_replica(id);
      } else if (state.attempts.empty() && state.replicas_pending == 0) {
        ++stats_.tasklets_exhausted;
        fail_tasklet(id, state, proto::TaskletStatus::kExhausted,
                     "rejection budget exhausted", now, out);
      }
      break;
    }
  }
  request_drain(now, out);
}

void Broker::on_provider_lost(NodeId provider, SimTime now, proto::Outbox& out) {
  auto& p = providers_.at(provider);
  p.online = false;
  p.draining = false;
  const auto inflight = std::move(p.inflight);
  p.inflight.clear();
  for (const AttemptId attempt : inflight) {
    fence_attempt(attempt, Fence::kProviderLost, now, out);
  }
  request_drain(now, out);
}

void Broker::fence_attempt(AttemptId attempt, Fence cause, SimTime now,
                           proto::Outbox& out) {
  const auto idx = attempt_index_.find(attempt);
  if (idx == attempt_index_.end()) return;
  const TaskletId id = idx->second;
  attempt_index_.erase(idx);
  const auto tit = tasklets_.find(id);
  if (tit == tasklets_.end()) return;  // evicted terminal record
  auto& state = tit->second;
  const auto ait = state.attempts.find(attempt);
  if (ait == state.attempts.end()) return;
  static constexpr std::string_view kStatus[] = {"provider_lost", "straggler",
                                                 "reconciled"};
  end_attempt_span(state, id, ait->second, now,
                   kStatus[static_cast<std::size_t>(cause)]);
  if (const auto pit = providers_.find(ait->second.provider);
      pit != providers_.end()) {
    pit->second.inflight.erase(attempt);
    if (cause == Fence::kStraggler) pit->second.view.straggler_fences += 1;
    if (cause == Fence::kReconciled) pit->second.view.reconciled += 1;
  }
  state.attempts.erase(ait);
  if (cause == Fence::kReconciled) {
    ++stats_.attempts_reconciled;
    TASKLETS_COUNT("broker.attempts_reconciled", 1);
    TASKLETS_LOG(kInfo, kLog)
        << "attempt " << attempt.to_string() << " of tasklet "
        << id.to_string() << " missing from two heartbeats; fenced";
  }
  if (state.done) return;
  // A straggler's live backup is its reassignment.
  if (cause == Fence::kStraggler && !state.attempts.empty()) return;
  ++stats_.attempts_lost;
  TASKLETS_COUNT("broker.attempts_lost", 1);
  reissue_or_exhaust(id, state, now, out);
}

void Broker::reissue_or_exhaust(TaskletId id, TaskletState& state, SimTime now,
                                proto::Outbox& out) {
  if (state.reissues_used < state.spec.qoc.max_reissues) {
    state.reissues_used += 1;
    state.replicas_pending += 1;
    ++stats_.reissues;
    TASKLETS_COUNT("broker.reissues", 1);
    trace_instant(state, "retry", id, now,
                  {{"reason", "lost"},
                   {"reissue", std::to_string(state.reissues_used)}});
    if (!try_place_replica(id, now, out).valid()) enqueue_replica(id);
  } else if (state.attempts.empty() && state.replicas_pending == 0) {
    ++stats_.tasklets_exhausted;
    fail_tasklet(id, state, proto::TaskletStatus::kExhausted,
                 "re-issue budget exhausted", now, out);
  }
}

void Broker::defend_stragglers(SimTime now, proto::Outbox& out) {
  const SimTime bound =
      completions_.bound(config_.straggler_quantile, config_.straggler_multiplier,
                         config_.straggler_min_samples);
  if (bound <= 0) return;
  // Classify first — fencing mutates attempt_index_ mid-iteration otherwise.
  std::vector<std::pair<AttemptId, TaskletId>> fence;  // past 2x the bound
  std::vector<TaskletId> shadow;                       // past 1x the bound
  for (const auto& [attempt, tasklet_id] : attempt_index_) {
    const auto it = tasklets_.find(tasklet_id);
    if (it == tasklets_.end() || it->second.done) continue;
    const auto ait = it->second.attempts.find(attempt);
    if (ait == it->second.attempts.end()) continue;
    const SimTime age = now - ait->second.issued_at;
    if (age > 2 * bound) {
      fence.emplace_back(attempt, tasklet_id);
    } else if (age > bound && !it->second.speculated &&
               it->second.spec.qoc.redundancy <= 1) {
      shadow.push_back(tasklet_id);
    }
  }
  // Far-gone attempts: fence (the provider's slot is freed and its late
  // result can no longer count) and reassign.
  for (const auto& [attempt, tasklet_id] : fence) {
    const auto tit = tasklets_.find(tasklet_id);
    if (tit == tasklets_.end()) continue;  // evicted mid-loop
    const TaskletState& state = tit->second;
    const auto ait = state.attempts.find(attempt);
    if (ait == state.attempts.end()) continue;
    if (!state.done) {
      ++stats_.straggler_reassigns;
      TASKLETS_COUNT("broker.straggler_reassigns", 1);
      trace_instant(state, "reassign", tasklet_id, now,
                    {{"from", ait->second.provider.to_string()},
                     {"bound", format_duration(2 * bound)}});
    }
    fence_attempt(attempt, Fence::kStraggler, now, out);
  }
  // Moderately late attempts: one speculative backup (first result wins,
  // the loser is fenced on arrival).
  for (const TaskletId id : shadow) {
    const auto tit = tasklets_.find(id);
    if (tit == tasklets_.end()) continue;  // evicted mid-loop
    auto& state = tit->second;
    if (state.done || state.speculated) continue;
    state.replicas_pending += 1;
    const AttemptId backup = try_place_replica(id, now, out);
    if (backup.valid()) {
      state.speculated = true;
      state.speculative_attempt = backup;
      ++stats_.speculations;
      TASKLETS_COUNT("broker.speculations", 1);
      trace_instant(state, "speculate", id, now,
                    {{"backup", backup.to_string()}, {"reason", "straggler"}});
    } else {
      state.replicas_pending -= 1;  // no capacity: retry next scan
    }
  }
  if (!fence.empty()) request_drain(now, out);
}

bool Broker::admission_rejects(TaskletId id, TaskletState& state, SimTime now,
                               proto::Outbox& out) {
  if (!config_.admission_control || state.spec.qoc.deadline <= 0) return false;
  // Only synthetic bodies declare their fuel up front; VM programs' cost is
  // unknown until they run, so they are always admitted.
  const auto* synthetic = std::get_if<proto::SyntheticBody>(&state.spec.body);
  if (synthetic == nullptr || synthetic->fuel == 0) return false;
  // Fastest admissible provider at *measured* speed. No online admissible
  // provider is not a rejection — providers may still be registering; the
  // unschedulable grace in the scan timer owns that case.
  double best = 0.0;
  for (const auto& [pid, p] : providers_) {
    if (p.online && qoc_admits(state, p.view.capability)) {
      best = std::max(best, p.view.effective_speed());
    }
  }
  if (best <= 0.0) return false;
  const double predicted_s =
      kAdmissionSafety * static_cast<double>(synthetic->fuel) / best;
  if (from_seconds(predicted_s) <= state.spec.qoc.deadline) return false;
  ++stats_.admission_rejected;
  TASKLETS_COUNT("broker.admission_rejected", 1);
  trace_instant(state, "admission_reject", id, now,
                {{"predicted", format_duration(from_seconds(predicted_s))},
                 {"deadline", format_duration(state.spec.qoc.deadline)}});
  ++stats_.tasklets_unschedulable;
  fail_tasklet(id, state, proto::TaskletStatus::kUnschedulable,
               "QoC deadline infeasible for the current pool", now, out);
  return true;
}

std::uint32_t Broker::majority_threshold(const TaskletState& state) const {
  const std::uint32_t r = std::max<std::uint32_t>(1, state.spec.qoc.redundancy);
  return r / 2 + 1;
}

void Broker::record_vote(TaskletState& state, const proto::AttemptOutcome& outcome,
                         NodeId provider) {
  for (auto& vote : state.votes) {
    if (tvm::args_equal(vote.result, outcome.result)) {
      vote.count += 1;
      return;
    }
  }
  VoteEntry entry;
  entry.result = outcome.result;
  entry.fuel = outcome.fuel_used;
  entry.instructions = outcome.instructions;
  entry.count = 1;
  entry.first_provider = provider;
  state.votes.push_back(std::move(entry));
}

void Broker::maybe_conclude(TaskletId id, TaskletState& state, SimTime now,
                            proto::Outbox& out) {
  const std::uint32_t threshold = majority_threshold(state);
  for (const auto& vote : state.votes) {
    if (vote.count >= threshold) {
      complete_tasklet(id, state, vote, now, out);
      return;
    }
  }
  // All replicas reported but no majority (faulty providers disagree):
  // issue tie-breaker replicas if the re-issue budget allows, else fail.
  if (state.attempts.empty() && state.replicas_pending == 0) {
    if (state.reissues_used < state.spec.qoc.max_reissues) {
      state.reissues_used += 1;
      state.replicas_pending += 1;
      ++stats_.reissues;
      if (!try_place_replica(id, now, out).valid()) enqueue_replica(id);
    } else {
      ++stats_.tasklets_exhausted;
      fail_tasklet(id, state, proto::TaskletStatus::kExhausted,
                   "replica results never reached a majority", now, out);
    }
  }
}

void Broker::complete_tasklet(TaskletId id, TaskletState& state,
                              const VoteEntry& winner, SimTime now,
                              proto::Outbox& out) {
  ++stats_.tasklets_completed;
  TASKLETS_COUNT("broker.completed", 1);
  // Count replicas that disagreed with the winning value.
  for (const auto& vote : state.votes) {
    if (!tvm::args_equal(vote.result, winner.result)) {
      stats_.votes_overruled += vote.count;
    }
  }
  // Memoize the verified (vote-winning) result so repeat submissions of the
  // same (program, args) under a memoizing QoC complete without a provider
  // round trip. Only opted-in results are stored: the knob is the caller's
  // assertion that the tasklet is a pure function of its arguments.
  if (state.spec.qoc.memoize && state.program_digest.valid() &&
      state.args_digest.valid()) {
    memo_.insert({state.program_digest, state.args_digest},
                 {winner.result, winner.fuel, winner.instructions,
                  winner.first_provider});
    ++stats_.memo_inserts;
    TASKLETS_COUNT("broker.store.memo_inserts", 1);
  }
  proto::TaskletReport report;
  report.id = id;
  report.job = state.spec.job;
  report.status = proto::TaskletStatus::kCompleted;
  report.result = winner.result;
  report.fuel_used = winner.fuel;
  report.instructions = winner.instructions;
  report.attempts = state.attempts_total;
  report.executed_by = winner.first_provider;
  report.latency = now - state.submitted_at;
  finish(id, state, std::move(report), out);
}

void Broker::fail_tasklet(TaskletId id, TaskletState& state,
                          proto::TaskletStatus status, std::string error,
                          SimTime now, proto::Outbox& out) {
  if (status == proto::TaskletStatus::kFailed) ++stats_.tasklets_failed;
  if (metrics::enabled()) {
    metrics::MetricsRegistry::instance()
        .counter(std::string("broker.failed.") +
                 std::string(proto::to_string(status)))
        .inc();
  }
  proto::TaskletReport report;
  report.id = id;
  report.job = state.spec.job;
  report.status = status;
  report.attempts = state.attempts_total;
  report.latency = now - state.submitted_at;
  report.error = std::move(error);
  finish(id, state, std::move(report), out);
}

void Broker::finish(TaskletId id, TaskletState& state, proto::TaskletReport report,
                    proto::Outbox& out) {
  state.done = true;
  release_program_ref(state);
  // Outstanding attempt index entries for this tasklet stay until their
  // results arrive (and are then ignored); replicas pending in the queue are
  // skipped by drain_queue.
  TASKLETS_OBSERVE("broker.latency_ns", static_cast<double>(report.latency));
  // Both callers computed latency as (now - submitted_at), so the terminal
  // instant's timestamp can be reconstructed without threading `now` here.
  const SimTime terminal = state.submitted_at + report.latency;
  close_open_spans(state, id, terminal);
  if (config_.trace != nullptr && state.trace.active()) {
    trace_instant(state, "report", id, terminal,
                  {{"status", std::string(proto::to_string(report.status))},
                   {"attempts", std::to_string(report.attempts)}});
  }
  // Retained so duplicate submissions replay the same terminal report.
  state.final_report = report;
  if (state.dag.valid()) {
    // Internal DAG node (r4): the result is delegated broker-side into the
    // node's dependents instead of round-tripping through a consumer.
    on_dag_node_done(state, report, terminal, out);
    return;
  }
  if (config_.terminal_retention > 0) {
    // Bounded replay window: evict the oldest concluded records FIFO. The
    // just-finished tasklet sits at the back, so it always survives its own
    // finish. Stragglers of an evicted tasklet resolve as late results
    // (attempt_index_ entries are scrubbed here) and a duplicate submit of
    // one re-runs instead of replaying — the memo table still fences
    // memoizable re-runs.
    terminal_order_.push_back(id);
    while (terminal_order_.size() > config_.terminal_retention) {
      const TaskletId victim = terminal_order_.front();
      terminal_order_.pop_front();
      const auto vit = tasklets_.find(victim);
      if (vit == tasklets_.end() || !vit->second.done) continue;
      for (const auto& [attempt, attempt_state] : vit->second.attempts) {
        attempt_index_.erase(attempt);
      }
      tasklets_.erase(vit);
    }
  }
  out.send(state.consumer, proto::TaskletDone{std::move(report)});
}

// --- content store (r3) ---------------------------------------------------------

bool Broker::resolve_body(TaskletId id, TaskletState& state, SimTime now,
                          proto::Outbox& out) {
  // DAG node tasklets (r4) arrive with their identity pre-seeded: the
  // program digest and the *Merkle* digest standing in for args. Keep it —
  // their memo entries must key the whole upstream cone, not the resolved
  // argument values.
  const bool merkle_keyed = state.dag.valid();
  if (const auto* vm = std::get_if<proto::VmBody>(&state.spec.body)) {
    state.program_digest = store::digest_bytes(vm->program);
    if (!merkle_keyed) state.args_digest = store::digest_args(vm->args);
    if (try_memo_hit(id, state, now, out)) return true;
    // Intern and pin the program: assigns can now go digest-only to warm
    // providers, and future DigestBody submissions of it resolve locally.
    blobs_.put(state.program_digest, vm->program);
    blobs_.ref(state.program_digest);
    state.program_ref = true;
    // Digest-only submissions may have raced ahead of this inline one (they
    // are smaller, so the network delivers them first); they parked on this
    // digest and can run now.
    unpark_waiters(state.program_digest, /*deduped=*/true, now, out);
    return false;
  }
  if (const auto* digest = std::get_if<proto::DigestBody>(&state.spec.body)) {
    state.program_digest = digest->program_digest;
    if (!merkle_keyed) state.args_digest = store::digest_args(digest->args);
    if (try_memo_hit(id, state, now, out)) return true;
    if (blobs_.contains(state.program_digest)) {
      blobs_.ref(state.program_digest);
      state.program_ref = true;
      ++stats_.program_dedup_hits;
      TASKLETS_COUNT("broker.store.program_dedup_hits", 1);
      return false;
    }
    // Unknown content: pull the bytes from the submitting consumer. The
    // tasklet parks (deadline timer already armed) until ProgramData lands;
    // the scan timer re-sends the fetch and enforces kProgramFetchGrace.
    // One FetchProgram per digest, however many tasklets pile up on it —
    // later waiters ride the in-flight fetch (the scan retry covers loss).
    state.awaiting_program = true;
    state.fetch_started = now;
    auto& waiters = awaiting_program_[state.program_digest];
    const bool fetch_in_flight = !waiters.empty();
    waiters.push_back(id);
    trace_instant(state, "program_fetch", id, now,
                  {{"digest", state.program_digest.to_string()}});
    if (!fetch_in_flight) {
      ++stats_.program_fetches;
      TASKLETS_COUNT("broker.store.program_fetches", 1);
      out.send(state.consumer, proto::FetchProgram{state.program_digest});
    }
    return true;
  }
  return false;  // synthetic body: nothing content-addressed about it
}

bool Broker::try_memo_hit(TaskletId id, TaskletState& state, SimTime now,
                          proto::Outbox& out) {
  if (!state.spec.qoc.memoize || !state.program_digest.valid() ||
      !state.args_digest.valid()) {
    return false;
  }
  const store::MemoEntry* entry =
      memo_.lookup({state.program_digest, state.args_digest});
  if (entry == nullptr) {
    TASKLETS_COUNT("broker.store.memo_misses", 1);
    return false;
  }
  ++stats_.memo_hits;
  TASKLETS_COUNT("broker.store.memo_hits", 1);
  trace_instant(state, "memo_hit", id, now,
                {{"program", state.program_digest.to_string()},
                 {"provider", entry->provider.to_string()}});
  proto::TaskletReport report;
  report.id = id;
  report.job = state.spec.job;
  report.status = proto::TaskletStatus::kCompleted;
  report.result = entry->result;
  report.fuel_used = entry->fuel;
  report.instructions = entry->instructions;
  report.attempts = 0;  // the memo's defining property: no provider round trip
  report.executed_by = entry->provider;
  report.latency = now - state.submitted_at;
  // A memo hit is still a completion — keep the aggregate consistent with
  // the provider-executed path.
  ++stats_.tasklets_completed;
  TASKLETS_COUNT("broker.completed", 1);
  finish(id, state, std::move(report), out);
  return true;
}

proto::TaskletBody Broker::make_assign_body(const TaskletState& state,
                                            ProviderState& provider) {
  if (!state.program_digest.valid()) return state.spec.body;  // synthetic
  const std::vector<tvm::HostArg>* args = proto::body_args(state.spec.body);
  if (args == nullptr) return state.spec.body;
  if (config_.dedup_assign && provider.warm.contains(state.program_digest)) {
    ++stats_.assigns_by_digest;
    TASKLETS_COUNT("broker.store.assigns_by_digest", 1);
    std::size_t program_size = 0;
    if (const auto* vm = std::get_if<proto::VmBody>(&state.spec.body)) {
      program_size = vm->program.size();
    } else if (const Bytes* blob = blobs_.get(state.program_digest)) {
      program_size = blob->size();
    }
    if (program_size > 16) stats_.assign_bytes_saved += program_size - 16;
    return proto::DigestBody{state.program_digest, *args};
  }
  // Cold (or dedup off): ship the bytes inline and remember the provider now
  // holds them. If the assign is lost the warm belief is optimistic; the
  // provider then pulls via FetchProgram, and rejects if that fails too —
  // which clears the warm bit and forces the next attempt inline.
  if (const auto* vm = std::get_if<proto::VmBody>(&state.spec.body)) {
    mark_warm(provider, state.program_digest);
    return *vm;
  }
  if (const Bytes* blob = blobs_.get(state.program_digest)) {
    mark_warm(provider, state.program_digest);
    return proto::VmBody{*blob, *args};
  }
  // Pinned content should always be resident; fall back to digest-only and
  // let the provider's pull path (or its rejection) sort it out.
  return proto::DigestBody{state.program_digest, *args};
}

void Broker::mark_warm(ProviderState& provider, const store::Digest& digest) {
  if (provider.warm.contains(digest)) return;
  provider.warm.insert(digest);
  provider.warm_order.push_back(digest);
  while (provider.warm_order.size() > kWarmEntriesPerProvider) {
    provider.warm.erase(provider.warm_order.front());
    provider.warm_order.pop_front();
  }
}

void Broker::release_program_ref(TaskletState& state) {
  if (!state.program_ref) return;
  state.program_ref = false;
  blobs_.unref(state.program_digest);
}

void Broker::handle_fetch_program(NodeId from, const proto::FetchProgram& m,
                                  proto::Outbox& out) {
  const Bytes* blob = blobs_.get(m.program_digest);
  if (blob == nullptr) {
    // Unknown content (evicted, or the requester is confused): stay silent —
    // the provider's own retry budget concludes with a rejection, which
    // re-issues the attempt inline.
    return;
  }
  ++stats_.program_serves;
  TASKLETS_COUNT("broker.store.program_serves", 1);
  if (const auto it = providers_.find(from); it != providers_.end()) {
    mark_warm(it->second, m.program_digest);
  }
  out.send(from, proto::ProgramData{m.program_digest, *blob});
}

void Broker::handle_program_data(const proto::ProgramData& m, SimTime now,
                                 proto::Outbox& out) {
  // Verify content against its name before interning: a corrupted frame that
  // still decodes must not poison the store (every later assignment of this
  // digest would ship the wrong bytes).
  if (store::digest_bytes(m.program) != m.program_digest) {
    TASKLETS_LOG(kWarn, kLog) << "ProgramData digest mismatch for "
                              << m.program_digest.to_string() << "; dropped";
    return;
  }
  blobs_.put(m.program_digest, m.program);
  unpark_waiters(m.program_digest, /*deduped=*/false, now, out);
}

// --- DAG execution (r4) -----------------------------------------------------------

namespace {

// Binds a delegated upstream result into one argument slot. Synthetic bodies
// carry no argument vector — their edges are ordering-only.
void bind_body_arg(proto::TaskletBody& body, std::uint32_t slot,
                   const tvm::HostArg& value) {
  if (auto* vm = std::get_if<proto::VmBody>(&body)) {
    vm->args[slot] = value;
  } else if (auto* digest = std::get_if<proto::DigestBody>(&body)) {
    digest->args[slot] = value;
  }
}

}  // namespace

void Broker::dag_trace_instant(
    const DagState& dag, std::string name, SimTime now,
    std::vector<std::pair<std::string, std::string>> args) {
  if (config_.trace == nullptr || !dag.trace.active()) return;
  config_.trace->instant(dag.trace, std::move(name), this->id(), TaskletId{},
                         now, std::move(args));
}

void Broker::handle_submit_dag(NodeId from, const proto::SubmitDag& m,
                               SimTime now, proto::Outbox& out) {
  const DagId id = m.spec.id;
  if (const auto it = dags_.find(id); it != dags_.end()) {
    // SubmitDag is at-least-once from the consumer: drop retransmits of an
    // in-flight DAG, replay the retained terminal status for a concluded one.
    ++stats_.duplicate_dag_submits;
    TASKLETS_COUNT("broker.dag.duplicate_submits", 1);
    if (it->second.done && it->second.final_status.has_value()) {
      out.send(from, *it->second.final_status);
    }
    return;
  }
  ++stats_.dags_submitted;
  TASKLETS_COUNT("broker.dag.submitted", 1);
  auto topo = dag::validate(m.spec);
  if (!topo.is_ok()) {
    // Structurally invalid (cycle, bad slot binding, ...): terminally failed
    // before any node runs. Retain the status so retransmits replay it.
    TASKLETS_LOG(kWarn, kLog) << "rejecting dag " << id.to_string() << ": "
                              << topo.status().to_string();
    ++stats_.dags_failed;
    TASKLETS_COUNT("broker.dag.failed", 1);
    DagState& dag = dags_[id];
    dag.consumer = from;
    dag.submitted_at = now;
    dag.failed = true;
    dag.done = true;
    proto::DagStatus status;
    status.dag = id;
    status.job = m.spec.job;
    status.status = proto::TaskletStatus::kFailed;
    status.nodes.assign(m.spec.nodes.size(),
                        proto::DagNodeDisposition::kPending);
    dag.final_status = status;
    out.send(from, std::move(status));
    return;
  }
  DagState& dag = dags_[id];
  dag.spec = m.spec;
  dag.consumer = from;
  dag.trace = m.trace;
  dag.submitted_at = now;
  dag.topo = std::move(topo).value();
  dag.merkle = dag::merkle_digests(dag.spec, dag.topo);
  dag.programs.reserve(dag.spec.nodes.size());
  for (const auto& node : dag.spec.nodes) {
    dag.programs.push_back(dag::node_program_digest(node.body));
  }
  dag.outputs = dag::output_nodes(dag.spec);
  dag.nodes.assign(dag.spec.nodes.size(), DagNodeRuntime{});

  // Demand pass, outputs downward (reverse topo order): a Merkle memo hit
  // satisfies a node from the table and stops the descent — its entire
  // upstream cone is never demanded. This is what turns the single-tasklet
  // memo table into whole-subtree memoization.
  std::vector<char> needed(dag.spec.nodes.size(), 0);
  for (const std::uint32_t output : dag.outputs) needed[output] = 1;
  std::vector<std::uint32_t> memo_settled;
  for (auto it = dag.topo.rbegin(); it != dag.topo.rend(); ++it) {
    const std::uint32_t node = *it;
    if (needed[node] == 0) continue;
    dag.nodes[node].demanded = true;
    if (dag.spec.qoc.memoize) {
      const store::MemoEntry* entry =
          memo_.lookup({dag.programs[node], dag.merkle[node]});
      if (entry != nullptr) {
        settle_dag_node_from_memo(id, dag, node, *entry, now);
        memo_settled.push_back(node);
        continue;  // the subtree behind this node stays undemanded
      }
      TASKLETS_COUNT("broker.store.memo_misses", 1);
    }
    for (const dag::DagEdge& edge : dag.spec.nodes[node].inputs) {
      needed[edge.from_node] = 1;
    }
  }

  // Forward pass: demanded non-memo nodes wait on all their edges; memo
  // results resolve their dependents' slots immediately.
  for (const std::uint32_t node : dag.topo) {
    DagNodeRuntime& rt = dag.nodes[node];
    if (!rt.demanded || rt.report.has_value()) continue;
    rt.waiting_inputs =
        static_cast<std::uint32_t>(dag.spec.nodes[node].inputs.size());
    dag.outstanding += 1;
  }
  dag_trace_instant(dag, "dag_submit", now,
                    {{"nodes", std::to_string(dag.spec.nodes.size())},
                     {"outstanding", std::to_string(dag.outstanding)}});
  for (const std::uint32_t node : memo_settled) {
    out.send(dag.consumer,
             proto::DagNodeResult{id, node, *dag.nodes[node].report});
    for (const std::uint32_t ready :
         bind_dag_result(dag, node, dag.nodes[node].report->result)) {
      release_dag_node(id, dag, ready, now, out);
      if (dag.done) return;
    }
  }
  if (dag.outstanding == 0) {
    // Every output was answered from the memo: the whole DAG concludes
    // without a single provider attempt.
    finish_dag(id, dag, now, out);
    return;
  }
  // Sources (no inputs) are ready immediately.
  for (const std::uint32_t node : dag.topo) {
    const DagNodeRuntime& rt = dag.nodes[node];
    if (rt.demanded && !rt.report.has_value() && !rt.tasklet.valid() &&
        rt.waiting_inputs == 0) {
      release_dag_node(id, dag, node, now, out);
      if (dag.done) return;
    }
  }
}

void Broker::settle_dag_node_from_memo(DagId /*dag_id*/, DagState& dag,
                                       std::uint32_t node,
                                       const store::MemoEntry& entry,
                                       SimTime now) {
  DagNodeRuntime& rt = dag.nodes[node];
  rt.disposition = proto::DagNodeDisposition::kMemo;
  ++stats_.memo_hits;
  TASKLETS_COUNT("broker.store.memo_hits", 1);
  ++stats_.dag_nodes_memo;
  TASKLETS_COUNT("broker.dag.nodes_memo", 1);
  proto::TaskletReport report;
  report.job = dag.spec.job;
  report.status = proto::TaskletStatus::kCompleted;
  report.result = entry.result;
  report.fuel_used = entry.fuel;
  report.instructions = entry.instructions;
  report.attempts = 0;  // the defining property of a memo completion
  report.executed_by = entry.provider;
  report.latency = 0;
  rt.report = std::move(report);
  dag_trace_instant(dag, "dag_memo_hit", now,
                    {{"node", std::to_string(node)},
                     {"merkle", dag.merkle[node].to_string()}});
}

std::vector<std::uint32_t> Broker::bind_dag_result(DagState& dag,
                                                   std::uint32_t node,
                                                   const tvm::HostArg& result) {
  std::vector<std::uint32_t> ready;
  for (std::size_t j = 0; j < dag.spec.nodes.size(); ++j) {
    DagNodeRuntime& rt = dag.nodes[j];
    if (!rt.demanded || rt.report.has_value() || rt.tasklet.valid()) continue;
    for (const dag::DagEdge& edge : dag.spec.nodes[j].inputs) {
      if (edge.from_node != node) continue;
      bind_body_arg(dag.spec.nodes[j].body, edge.arg_slot, result);
      ++stats_.dag_results_delegated;
      TASKLETS_COUNT("broker.dag.results_delegated", 1);
      if (rt.waiting_inputs > 0 && --rt.waiting_inputs == 0) {
        ready.push_back(static_cast<std::uint32_t>(j));
      }
    }
  }
  return ready;
}

void Broker::release_dag_node(DagId dag_id, DagState& dag, std::uint32_t node,
                              SimTime now, proto::Outbox& out) {
  DagNodeRuntime& rt = dag.nodes[node];
  const TaskletId tid{kDagNodeIdBit | next_dag_node_seq_++};
  rt.tasklet = tid;
  ++stats_.tasklets_submitted;
  TASKLETS_COUNT("broker.submitted", 1);
  TaskletState& state = tasklets_[tid];
  state.spec.id = tid;
  state.spec.job = dag.spec.job;
  state.spec.body = dag.spec.nodes[node].body;  // delegated inputs bound in
  state.spec.qoc = dag.spec.qoc;
  state.spec.origin_locality = dag.spec.origin_locality;
  state.consumer = dag.consumer;
  state.trace = dag.trace;  // node spans land in the DAG's trace
  state.submitted_at = now;
  state.replicas_pending =
      std::max<std::uint32_t>(1, dag.spec.qoc.redundancy);
  state.dag = dag_id;
  state.dag_node = node;
  // Merkle identity: memo entries for this node key (program digest, Merkle
  // digest), so a future resubmission of the same subtree short-circuits at
  // submit time. resolve_body preserves this pre-seeded args digest.
  state.program_digest = dag.programs[node];
  state.args_digest = dag.merkle[node];
  dag_trace_instant(dag, "dag_node_release", now,
                    {{"node", std::to_string(node)},
                     {"tasklet", tid.to_string()}});
  // The same gauntlet a flat submission runs: admission control, deadline,
  // memo probe / program interning, then placement.
  if (admission_rejects(tid, state, now, out)) return;
  if (state.spec.qoc.deadline > 0) {
    out.arm_timer(kDeadlineTimerBit | tid.value(), state.spec.qoc.deadline);
  }
  if (std::holds_alternative<proto::SyntheticBody>(state.spec.body)) {
    // Synthetic bodies skip resolve_body's content machinery, but with a
    // pseudo program digest they still participate in Merkle memoization.
    if (try_memo_hit(tid, state, now, out)) return;
  } else if (resolve_body(tid, state, now, out)) {
    return;
  }
  while (state.replicas_pending > 0 && try_place_replica(tid, now, out).valid()) {
  }
  for (std::uint32_t i = 0; i < tasklets_.at(tid).replicas_pending; ++i) {
    enqueue_replica(tid);
  }
}

void Broker::on_dag_node_done(TaskletState& state,
                              const proto::TaskletReport& report, SimTime now,
                              proto::Outbox& out) {
  const auto it = dags_.find(state.dag);
  if (it == dags_.end() || it->second.done) return;
  const DagId dag_id = state.dag;
  DagState& dag = it->second;
  DagNodeRuntime& rt = dag.nodes[state.dag_node];
  if (rt.report.has_value()) return;
  rt.report = report;
  if (dag.outstanding > 0) dag.outstanding -= 1;
  if (report.status != proto::TaskletStatus::kCompleted) {
    // Per-node failure fails the whole DAG: downstream nodes can never get
    // their inputs. Nodes already in flight keep running — their verified
    // results still land in the memo table, so a resubmission after the
    // fault reuses everything that did finish.
    rt.disposition = proto::DagNodeDisposition::kFailed;
    dag.failed = true;
    out.send(dag.consumer,
             proto::DagNodeResult{dag_id, state.dag_node, *rt.report});
    dag_trace_instant(dag, "dag_node_failed", now,
                      {{"node", std::to_string(state.dag_node)},
                       {"status", std::string(proto::to_string(report.status))}});
    finish_dag(dag_id, dag, now, out);
    return;
  }
  rt.disposition = report.attempts == 0 ? proto::DagNodeDisposition::kMemo
                                        : proto::DagNodeDisposition::kExecuted;
  if (rt.disposition == proto::DagNodeDisposition::kMemo) {
    ++stats_.dag_nodes_memo;
    TASKLETS_COUNT("broker.dag.nodes_memo", 1);
  } else {
    ++stats_.dag_nodes_executed;
    TASKLETS_COUNT("broker.dag.nodes_executed", 1);
  }
  // Intern the delegated result blob: downstream consumers (and the ops
  // plane) can pull it content-addressed over the same FetchProgram /
  // ProgramData path program bytes ride (r3).
  {
    ByteWriter w;
    tvm::encode_arg(w, report.result);
    Bytes blob = std::move(w).take();
    const std::size_t blob_size = blob.size();
    blobs_.put(store::digest_bytes(blob), std::move(blob));
    stats_.dag_result_bytes_interned += blob_size;
  }
  out.send(dag.consumer,
           proto::DagNodeResult{dag_id, state.dag_node, *rt.report});
  dag_trace_instant(dag, "dag_node_done", now,
                    {{"node", std::to_string(state.dag_node)},
                     {"disposition", std::string(proto::to_string(rt.disposition))}});
  // Output delegation: feed the result straight into dependents' argument
  // slots and release whichever became fully resolved.
  for (const std::uint32_t ready :
       bind_dag_result(dag, state.dag_node, report.result)) {
    release_dag_node(dag_id, dag, ready, now, out);
    if (dag.done) return;
  }
  if (dag.outstanding == 0) finish_dag(dag_id, dag, now, out);
}

void Broker::finish_dag(DagId id, DagState& dag, SimTime now,
                        proto::Outbox& out) {
  dag.done = true;
  proto::DagStatus status;
  status.dag = id;
  status.job = dag.spec.job;
  status.status = proto::TaskletStatus::kCompleted;
  status.nodes.reserve(dag.nodes.size());
  for (DagNodeRuntime& rt : dag.nodes) {
    if (!rt.demanded) {
      rt.disposition = proto::DagNodeDisposition::kSkipped;
      ++stats_.dag_nodes_skipped;
      TASKLETS_COUNT("broker.dag.nodes_skipped", 1);
    }
    status.nodes.push_back(rt.disposition);
  }
  if (dag.failed) {
    // Propagate the most specific failure: the first failed node's status.
    status.status = proto::TaskletStatus::kFailed;
    for (const DagNodeRuntime& rt : dag.nodes) {
      if (rt.disposition == proto::DagNodeDisposition::kFailed &&
          rt.report.has_value()) {
        status.status = rt.report->status;
        break;
      }
    }
  }
  status.outputs.reserve(dag.outputs.size());
  for (const std::uint32_t output : dag.outputs) {
    if (dag.nodes[output].report.has_value()) {
      status.outputs.push_back(*dag.nodes[output].report);
    } else {
      proto::TaskletReport missing;
      missing.job = dag.spec.job;
      missing.status = status.status == proto::TaskletStatus::kCompleted
                           ? proto::TaskletStatus::kFailed
                           : status.status;
      missing.error = "dag aborted before this output completed";
      status.outputs.push_back(std::move(missing));
    }
  }
  status.latency = now - dag.submitted_at;
  if (dag.failed) {
    ++stats_.dags_failed;
    TASKLETS_COUNT("broker.dag.failed", 1);
  } else {
    ++stats_.dags_completed;
    TASKLETS_COUNT("broker.dag.completed", 1);
  }
  dag_trace_instant(dag, "dag_done", now,
                    {{"status", std::string(proto::to_string(status.status))},
                     {"latency", format_duration(status.latency)}});
  dag.final_status = status;
  out.send(dag.consumer, std::move(status));
}

void Broker::unpark_waiters(const store::Digest& digest, bool deduped,
                            SimTime now, proto::Outbox& out) {
  const auto it = awaiting_program_.find(digest);
  if (it == awaiting_program_.end()) return;  // duplicate / unsolicited
  const std::vector<TaskletId> waiting = std::move(it->second);
  awaiting_program_.erase(it);
  for (const TaskletId id : waiting) {
    const auto tit = tasklets_.find(id);
    if (tit == tasklets_.end()) continue;
    TaskletState& state = tit->second;
    if (state.done || !state.awaiting_program) continue;
    state.awaiting_program = false;
    blobs_.ref(state.program_digest);
    state.program_ref = true;
    if (deduped) {
      ++stats_.program_dedup_hits;
      TASKLETS_COUNT("broker.store.program_dedup_hits", 1);
    }
    trace_instant(state, "program_ready", id, now);
    while (state.replicas_pending > 0 &&
           try_place_replica(id, now, out).valid()) {
    }
    for (std::uint32_t i = 0; i < tasklets_.at(id).replicas_pending; ++i) {
      enqueue_replica(id);
    }
  }
}

}  // namespace tasklets::broker

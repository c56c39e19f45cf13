#include "provider/provider.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/metrics.hpp"

namespace tasklets::provider {

ProviderAgent::ProviderAgent(NodeId id, NodeId broker, proto::Capability capability,
                             ExecutionService& execution, ProviderConfig config)
    : Actor(id),
      broker_(broker),
      capability_(std::move(capability)),
      execution_(execution),
      config_(config),
      programs_(config.program_cache_budget_bytes) {}

void ProviderAgent::send_register(proto::Outbox& out) {
  proto::RegisterProvider m;
  m.capability = capability_;
  m.incarnation = incarnation_;
  out.send(broker_, std::move(m));
}

void ProviderAgent::on_start(SimTime, proto::Outbox& out) {
  send_register(out);
  out.arm_timer(kHeartbeatTimer, config_.heartbeat_interval);
}

void ProviderAgent::leave(proto::Outbox& out) {
  online_ = false;
  registered_ = false;
  // Parked work never started executing, so there is nothing to checkpoint:
  // hand it straight back for re-issue elsewhere.
  for (auto& [digest, parked] : parked_) {
    for (auto& entry : parked) {
      inflight_.erase(entry.assign.attempt);
      proto::AttemptResult result;
      result.attempt = entry.assign.attempt;
      result.tasklet = entry.assign.tasklet;
      result.outcome.status = proto::AttemptStatus::kRejected;
      result.outcome.error = "provider leaving";
      out.send(broker_, std::move(result));
    }
  }
  parked_.clear();
  proto::DeregisterProvider deregister;
  // In-flight work will be checkpointed by the runtime's execution service
  // and reported as suspended; tell the broker to wait for it.
  deregister.draining = !inflight_.empty();
  out.send(broker_, deregister);
}

void ProviderAgent::rejoin(SimTime, proto::Outbox& out) {
  online_ = true;
  registered_ = false;
  ++incarnation_;  // a new epoch: the broker re-issues anything we held
  send_register(out);
}

void ProviderAgent::on_timer(std::uint64_t timer_id, SimTime now,
                             proto::Outbox& out) {
  if (timer_id != kHeartbeatTimer) return;
  if (online_) {
    if (registered_) {
      // The held attempts let the broker notice a lost assign or result.
      proto::Heartbeat hb;
      hb.attempts.assign(inflight_.begin(), inflight_.end());
      std::sort(hb.attempts.begin(), hb.attempts.end());
      out.send(broker_, std::move(hb));
    } else {
      // Registration is at-least-once: keep re-sending on the heartbeat
      // cadence until the broker acks this incarnation. The broker treats
      // same-incarnation retransmits as a refresh, so this is safe.
      send_register(out);
    }
    retry_parked_fetches(now, out);
  }
  out.arm_timer(kHeartbeatTimer, config_.heartbeat_interval);
}

void ProviderAgent::on_message(const proto::Envelope& envelope, SimTime now,
                               proto::Outbox& out) {
  if (const auto* assign = std::get_if<proto::AssignTasklet>(&envelope.payload)) {
    handle_assign(*assign, now, out);
    return;
  }
  if (const auto* ack = std::get_if<proto::RegisterAck>(&envelope.payload)) {
    // Acks for stale incarnations (pre-rejoin) are ignored.
    if (ack->incarnation == incarnation_) registered_ = true;
    return;
  }
  if (const auto* data = std::get_if<proto::ProgramData>(&envelope.payload)) {
    handle_program_data(*data, now);
    return;
  }
  TASKLETS_LOG(kWarn, "provider")
      << id().to_string() << ": unexpected message "
      << proto::message_name(envelope.payload);
}

void ProviderAgent::remember_attempt(AttemptId attempt) {
  seen_attempts_.insert(attempt);
  seen_order_.push_back(attempt);
  if (seen_order_.size() > kSeenAttemptsCap) {
    seen_attempts_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
}

void ProviderAgent::handle_assign(const proto::AssignTasklet& m, SimTime now,
                                  proto::Outbox& out) {
  if (seen_attempts_.contains(m.attempt)) {
    // Duplicate retransmit of an attempt we already accepted (possibly long
    // finished). Re-executing would double-spend the slot and double-report;
    // staying silent is safe because a lost original result leaves the
    // attempt off our heartbeats, and the broker re-issues it after two.
    ++stats_.duplicate_assigns;
    TASKLETS_COUNT("provider.duplicate_assigns", 1);
    return;
  }
  ++stats_.assignments;
  TASKLETS_COUNT("provider.assignments", 1);
  if (!online_ || inflight_.size() >= capability_.slots) {
    reject_attempt(m, online_ ? "no free execution slot" : "provider offline",
                   now, out);
    return;
  }
  inflight_.insert(m.attempt);
  remember_attempt(m.attempt);

  // Content-addressed bodies (r3): resolve the digest from the local
  // program store, or park the accepted assignment and pull the bytes from
  // the broker. Inline bodies seed the store so future assignments of the
  // same program can arrive digest-only.
  if (const auto* digest_body = std::get_if<proto::DigestBody>(&m.body)) {
    const store::Digest digest = digest_body->program_digest;
    if (const Bytes* program = programs_.get(digest); program != nullptr) {
      ++stats_.program_cache_hits;
      TASKLETS_COUNT("provider.program_cache.hits", 1);
      proto::AssignTasklet resolved = m;
      resolved.body = proto::VmBody{*program, digest_body->args};
      start_execution(resolved, now);
      return;
    }
    ++stats_.program_cache_misses;
    TASKLETS_COUNT("provider.program_cache.misses", 1);
    if (config_.trace != nullptr) {
      config_.trace->instant(m.trace, "program_fetch", id(), m.tasklet, now,
                             {{"digest", digest.to_string()}});
    }
    ParkedAssign parked;
    parked.assign = m;
    parked.accepted_at = now;
    parked.fetches = 1;
    // One FetchProgram per digest: assignments piling up behind an in-flight
    // fetch ride it instead of re-asking (the heartbeat retry covers loss).
    auto& waiting = parked_[digest];
    const bool fetch_in_flight = !waiting.empty();
    waiting.push_back(std::move(parked));
    if (!fetch_in_flight) {
      ++stats_.program_fetches;
      TASKLETS_COUNT("provider.program_fetches", 1);
      out.send(broker_, proto::FetchProgram{digest});
    }
    return;
  }
  if (const auto* vm = std::get_if<proto::VmBody>(&m.body)) {
    programs_.put(store::digest_bytes(std::span<const std::byte>(
                      vm->program.data(), vm->program.size())),
                  vm->program);
  }
  start_execution(m, now);
}

void ProviderAgent::reject_attempt(const proto::AssignTasklet& m,
                                   std::string reason, SimTime now,
                                   proto::Outbox& out) {
  ++stats_.rejected;
  TASKLETS_COUNT("provider.rejected", 1);
  if (config_.trace != nullptr) {
    config_.trace->instant(m.trace, "reject", id(), m.tasklet, now,
                           {{"reason", reason}});
  }
  proto::AttemptResult result;
  result.attempt = m.attempt;
  result.tasklet = m.tasklet;
  result.outcome.status = proto::AttemptStatus::kRejected;
  result.outcome.error = std::move(reason);
  out.send(broker_, std::move(result));
}

void ProviderAgent::handle_program_data(const proto::ProgramData& m,
                                        SimTime now) {
  // Verify before trusting: the fault layer can corrupt frames, and a blob
  // that doesn't hash to its claimed digest would poison the cache for
  // every future assignment naming it. Drop and let the retry loop re-pull.
  const store::Digest actual = store::digest_bytes(
      std::span<const std::byte>(m.program.data(), m.program.size()));
  if (actual != m.program_digest) {
    TASKLETS_LOG(kWarn, "provider")
        << id().to_string() << ": ProgramData digest mismatch; dropping";
    return;
  }
  programs_.put(m.program_digest, m.program);
  const auto it = parked_.find(m.program_digest);
  if (it == parked_.end()) return;  // duplicate delivery; nothing waiting
  std::vector<ParkedAssign> parked = std::move(it->second);
  parked_.erase(it);
  for (auto& entry : parked) {
    if (!inflight_.contains(entry.assign.attempt)) continue;  // crashed since
    proto::AssignTasklet resolved = std::move(entry.assign);
    const auto& digest_body = std::get<proto::DigestBody>(resolved.body);
    resolved.body = proto::VmBody{m.program, digest_body.args};
    start_execution(resolved, now);
  }
}

void ProviderAgent::retry_parked_fetches(SimTime now, proto::Outbox& out) {
  std::vector<store::Digest> exhausted;
  for (auto& [digest, parked] : parked_) {
    bool give_up = false;
    for (auto& entry : parked) {
      if (entry.fetches >= config_.program_fetch_attempts) give_up = true;
    }
    if (give_up) {
      exhausted.push_back(digest);
      continue;
    }
    for (auto& entry : parked) ++entry.fetches;
    ++stats_.program_fetches;
    TASKLETS_COUNT("provider.program_fetches", 1);
    out.send(broker_, proto::FetchProgram{digest});
  }
  for (const store::Digest& digest : exhausted) {
    const auto it = parked_.find(digest);
    std::vector<ParkedAssign> parked = std::move(it->second);
    parked_.erase(it);
    for (auto& entry : parked) {
      inflight_.erase(entry.assign.attempt);
      reject_attempt(entry.assign, "program unavailable", now, out);
    }
  }
}

void ProviderAgent::start_execution(const proto::AssignTasklet& m, SimTime now) {
  ExecRequest request;
  request.attempt = m.attempt;
  request.tasklet = m.tasklet;
  request.body = m.body;
  request.max_fuel = m.max_fuel;
  request.resume_snapshot = m.resume_snapshot;
  request.trace = m.trace;
  const TaskletId tasklet = m.tasklet;
  const AttemptId attempt = m.attempt;
  // The "execute" span covers assignment acceptance to result send; ctx and
  // start ride in the completion (the agent keeps no per-attempt map).
  const TraceContext ctx = m.trace;
  const SimTime accepted_at = now;
  execution_.execute(
      std::move(request),
      [this, tasklet, attempt, ctx, accepted_at](proto::AttemptOutcome outcome,
                                                 SimTime done_now,
                                                 proto::Outbox& done_out) {
        inflight_.erase(attempt);
        switch (outcome.status) {
          case proto::AttemptStatus::kOk:
            ++stats_.completed;
            TASKLETS_COUNT("provider.completed", 1);
            break;
          case proto::AttemptStatus::kTrap:
            ++stats_.trapped;
            TASKLETS_COUNT("provider.trapped", 1);
            break;
          default:
            ++stats_.rejected;
            TASKLETS_COUNT("provider.rejected", 1);
            break;
        }
        if (config_.trace != nullptr) {
          Span span;
          span.trace_id = ctx.trace_id;
          span.parent_span = ctx.parent_span;
          span.name = "execute";
          span.node = id();
          span.tasklet = tasklet;
          span.start = accepted_at;
          span.end = done_now;
          span.args.emplace_back("status",
                                 std::string(to_string(outcome.status)));
          config_.trace->add(std::move(span));
        }
        proto::AttemptResult result;
        result.attempt = attempt;
        result.tasklet = tasklet;
        result.outcome = std::move(outcome);
        done_out.send(broker_, std::move(result));
      });
}

}  // namespace tasklets::provider

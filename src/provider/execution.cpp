#include "provider/execution.hpp"

#include "common/bytes.hpp"
#include "common/metrics.hpp"
#include "tvm/verifier.hpp"

namespace tasklets::provider {

VmExecutor::VmExecutor(tvm::ExecLimits default_limits,
                       std::size_t max_cache_entries)
    : default_limits_(default_limits),
      max_cache_entries_(max_cache_entries == 0 ? 1 : max_cache_entries) {}

std::size_t VmExecutor::cache_size() const {
  const std::scoped_lock lock(mutex_);
  return cache_.size();
}

std::uint64_t VmExecutor::cache_evictions() const {
  const std::scoped_lock lock(mutex_);
  return evictions_;
}

std::shared_ptr<const VmExecutor::CacheEntry> VmExecutor::lookup_or_verify(
    const Bytes& program_bytes) {
  const store::Digest key = store::digest_bytes(
      std::span<const std::byte>(program_bytes.data(), program_bytes.size()));
  {
    const std::scoped_lock lock(mutex_);
    if (const auto it = cache_.find(key); it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second->lru);
      return it->second;
    }
  }
  // Deserialize + verify outside the lock; insertion races are benign (both
  // entries are identical, the loser is dropped).
  auto entry = std::make_shared<CacheEntry>();
  auto program = tvm::Program::deserialize(
      std::span<const std::byte>(program_bytes.data(), program_bytes.size()));
  if (!program.is_ok()) {
    entry->verified_ok = false;
    entry->verify_error = program.status().to_string();
  } else {
    entry->program = std::move(program).value();
    // analyze() accepts exactly the programs verify() accepts, and
    // additionally yields the fast-path plan, so one pass does both.
    auto plan = tvm::analyze(entry->program);
    entry->verified_ok = plan.is_ok();
    if (plan.is_ok()) {
      entry->plan = std::move(plan).value();
    } else {
      entry->verify_error = plan.status().to_string();
    }
  }
  std::uint64_t evicted = 0;
  std::shared_ptr<const CacheEntry> result;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      // Lost the verify race; keep the incumbent.
      lru_.splice(lru_.begin(), lru_, it->second->lru);
      result = it->second;
    } else {
      lru_.push_front(key);
      entry->lru = lru_.begin();
      result = cache_.emplace(key, std::move(entry)).first->second;
      while (cache_.size() > max_cache_entries_) {
        // Coldest first. An executing thread still holding the shared_ptr
        // keeps its entry alive past eviction; only the cache forgets it.
        cache_.erase(lru_.back());
        lru_.pop_back();
        ++evictions_;
        ++evicted;
      }
    }
  }
  if (evicted > 0) TASKLETS_COUNT("provider.vm.cache_evictions", evicted);
  return result;
}

namespace {
// Converts a slice result into an attempt outcome (completion path).
proto::AttemptOutcome finish_outcome(tvm::ExecOutcome&& exec) {
  proto::AttemptOutcome outcome;
  outcome.status = proto::AttemptStatus::kOk;
  outcome.result = std::move(exec.result);
  outcome.fuel_used = exec.fuel_used;
  outcome.instructions = exec.instructions;
  return outcome;
}

proto::AttemptOutcome trap_outcome(const Status& status) {
  proto::AttemptOutcome outcome;
  outcome.status = proto::AttemptStatus::kTrap;
  outcome.error = status.to_string();
  return outcome;
}
}  // namespace

void VmExecutor::CacheEntry::note_completed(std::uint64_t fuel) const noexcept {
  std::uint64_t seen = peak_fuel.load(std::memory_order_relaxed);
  while ((seen == kNoCompletedRun || seen < fuel) &&
         !peak_fuel.compare_exchange_weak(seen, fuel, std::memory_order_relaxed)) {
  }
}

VmExecutor::Run VmExecutor::begin(const ExecRequest& request) {
  Run run;
  run.count_ = !request.calibration;
  if (const auto* synth = std::get_if<proto::SyntheticBody>(&request.body)) {
    proto::AttemptOutcome& outcome = run.settled_.emplace();
    outcome.status = proto::AttemptStatus::kOk;
    outcome.result = synth->result;
    outcome.fuel_used = synth->fuel;
    return run;
  }
  if (std::holds_alternative<proto::DigestBody>(request.body)) {
    // Digest bodies are resolved to inline bytecode by the ProviderAgent
    // before execution; one reaching the executor means the resolution
    // layer was bypassed. Rejecting lets the broker re-issue inline.
    proto::AttemptOutcome& outcome = run.settled_.emplace();
    outcome.status = proto::AttemptStatus::kRejected;
    outcome.error = "unresolved digest body";
    return run;
  }
  const auto& vm_body = std::get<proto::VmBody>(request.body);
  run.entry_ = lookup_or_verify(vm_body.program);
  if (!run.entry_->verified_ok) {
    // Verification failure is deterministic: every honest provider would
    // reject the same bytes. Report it as a trap so the broker fails fast
    // instead of re-issuing (kRejected is reserved for capacity/offline).
    proto::AttemptOutcome& outcome = run.settled_.emplace();
    outcome.status = proto::AttemptStatus::kTrap;
    outcome.error = "program rejected: " + run.entry_->verify_error;
    return run;
  }
  run.limits_ = default_limits_;
  if (request.max_fuel > 0) run.limits_.max_fuel = request.max_fuel;
  if (!request.resume_snapshot.empty()) {
    // Migrated work resumes from its snapshot instead of the entry point.
    run.machine_.emplace().state = request.resume_snapshot;
  } else {
    run.args_ = vm_body.args;
  }
  return run;
}

proto::AttemptOutcome VmExecutor::run(const ExecRequest& request) {
  // One unbounded slice with a never-draining flag: plain execution (an
  // unbounded slice always ends in an outcome).
  static const std::atomic<bool> kNeverDrain{false};
  return *begin(request).step(0, kNeverDrain);
}

bool VmExecutor::Run::completed_within(std::uint64_t fuel) const noexcept {
  if (entry_ == nullptr) return false;
  const std::uint64_t peak = entry_->peak_fuel.load(std::memory_order_relaxed);
  return peak != CacheEntry::kNoCompletedRun && peak <= fuel;
}

std::optional<proto::AttemptOutcome> VmExecutor::Run::step(
    std::uint64_t fuel_slice, const std::atomic<bool>& drain) {
  if (settled_) return std::move(settled_);
  tvm::ExecOptions options;
  options.plan = &entry_->plan;
  Result<tvm::SliceOutcome> slice =
      machine_ ? tvm::resume_slice(entry_->program, *machine_, limits_,
                                   fuel_slice, options)
               : tvm::execute_slice(entry_->program, args_, limits_, fuel_slice,
                                    options);
  if (!slice.is_ok()) {
    if (count_) TASKLETS_COUNT("provider.vm.traps", 1);
    return trap_outcome(slice.status());
  }
  if (auto* exec = std::get_if<tvm::ExecOutcome>(&*slice)) {
    entry_->note_completed(exec->fuel_used);
    if (count_) {
      TASKLETS_COUNT("provider.vm.executions", 1);
      TASKLETS_COUNT("provider.vm.instructions", exec->instructions);
    }
    return finish_outcome(std::move(*exec));
  }
  auto& suspension = std::get<tvm::Suspension>(*slice);
  if (drain.load(std::memory_order_relaxed)) {
    proto::AttemptOutcome outcome;
    outcome.status = proto::AttemptStatus::kSuspended;
    outcome.fuel_used = suspension.fuel_used;
    outcome.instructions = suspension.instructions;
    outcome.snapshot = std::move(suspension.state);
    if (count_) {
      TASKLETS_COUNT("provider.vm.suspensions", 1);
      TASKLETS_COUNT("provider.vm.snapshot_bytes", outcome.snapshot.size());
    }
    return outcome;
  }
  if (count_) TASKLETS_COUNT("provider.vm.slices", 1);
  machine_ = std::move(suspension);
  return std::nullopt;
}

proto::AttemptOutcome maybe_corrupt(proto::AttemptOutcome outcome,
                                    double fault_rate, Rng& rng) {
  if (outcome.status != proto::AttemptStatus::kOk || fault_rate <= 0.0 ||
      !rng.bernoulli(fault_rate)) {
    return outcome;
  }
  // Perturb the result in a type-preserving way: silent corruption, not a
  // visible failure.
  std::visit(
      [&](auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::int64_t>) {
          v ^= static_cast<std::int64_t>(1 + rng.next_below(255));
        } else if constexpr (std::is_same_v<T, double>) {
          v += 1.0 + rng.uniform();
        } else if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {
          if (!v.empty()) {
            v[rng.next_below(v.size())] ^= 0x5A;
          } else {
            v.push_back(-1);
          }
        } else {
          if (!v.empty()) {
            v[rng.next_below(v.size())] += 1.0;
          } else {
            v.push_back(-1.0);
          }
        }
      },
      outcome.result);
  return outcome;
}

}  // namespace tasklets::provider

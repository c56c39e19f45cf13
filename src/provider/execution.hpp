// Execution services: how a provider actually runs a tasklet body.
//
// The ProviderAgent is runtime-agnostic; it hands assignments to an
// ExecutionService and gets completions back *in its own execution context*
// (the hosting runtime guarantees the `done` continuation runs serialized
// with the agent's other handlers, with a fresh Outbox). Implementations:
//
//   * VmExecutor — shared, thread-safe bytecode executor with a per-program
//     verification + fast-path-plan cache; used directly by the threaded
//     runtime's providers (on the mailbox thread for known-small programs,
//     on the worker pool otherwise) and by the simulator to obtain
//     (result, fuel) pairs.
//   * The simulator's ExecutionService lives in sim/ (it converts fuel to
//     virtual time using the device profile).
#pragma once

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "proto/actor.hpp"
#include "proto/types.hpp"
#include "store/digest.hpp"
#include "tvm/interpreter.hpp"

namespace tasklets::provider {

struct ExecRequest {
  AttemptId attempt;
  TaskletId tasklet;
  proto::TaskletBody body;
  std::uint64_t max_fuel = 0;  // 0 = executor default
  // Non-empty for migrated work: resume from this TVM snapshot instead of
  // starting the program from its entry point.
  Bytes resume_snapshot;
  // Tracing context of the assignment; execution services that record "vm"
  // spans parent them under this.
  TraceContext trace;
  // Self-measurement runs (provider/benchmark.cpp) set this so calibration
  // work is excluded from the provider.vm.* metrics.
  bool calibration = false;
};

// Invoked exactly once per execute() call, serialized with the owning
// actor's handlers.
using ExecDone =
    std::function<void(proto::AttemptOutcome, SimTime, proto::Outbox&)>;

class ExecutionService {
 public:
  virtual ~ExecutionService() = default;
  virtual void execute(ExecRequest request, ExecDone done) = 0;
};

// Synchronous bytecode execution with a content-digest verification cache.
// Thread-safe: multiple provider slots may execute concurrently. The cache
// is entry-capped with LRU eviction so long multi-program runs cannot grow
// it without bound; entries in use by a running execution survive their own
// eviction (shared ownership) and are simply dropped when the run finishes.
class VmExecutor {
 public:
  explicit VmExecutor(tvm::ExecLimits default_limits = {},
                      std::size_t max_cache_entries = kDefaultCacheEntries);

  static constexpr std::size_t kDefaultCacheEntries = 128;

  // One request's execution, advanced slice by slice (defined below).
  class Run;

  // Binds `request` to its cached, verified program: the request's one
  // program digest and cache lookup. Nothing executes until Run::step().
  [[nodiscard]] Run begin(const ExecRequest& request);

  // Runs a tasklet body to completion on the calling thread. VM traps are
  // reported through AttemptOutcome (status kTrap), never as a Result error.
  // Honours request.resume_snapshot (migration).
  [[nodiscard]] proto::AttemptOutcome run(const ExecRequest& request);

  // Number of verified programs currently cached.
  [[nodiscard]] std::size_t cache_size() const;
  // Entries dropped by the LRU cap since construction (also exported as the
  // provider.vm.cache_evictions metric).
  [[nodiscard]] std::uint64_t cache_evictions() const;

 private:
  struct CacheEntry {
    tvm::Program program;
    // Fast-path execution plan (tvm::analyze), built once per cached
    // program so repeat executions skip analysis entirely.
    tvm::ExecPlan plan;
    bool verified_ok = false;
    std::string verify_error;
    std::list<store::Digest>::iterator lru;  // position in lru_
    // Largest fuel any completed run of this program used, or
    // kNoCompletedRun. The only field that changes once the entry is cached.
    mutable std::atomic<std::uint64_t> peak_fuel{kNoCompletedRun};

    static constexpr std::uint64_t kNoCompletedRun = ~std::uint64_t{0};
    void note_completed(std::uint64_t fuel) const noexcept;
  };

  [[nodiscard]] std::shared_ptr<const CacheEntry> lookup_or_verify(
      const Bytes& program_bytes);

  tvm::ExecLimits default_limits_;
  std::size_t max_cache_entries_;
  mutable std::mutex mutex_;
  std::uint64_t evictions_ = 0;
  std::list<store::Digest> lru_;  // most-recent first
  std::unordered_map<store::Digest, std::shared_ptr<CacheEntry>> cache_;
};

// A Run is a plain value: whichever thread holds it may step it, and moving
// it hands a suspended machine to another thread. That is how a provider
// starts known-small work on its mailbox thread and passes work that outgrew
// the prediction to its worker pool.
class VmExecutor::Run {
 public:
  // True when the program has completed on this executor before and no
  // completed run of it used more than `fuel`.
  [[nodiscard]] bool completed_within(std::uint64_t fuel) const noexcept;

  // Runs one slice of about `fuel_slice` fuel (0 = to the end). Returns the
  // attempt's outcome once there is one: the result, a trap, or, when
  // `drain` is set at the slice boundary, a kSuspended checkpoint with the
  // machine snapshot in `outcome.snapshot` (how a provider evacuates
  // in-flight work when asked to leave gracefully). Returns nullopt when the
  // slice ended with the machine still running: step again to continue.
  // Do not step a Run that already returned an outcome.
  [[nodiscard]] std::optional<proto::AttemptOutcome> step(
      std::uint64_t fuel_slice, const std::atomic<bool>& drain);

 private:
  friend class VmExecutor;
  Run() = default;  // only begin() makes one

  std::shared_ptr<const CacheEntry> entry_;
  // Outcome decided without running (synthetic body, unresolved digest,
  // program rejected by the verifier).
  std::optional<proto::AttemptOutcome> settled_;
  tvm::ExecLimits limits_;
  std::vector<tvm::HostArg> args_;
  // Where the next slice resumes; empty before a fresh start.
  std::optional<tvm::Suspension> machine_;
  bool count_ = true;  // feeds the provider.vm.* metrics
};

// Injects silent result corruption with probability `fault_rate` — models
// the faulty/byzantine providers that QoC redundancy voting defends
// against. Deterministic given the seed.
[[nodiscard]] proto::AttemptOutcome maybe_corrupt(proto::AttemptOutcome outcome,
                                                  double fault_rate, Rng& rng);

}  // namespace tasklets::provider

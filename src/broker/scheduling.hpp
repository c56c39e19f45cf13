// Scheduling policies.
//
// The broker filters the provider pool down to the *eligible* set for a
// tasklet (online, free slot, QoC locality/cost constraints, distinct from
// already-used replicas) and then asks a Scheduler to pick one. Policies are
// deliberately small and pluggable — the policy comparison is one of the
// reproduced experiments (E3/E5), and `LocalOnly`/`CloudOnly` double as the
// paper's baselines.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "proto/types.hpp"

namespace tasklets::broker {

// The broker's live view of one provider, exposed to policies.
struct ProviderView {
  NodeId id;
  proto::Capability capability;
  std::uint32_t busy_slots = 0;     // broker-tracked in-flight attempts
  double observed_reliability = 1.0;  // EWMA of attempt success
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  // Cache affinity (r3): true when the broker believes this provider's
  // program cache already holds the tasklet's program — assigning there
  // ships a 16-byte digest instead of the bytecode and skips re-verification.
  bool warm = false;
  // Measured-speed feedback: the broker's EWMA of this provider's effective
  // fuel/s from completed attempts (speed_estimator.hpp). 0 until enough
  // samples accumulated — static policies ignore it; the adaptive policy
  // falls back to the advertised benchmark score while it is 0.
  double measured_speed_fuel_per_sec = 0.0;
  std::uint64_t speed_samples = 0;
  // Fence pressure feeding the per-node health score (pool_stats.hpp):
  // attempts of this provider fenced by the quantile straggler defense and
  // by heartbeat reconciliation, respectively.
  std::uint64_t straggler_fences = 0;
  std::uint64_t reconciled = 0;

  [[nodiscard]] double load() const noexcept {
    return capability.slots == 0
               ? 1.0
               : static_cast<double>(busy_slots) / capability.slots;
  }

  // The speed the adaptive policy believes: measured when available,
  // advertised otherwise.
  [[nodiscard]] double effective_speed() const noexcept {
    return measured_speed_fuel_per_sec > 0.0 ? measured_speed_fuel_per_sec
                                             : capability.speed_fuel_per_sec;
  }
};

// Pool-wide context accompanying each placement decision. `eligible` holds
// the candidates (online, free slot, QoC-filtered); `best_online_speed` is
// the benchmark score of the fastest *online* provider in the entire pool,
// busy or not — selective policies compare candidates against it to decide
// whether waiting for a fast slot beats binding work to a slow device.
struct SchedulingContext {
  std::span<const ProviderView> eligible;
  double best_online_speed = 0.0;
  // Same baseline computed over *effective* speeds (measured where
  // available). A degraded device advertising a stale high score inflates
  // best_online_speed and with it the selectivity floor; the adaptive
  // policy anchors its floor here instead.
  double best_online_effective_speed = 0.0;
  // Pool heterogeneity score (pool_stats.hpp), refreshed on the broker's
  // scan cadence: 0 for a uniform pool, toward 1 as measured effective
  // speeds spread out. Published for policies so a later PR can switch
  // strategy (or tune selectivity) as the pool widens.
  double pool_heterogeneity = 0.0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  // Picks one of `context.eligible`. An empty eligible set never reaches the
  // policy. Returning an invalid NodeId refuses every candidate and leaves
  // the tasklet queued — this is how selective policies wait for a fast slot
  // instead of occupying a phone for minutes (and how restrictive baselines
  // such as cloud_only ignore non-server devices).
  [[nodiscard]] virtual NodeId pick(const proto::TaskletSpec& spec,
                                    const SchedulingContext& context,
                                    Rng& rng) = 0;

  // Batched placement over one broker tick. `candidates` is the mutable
  // free-slot candidate pool (id-sorted); the policy claims slots by
  // incrementing busy_slots as it assigns, so one fast device can absorb
  // several tasklets of a burst without starving idle peers. Writes one
  // provider id per placed tasklet into the front of `choices` and returns
  // how many were placed. The tasklets behind a batch are shape-neutral
  // (no QoC goals, no redundancy, no used-provider exclusions) — the broker
  // only batches submissions whose placement does not depend on per-spec
  // state. Returning 0 means the policy does not batch (the default) or
  // refused every pairing; the caller falls back to per-tasklet pick().
  [[nodiscard]] virtual std::size_t pick_batch(const SchedulingContext& context,
                                               std::span<ProviderView> candidates,
                                               Rng& rng,
                                               std::span<NodeId> choices) {
    (void)context;
    (void)candidates;
    (void)rng;
    (void)choices;
    return 0;
  }

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

// Cycles through providers in registration order: fair but oblivious to
// heterogeneity — the baseline that collapses on mixed pools.
[[nodiscard]] std::unique_ptr<Scheduler> make_round_robin();

// Uniform random among eligible.
[[nodiscard]] std::unique_ptr<Scheduler> make_random();

// Lowest busy/slots ratio; ties broken by faster device.
[[nodiscard]] std::unique_ptr<Scheduler> make_least_loaded();

// Highest benchmark score first ("fastest-first").
[[nodiscard]] std::unique_ptr<Scheduler> make_fastest_first();

// QoC-aware composite — the Tasklet system's default. Selective: declines
// providers more than ~8x slower than the fastest online device (2x under a
// `speed` QoC goal), so long work waits briefly for a fast slot instead of
// wedging on a phone for minutes. Among acceptable candidates it honours the
// tasklet's speed goal, prefers observed-reliable providers for redundant
// tasklets, cheaper ones for cost-capped tasklets, and otherwise balances
// load-discounted speed.
[[nodiscard]] std::unique_ptr<Scheduler> make_qoc_aware();

// Baseline: only schedules onto server-class providers (classic cloud
// offloading); other devices are ignored even when idle.
[[nodiscard]] std::unique_ptr<Scheduler> make_cloud_only();

// QoC-aware scoring over *measured* speed: identical blend to qoc_aware,
// but every speed term (selectivity floor, load-discounted score) uses the
// EWMA effective fuel/s the broker measured from completed attempts,
// falling back to the advertised score per provider until enough samples
// exist. This is what closes the measurement -> placement loop: degraded
// or lying providers lose work as their estimate decays, instead of
// monopolising it on the strength of a stale benchmark.
[[nodiscard]] std::unique_ptr<Scheduler> make_adaptive();

// Factory by name ("round_robin", "random", "least_loaded", "fastest_first",
// "qoc_aware", "cloud_only", "adaptive") — used by benches to sweep policies.
[[nodiscard]] Result<std::unique_ptr<Scheduler>> make_scheduler(std::string_view name);

}  // namespace tasklets::broker

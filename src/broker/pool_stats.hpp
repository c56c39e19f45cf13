// Derived pool signals: per-node health scores and a HEET-style pool
// heterogeneity score.
//
// The speed estimator (PR 6) measures each provider in isolation; this
// module aggregates those readings into two signals the ops plane publishes
// and a later PR can auto-switch scheduling policy on:
//
//   * health_score: how trustworthy one provider currently is, folding the
//     observed-reliability EWMA together with how often its attempts had to
//     be fenced (straggler defense, heartbeat reconciliation).
//   * heterogeneity: how spread out the pool's *effective* speeds are, as a
//     single bounded number. Defined as cv / (1 + cv) where cv is the
//     confidence-weighted coefficient of variation of effective fuel/s over
//     the given providers — 0 for a uniform pool, rising toward 1 as the
//     spread widens. Confidence weighting keeps providers whose estimator
//     has not converged (few samples) from whipping the score around: an
//     unmeasured provider contributes at quarter weight, scaling linearly
//     to full weight at the estimator's min_samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "broker/scheduling.hpp"

namespace tasklets::broker {

// Weight in [0.25, 1] of one provider's speed reading: 0.25 with no samples,
// linear up to 1.0 once `min_samples` back the estimate.
[[nodiscard]] double speed_confidence(const ProviderView& view,
                                      std::uint64_t min_samples = 3);

// Health in [0, 1]: observed reliability discounted by fence pressure —
//   reliability * (completed + 1) / (completed + 1 + 2 * fences)
// where fences counts straggler fences plus reconciled attempts. A
// provider that completes work and never gets fenced scores its reliability;
// every fence costs as much credibility as two completions rebuild.
[[nodiscard]] double health_score(const ProviderView& view);

// Pool-level aggregate over one set of provider views (the broker passes the
// online set).
struct PoolStats {
  std::size_t providers = 0;  // views aggregated
  std::size_t confident = 0;  // with a confident measured speed
  double mean_speed = 0.0;    // confidence-weighted mean effective fuel/s
  double min_speed = 0.0;     // slowest effective speed
  double max_speed = 0.0;     // fastest effective speed
  double cv = 0.0;            // weighted coefficient of variation
  double heterogeneity = 0.0; // cv / (1 + cv), in [0, 1)
  double mean_health = 0.0;
  double min_health = 0.0;
};

[[nodiscard]] PoolStats compute_pool_stats(
    const std::vector<ProviderView>& providers);

}  // namespace tasklets::broker

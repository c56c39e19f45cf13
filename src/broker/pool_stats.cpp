#include "broker/pool_stats.hpp"

#include <algorithm>
#include <cmath>

namespace tasklets::broker {

double speed_confidence(const ProviderView& view, std::uint64_t min_samples) {
  if (min_samples == 0) return 1.0;
  const double frac = std::min(
      1.0, static_cast<double>(view.speed_samples) /
               static_cast<double>(min_samples));
  return 0.25 + 0.75 * frac;
}

double health_score(const ProviderView& view) {
  const double fences = static_cast<double>(view.straggler_fences) +
                        static_cast<double>(view.reconciled);
  const double done = static_cast<double>(view.completed) + 1.0;
  const double discount = done / (done + 2.0 * fences);
  const double reliability =
      std::clamp(view.observed_reliability, 0.0, 1.0);
  return reliability * discount;
}

PoolStats compute_pool_stats(const std::vector<ProviderView>& providers) {
  PoolStats stats;
  stats.providers = providers.size();
  if (providers.empty()) return stats;

  double weight_sum = 0.0;
  double weighted_sum = 0.0;
  double health_sum = 0.0;
  stats.min_speed = providers.front().effective_speed();
  stats.max_speed = stats.min_speed;
  stats.min_health = 1.0;
  for (const ProviderView& p : providers) {
    const double speed = p.effective_speed();
    const double w = speed_confidence(p);
    weight_sum += w;
    weighted_sum += w * speed;
    stats.min_speed = std::min(stats.min_speed, speed);
    stats.max_speed = std::max(stats.max_speed, speed);
    if (p.measured_speed_fuel_per_sec > 0.0) ++stats.confident;
    const double h = health_score(p);
    health_sum += h;
    stats.min_health = std::min(stats.min_health, h);
  }
  stats.mean_health = health_sum / static_cast<double>(providers.size());
  if (weight_sum <= 0.0) return stats;
  stats.mean_speed = weighted_sum / weight_sum;
  if (stats.mean_speed <= 0.0) return stats;

  double weighted_sq = 0.0;
  for (const ProviderView& p : providers) {
    const double d = p.effective_speed() - stats.mean_speed;
    weighted_sq += speed_confidence(p) * d * d;
  }
  const double variance = weighted_sq / weight_sum;
  stats.cv = std::sqrt(std::max(0.0, variance)) / stats.mean_speed;
  stats.heterogeneity = stats.cv / (1.0 + stats.cv);
  return stats;
}

}  // namespace tasklets::broker

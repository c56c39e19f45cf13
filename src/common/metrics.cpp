#include "common/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace tasklets::metrics {

namespace {
std::atomic<bool> g_enabled{true};

// Built-in help catalog. Keys are either exact metric names or dotted
// prefixes covering a dynamic family ("broker.speed" describes every
// "broker.speed.<node>"). Runtime additions via describe_metric() land in
// the same map.
std::map<std::string, std::string, std::less<>>& help_catalog() {
  static auto* catalog = new std::map<std::string, std::string, std::less<>>{
      {"consumer.submitted", "tasklets submitted by consumers"},
      {"consumer.completed", "tasklets reported completed to consumers"},
      {"consumer.failed", "tasklets reported failed to consumers"},
      {"consumer.resubmits", "unanswered submits re-sent after backoff"},
      {"consumer.abandoned", "tasklets abandoned after max_resubmits"},
      {"consumer.backoff_wait_ns", "backoff delay before each resubmit (ns)"},
      {"consumer.digest_submits", "repeat submissions sent digest-only"},
      {"consumer.program_serves", "FetchProgram answered for the broker"},
      {"broker.submitted", "distinct submissions accepted"},
      {"broker.duplicate_submits", "deduplicated submit retransmits"},
      {"broker.attempts_issued", "assignments sent to providers"},
      {"broker.attempts_ok", "attempts that returned a successful outcome"},
      {"broker.attempts_lost", "attempts lost with their provider"},
      {"broker.attempts_reconciled",
       "attempts fenced after two heartbeats omitted them"},
      {"broker.duplicate_results", "late or stale attempt results dropped"},
      {"broker.reissues", "recovery re-issues after a lost attempt"},
      {"broker.migrations", "suspended snapshots migrated to another node"},
      {"broker.speculations", "speculative backup attempts issued"},
      {"broker.completed", "tasklets concluded successfully"},
      {"broker.failed", "terminal failures, by report status"},
      {"broker.assigned", "attempts placed, per provider"},
      {"broker.queue_depth", "tasklets waiting for a provider"},
      {"broker.latency_ns", "submit to terminal report latency (ns)"},
      {"broker.speed", "measured effective speed per provider (fuel/s EWMA)"},
      {"broker.health", "per-provider health score x 1e6 (1e6 = healthy)"},
      {"broker.straggler_reassigns",
       "in-flight attempts fenced by the straggler bound"},
      {"broker.admission_rejected",
       "submissions refused by deadline admission control"},
      {"broker.pool.heterogeneity",
       "pool heterogeneity score x 1e6 (0 = uniform speeds)"},
      {"broker.pool.online", "providers currently online"},
      {"broker.pool.confident",
       "online providers with a confident speed estimate"},
      {"broker.pool.mean_speed", "confidence-weighted mean effective fuel/s"},
      {"broker.store.program_dedup_hits",
       "digest submissions resolved against resident bytes"},
      {"broker.store.program_fetches", "FetchProgram sent to consumers"},
      {"broker.store.program_serves", "ProgramData served to providers"},
      {"broker.store.memo_hits", "submissions answered from the result memo"},
      {"broker.store.memo_misses", "memo probes that found no entry"},
      {"broker.store.memo_inserts", "verified results stored in the memo"},
      {"broker.memo.hit_rate",
       "derived: cumulative memo hits / (hits + misses), sampled"},
      {"broker.dag.submitted", "DAG submissions accepted (r4)"},
      {"broker.dag.completed", "DAGs concluded successfully"},
      {"broker.dag.failed", "DAGs concluded with a failure"},
      {"broker.dag.duplicate_submits", "deduplicated SubmitDag retransmits"},
      {"broker.dag.nodes_executed", "DAG nodes completed via provider attempts"},
      {"broker.dag.nodes_memo", "DAG nodes answered from the memo table"},
      {"broker.dag.nodes_skipped",
       "DAG nodes never demanded (downstream memo hits)"},
      {"broker.dag.results_delegated",
       "node results bound broker-side into dependent argument slots"},
      {"consumer.dags_submitted", "DAG submissions sent"},
      {"consumer.dags_completed", "terminal DagStatus: completed"},
      {"consumer.dags_failed", "terminal DagStatus: any failure"},
      {"consumer.dag_resubmits", "unanswered DAG submits re-sent after backoff"},
      {"consumer.dags_abandoned", "DAGs abandoned after max_resubmits"},
      {"consumer.dag_node_results", "deduplicated per-node result frames"},
      {"broker.store.assigns_by_digest",
       "assignments shipped digest-only to warm providers"},
      {"provider.assignments", "assignments accepted"},
      {"provider.duplicate_assigns", "duplicate attempt ids dropped"},
      {"provider.rejected", "assignments rejected (no free slot)"},
      {"provider.completed", "executions finished ok"},
      {"provider.trapped", "executions ended in a deterministic trap"},
      {"provider.vm.executions", "VM runs completed"},
      {"provider.vm.inline",
       "known-small runs taken on the provider's mailbox thread"},
      {"provider.vm.inline_handoffs",
       "inline runs that hit the fuel cap and moved to the worker pool"},
      {"provider.vm.traps", "VM deterministic traps"},
      {"provider.vm.slices", "fuel slices run"},
      {"provider.vm.suspensions", "suspensions (checkpoint taken)"},
      {"provider.vm.instructions", "instructions retired"},
      {"provider.vm.snapshot_bytes", "snapshot bytes produced"},
      {"provider.vm.cache_evictions",
       "verified-program cache entries evicted by the LRU cap"},
      {"provider.program_cache.hits",
       "digest assignments resolved from the local blob store"},
      {"provider.program_cache.misses", "digest assignments that pulled bytes"},
      {"provider.program_fetches", "FetchProgram sent to the broker"},
      {"health.alerts_fired", "health rules transitioned to firing"},
      {"net.tcp.frames_out", "TCP frames sent"},
      {"net.tcp.bytes_out", "TCP bytes sent"},
      {"net.tcp.frames_in", "TCP frames received"},
      {"net.tcp.bytes_in", "TCP bytes received"},
      {"net.inproc.routed", "in-process frames routed"},
      {"net.mailbox.driven",
       "driving posts that ran a mailbox thread's turns on the caller"},
      {"net.mailbox.drive_handbacks",
       "drives that left work for the mailbox thread and woke it"},
      {"net.fault", "injected faults, by action"},
  };
  return *catalog;
}

std::mutex& help_mutex() {
  static auto* m = new std::mutex;
  return *m;
}

}  // namespace

void json_append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

const char* metric_type_name(MetricType t) noexcept {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

std::string metric_help(std::string_view name) {
  const std::scoped_lock lock(help_mutex());
  const auto& catalog = help_catalog();
  std::string_view probe = name;
  while (true) {
    const auto it = catalog.find(probe);
    if (it != catalog.end()) return it->second;
    const auto dot = probe.rfind('.');
    if (dot == std::string_view::npos) return {};
    probe = probe.substr(0, dot);
  }
}

void describe_metric(std::string name, std::string help) {
  const std::scoped_lock lock(help_mutex());
  help_catalog().insert_or_assign(std::move(name), std::move(help));
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::string(name)).first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::scoped_lock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c.value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g.value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    const LogHistogram hist = h.snapshot();
    MetricsSnapshot::HistogramEntry entry;
    entry.name = name;
    entry.count = hist.count();
    entry.p50 = hist.quantile(0.50);
    entry.p95 = hist.quantile(0.95);
    entry.p99 = hist.quantile(0.99);
    snap.histograms.push_back(std::move(entry));
  }
  snap.meta.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    snap.meta.push_back({name, MetricType::kCounter, metric_help(name)});
  }
  for (const auto& [name, g] : gauges_) {
    snap.meta.push_back({name, MetricType::kGauge, metric_help(name)});
  }
  for (const auto& [name, h] : histograms_) {
    snap.meta.push_back({name, MetricType::kHistogram, metric_help(name)});
  }
  std::sort(snap.meta.begin(), snap.meta.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock(mutex_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const noexcept {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

std::string MetricsSnapshot::to_text() const {
  // meta is sorted by name (see snapshot()); hand-built snapshots without
  // meta entries just get plain "name value" lines.
  const auto meta_of = [this](const std::string& name) -> const MetaEntry* {
    const auto it = std::lower_bound(
        meta.begin(), meta.end(), name,
        [](const MetaEntry& m, const std::string& n) { return m.name < n; });
    return it != meta.end() && it->name == name ? &*it : nullptr;
  };
  std::string out;
  const auto head = [&](const std::string& name) {
    if (const MetaEntry* m = meta_of(name)) {
      if (!m->help.empty()) {
        out += "# HELP ";
        out += name;
        out += ' ';
        out += m->help;
        out += '\n';
      }
      out += "# TYPE ";
      out += name;
      out += ' ';
      out += metric_type_name(m->type);
      out += '\n';
    }
  };
  for (const auto& [name, v] : counters) {
    head(name);
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  }
  for (const auto& [name, v] : gauges) {
    head(name);
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  }
  for (const auto& h : histograms) {
    head(h.name);
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s count=%zu p50=%.0f p95=%.0f p99=%.0f\n",
                  h.name.c_str(), h.count, h.p50, h.p95, h.p99);
    out += buf;
  }
  return out;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out.push_back(',');
    first = false;
    json_append_escaped(out, name);
    out.push_back(':');
    out += std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    json_append_escaped(out, name);
    out.push_back(':');
    out += std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms) {
    if (!first) out.push_back(',');
    first = false;
    json_append_escaped(out, h.name);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ":{\"count\":%zu,\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}",
                  h.count, h.p50, h.p95, h.p99);
    out += buf;
  }
  out += "},\"meta\":{";
  first = true;
  for (const auto& m : meta) {
    if (!first) out.push_back(',');
    first = false;
    json_append_escaped(out, m.name);
    out += ":{\"type\":";
    json_append_escaped(out, metric_type_name(m.type));
    out += ",\"help\":";
    json_append_escaped(out, m.help);
    out += '}';
  }
  out += "}}";
  return out;
}

// --- time-series layer -------------------------------------------------------

TimeSeries::TimeSeries(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TimeSeries::record(SimTime at, double value) {
  const std::scoped_lock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back({at, value});
  } else {
    ring_[head_] = {at, value};
    head_ = (head_ + 1) % capacity_;
  }
  ++total_;
}

std::size_t TimeSeries::size() const {
  const std::scoped_lock lock(mutex_);
  return ring_.size();
}

std::uint64_t TimeSeries::total_recorded() const {
  const std::scoped_lock lock(mutex_);
  return total_;
}

SeriesPoint TimeSeries::latest() const {
  const std::scoped_lock lock(mutex_);
  if (ring_.empty()) return {};
  const std::size_t last =
      ring_.size() < capacity_ ? ring_.size() - 1
                               : (head_ + capacity_ - 1) % capacity_;
  return ring_[last];
}

std::vector<SeriesPoint> TimeSeries::window_locked(SimTime since) const {
  std::vector<SeriesPoint> out;
  out.reserve(ring_.size());
  const std::size_t n = ring_.size();
  const std::size_t start = n < capacity_ ? 0 : head_;
  for (std::size_t i = 0; i < n; ++i) {
    const SeriesPoint& p = ring_[(start + i) % n];
    if (p.at >= since) out.push_back(p);
  }
  return out;
}

std::vector<SeriesPoint> TimeSeries::points() const {
  const std::scoped_lock lock(mutex_);
  return window_locked(kWholeSeries);
}

std::vector<SeriesPoint> TimeSeries::window(SimTime since) const {
  const std::scoped_lock lock(mutex_);
  return window_locked(since);
}

double TimeSeries::delta(SimTime since) const {
  const std::scoped_lock lock(mutex_);
  const auto w = window_locked(since);
  if (w.size() < 2) return 0.0;
  return w.back().value - w.front().value;
}

double TimeSeries::rate_per_sec(SimTime since) const {
  const std::scoped_lock lock(mutex_);
  const auto w = window_locked(since);
  if (w.size() < 2) return 0.0;
  const double elapsed = to_seconds(w.back().at - w.front().at);
  if (elapsed <= 0.0) return 0.0;
  return (w.back().value - w.front().value) / elapsed;
}

double TimeSeries::min(SimTime since) const {
  const std::scoped_lock lock(mutex_);
  const auto w = window_locked(since);
  if (w.empty()) return 0.0;
  double m = w.front().value;
  for (const auto& p : w) m = std::min(m, p.value);
  return m;
}

double TimeSeries::max(SimTime since) const {
  const std::scoped_lock lock(mutex_);
  const auto w = window_locked(since);
  if (w.empty()) return 0.0;
  double m = w.front().value;
  for (const auto& p : w) m = std::max(m, p.value);
  return m;
}

double TimeSeries::mean(SimTime since) const {
  const std::scoped_lock lock(mutex_);
  const auto w = window_locked(since);
  if (w.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& p : w) sum += p.value;
  return sum / static_cast<double>(w.size());
}

double TimeSeries::quantile(double q, SimTime since) const {
  const std::scoped_lock lock(mutex_);
  auto w = window_locked(since);
  if (w.empty()) return 0.0;
  std::vector<double> values;
  values.reserve(w.size());
  for (const auto& p : w) values.push_back(p.value);
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

MetricsHistory::MetricsHistory(std::size_t capacity_per_series)
    : capacity_(capacity_per_series == 0 ? 1 : capacity_per_series) {}

TimeSeries& MetricsHistory::series_for(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  const auto it = series_.find(name);
  if (it != series_.end()) return it->second;
  return series_.try_emplace(std::string(name), capacity_).first->second;
}

void MetricsHistory::sample(const MetricsSnapshot& snap, SimTime at) {
  for (const auto& [name, v] : snap.counters) {
    series_for(name).record(at, static_cast<double>(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    series_for(name).record(at, static_cast<double>(v));
  }
  for (const auto& h : snap.histograms) {
    series_for(h.name + ".count").record(at, static_cast<double>(h.count));
    series_for(h.name + ".p50").record(at, h.p50);
    series_for(h.name + ".p95").record(at, h.p95);
    series_for(h.name + ".p99").record(at, h.p99);
  }
  // Derived series: cumulative memo-table hit rate (r4). Hits and misses are
  // plain counters, so the division has to happen at sample time; 0 probes
  // records 0 so the series exists from the first sample.
  {
    double hits = 0;
    double misses = 0;
    for (const auto& [name, v] : snap.counters) {
      if (name == "broker.store.memo_hits") hits = static_cast<double>(v);
      if (name == "broker.store.memo_misses") misses = static_cast<double>(v);
    }
    const double probes = hits + misses;
    series_for("broker.memo.hit_rate").record(at, probes > 0 ? hits / probes : 0);
  }
  samples_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::string> MetricsHistory::names() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

const TimeSeries* MetricsHistory::series(std::string_view name) const {
  const std::scoped_lock lock(mutex_);
  const auto it = series_.find(name);
  return it != series_.end() ? &it->second : nullptr;
}

std::uint64_t MetricsHistory::samples_taken() const {
  return samples_.load(std::memory_order_relaxed);
}

MetricsSampler::MetricsSampler(MetricsHistory& history, SimTime interval,
                               Callback on_sample)
    : history_(history),
      interval_(interval > 0 ? interval : 100 * kMillisecond),
      on_sample_(std::move(on_sample)),
      thread_([this] { loop(); }) {}

MetricsSampler::~MetricsSampler() { stop(); }

void MetricsSampler::sample_now() {
  const SimTime now = clock_.now();
  history_.sample(MetricsRegistry::instance().snapshot(), now);
  if (on_sample_) on_sample_(now);
}

void MetricsSampler::stop() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsSampler::loop() {
  std::unique_lock lock(mutex_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::nanoseconds(interval_),
                 [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    sample_now();
    lock.lock();
  }
}

}  // namespace tasklets::metrics

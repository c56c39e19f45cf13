#include "core/ops.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/log.hpp"
#include "common/trace_analysis.hpp"

namespace tasklets::core {

namespace {
constexpr std::string_view kLog = "ops";

// JSON number from a double: finite values via %.9g (round-trips the
// precision the signals carry), non-finite rendered as 0 — JSON has no nan.
void append_num(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }
void append_i64(std::string& out, std::int64_t v) { out += std::to_string(v); }

void append_pool(std::string& out, const broker::PoolStats& pool) {
  out += "{\"providers\":";
  append_u64(out, pool.providers);
  out += ",\"confident\":";
  append_u64(out, pool.confident);
  out += ",\"heterogeneity\":";
  append_num(out, pool.heterogeneity);
  out += ",\"cv\":";
  append_num(out, pool.cv);
  out += ",\"mean_speed\":";
  append_num(out, pool.mean_speed);
  out += ",\"min_speed\":";
  append_num(out, pool.min_speed);
  out += ",\"max_speed\":";
  append_num(out, pool.max_speed);
  out += ",\"mean_health\":";
  append_num(out, pool.mean_health);
  out += ",\"min_health\":";
  append_num(out, pool.min_health);
  out += "}";
}

void append_alert(std::string& out, const health::Alert& alert) {
  out += "{\"rule\":";
  metrics::json_append_escaped(out, alert.rule);
  out += ",\"series\":";
  metrics::json_append_escaped(out, alert.series);
  out += ",\"value\":";
  append_num(out, alert.value);
  out += ",\"threshold\":";
  append_num(out, alert.threshold);
  out += ",\"fired_at\":";
  append_i64(out, alert.fired_at);
  out += ",\"cleared_at\":";
  append_i64(out, alert.cleared_at);
  out += ",\"active\":";
  out += alert.active ? "true" : "false";
  out += "}";
}

std::string error_json(std::string_view message) {
  std::string out = "{\"error\":";
  metrics::json_append_escaped(out, std::string_view(message));
  out += "}";
  return out;
}

// Tasklet id from "tasklet-12" or bare "12"; invalid id when unparseable.
TaskletId parse_tasklet_id(std::string_view text) {
  constexpr std::string_view kPrefix = "tasklet-";
  if (text.substr(0, kPrefix.size()) == kPrefix) {
    text.remove_prefix(kPrefix.size());
  }
  if (text.empty()) return TaskletId{};
  char* end = nullptr;
  const std::string copy(text);
  const std::uint64_t raw = std::strtoull(copy.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return TaskletId{};
  return TaskletId{raw};
}
}  // namespace

std::vector<health::HealthRule> parse_rules_lenient(
    const std::vector<std::string>& texts) {
  std::vector<health::HealthRule> rules;
  rules.reserve(texts.size());
  for (const std::string& text : texts) {
    auto parsed = health::parse_rule(text);
    if (!parsed.is_ok()) {
      TASKLETS_LOG(kWarn, kLog).kv("rule", text).kv(
          "error", parsed.status().message())
          << "skipping invalid health rule";
      continue;
    }
    rules.push_back(std::move(parsed).value());
  }
  return rules;
}

OpsPlane::OpsPlane(OpsConfig config, BrokerStateFn broker_state,
                   TraceStore* trace, bool start_sampler)
    : config_(std::move(config)),
      broker_state_(std::move(broker_state)),
      trace_(trace),
      history_(config_.series_capacity),
      engine_(parse_rules_lenient(config_.rules), trace) {
  if (config_.capture_logs) {
    // Tee the process logger into a ring for the admin `logs` command and
    // flight-recorder bundles; the previous sink keeps every record.
    log_ring_ = std::make_shared<RingBufferSink>(config_.log_buffer);
    previous_sink_ = Logger::instance().sink();
    Logger::instance().set_sink(std::make_shared<TeeSink>(
        std::vector<std::shared_ptr<LogSink>>{previous_sink_, log_ring_}));
    sink_installed_ = true;
  }
  if (config_.flight.enabled) {
    recorder_ = std::make_unique<FlightRecorder>(config_.flight);
    recorder_->set_log_source(log_ring_);
    if (trace_ != nullptr) {
      trace_->set_observer(
          [recorder = recorder_.get()](const Span& span) {
            recorder->record_span(span);
          });
    }
  }
  if (start_sampler) {
    // The sampler snapshots the registry into history_ itself, then calls
    // back for the rule pass.
    sampler_ = std::make_unique<metrics::MetricsSampler>(
        history_, config_.sample_interval,
        [this](SimTime now) { evaluate(now); });
  }
  if (config_.serve_admin) {
    admin_ = std::make_unique<net::AdminServer>(
        config_.admin_port,
        [this](const net::AdminRequest& request) { return handle(request); });
    if (!admin_->listening()) admin_.reset();
  }
}

OpsPlane::~OpsPlane() { stop(); }

void OpsPlane::sample(SimTime now) {
  history_.sample(metrics::MetricsRegistry::instance().snapshot(), now);
  evaluate(now);
}

void OpsPlane::evaluate(SimTime now) {
  SimTime expected = -1;
  first_sample_at_.compare_exchange_strong(expected, now,
                                           std::memory_order_relaxed);
  last_sample_at_.store(now, std::memory_order_relaxed);
  const std::vector<health::Alert> fired = engine_.evaluate(history_, now);
  if (recorder_ != nullptr && !fired.empty()) {
    // A rule newly fired: capture a postmortem bundle while the evidence is
    // still in the rings. Rate-limited inside the recorder.
    FlightRecorder::DumpContext ctx;
    ctx.reason = fired.front().rule;
    ctx.now = now;
    ctx.status_json = handle_status();
    ctx.alerts_json = handle_alerts();
    ctx.history = &history_;
    const auto result = recorder_->dump_to_file(ctx, /*triggered=*/true);
    if (!result.is_ok()) {
      TASKLETS_LOG(kDebug, kLog).kv("reason", ctx.reason).kv(
          "error", result.status().message())
          << "flight-recorder dump skipped";
    }
  }
}

void OpsPlane::stop() {
  // Sampler first (no new samples), then the listener — AdminServer::stop
  // joins in-flight handlers, so after this no request touches the plane.
  sampler_.reset();
  if (admin_ != nullptr) {
    admin_->stop();
    admin_.reset();
  }
  // Detach the span observer before the recorder dies, and give the logger
  // its previous sink back.
  if (trace_ != nullptr && recorder_ != nullptr) trace_->set_observer(nullptr);
  if (sink_installed_) {
    Logger::instance().set_sink(previous_sink_);
    previous_sink_.reset();
    sink_installed_ = false;
  }
}

SimTime OpsPlane::window_since(const net::AdminRequest& request) const {
  const std::string_view window = request.param("window");
  if (window.empty()) return metrics::kWholeSeries;
  const auto duration = health::parse_duration(window);
  if (!duration.is_ok()) return metrics::kWholeSeries;
  return now_anchor() - duration.value();
}

std::string OpsPlane::handle(const net::AdminRequest& request) {
  if (request.cmd == "status") return handle_status();
  if (request.cmd == "metrics") return handle_metrics(request);
  if (request.cmd == "series") return handle_series(request);
  if (request.cmd == "providers") return handle_providers();
  if (request.cmd == "alerts") return handle_alerts();
  if (request.cmd == "trace") return handle_trace(request);
  if (request.cmd == "top") return handle_top();
  if (request.cmd == "profile") return handle_profile(request);
  if (request.cmd == "logs") return handle_logs(request);
  if (request.cmd == "dump") return handle_dump();
  return error_json(
      "unknown command (try: status, metrics, series?name=, providers, "
      "alerts, trace?tasklet=, profile?tasklet=, logs?n=, dump, top)");
}

std::string OpsPlane::handle_status() {
  const BrokerState state = broker_state_ ? broker_state_() : BrokerState{};
  const SimTime first = first_sample_at_.load(std::memory_order_relaxed);
  const SimTime uptime = first >= 0 ? now_anchor() - first : 0;

  std::string out = "{\"uptime_ns\":";
  append_i64(out, uptime);
  out += ",\"samples\":";
  append_u64(out, history_.samples_taken());
  out += ",\"series\":";
  append_u64(out, history_.names().size());
  out += ",\"queue\":";
  append_u64(out, state.queue_length);
  out += ",\"pool\":";
  append_pool(out, state.pool);
  out += ",\"tasklets\":{\"submitted\":";
  append_u64(out, state.stats.tasklets_submitted);
  out += ",\"completed\":";
  append_u64(out, state.stats.tasklets_completed);
  out += ",\"failed\":";
  append_u64(out, state.stats.tasklets_failed);
  out += ",\"exhausted\":";
  append_u64(out, state.stats.tasklets_exhausted);
  out += ",\"deadline\":";
  append_u64(out, state.stats.tasklets_deadline);
  out += ",\"unschedulable\":";
  append_u64(out, state.stats.tasklets_unschedulable);
  out += "},\"attempts\":{\"issued\":";
  append_u64(out, state.stats.attempts_issued);
  out += ",\"ok\":";
  append_u64(out, state.stats.attempts_ok);
  out += ",\"lost\":";
  append_u64(out, state.stats.attempts_lost);
  out += ",\"reissues\":";
  append_u64(out, state.stats.reissues);
  out += ",\"reconciled\":";
  append_u64(out, state.stats.attempts_reconciled);
  out += ",\"straggler_reassigns\":";
  append_u64(out, state.stats.straggler_reassigns);
  out += ",\"speculations\":";
  append_u64(out, state.stats.speculations);
  out += ",\"migrations\":";
  append_u64(out, state.stats.migrations);
  out += "},\"alerts\":{\"fired\":";
  append_u64(out, engine_.fired_count());
  out += ",\"active\":";
  append_u64(out, engine_.active_alerts().size());
  out += "}}";
  return out;
}

std::string OpsPlane::handle_metrics(const net::AdminRequest& request) {
  std::string out = metrics::MetricsRegistry::instance().snapshot().to_json();
  const std::string_view window = request.param("window");
  if (window.empty()) return out;
  const auto duration = health::parse_duration(window);
  if (!duration.is_ok()) return out;
  // Graft windowed counter rates onto the snapshot object: replace the
  // closing brace with a "rates" section computed from the history.
  const SimTime since = now_anchor() - duration.value();
  out.pop_back();
  out += ",\"window_ns\":";
  append_i64(out, duration.value());
  out += ",\"rates\":{";
  bool first = true;
  for (const std::string& name : history_.names()) {
    const metrics::TimeSeries* series = history_.series(name);
    if (series == nullptr) continue;
    if (!first) out += ",";
    first = false;
    metrics::json_append_escaped(out, name);
    out += ":";
    append_num(out, series->rate_per_sec(since));
  }
  out += "}}";
  return out;
}

std::string OpsPlane::handle_series(const net::AdminRequest& request) {
  const std::string_view name = request.param("name");
  if (name.empty()) return error_json("series requires ?name=<metric>");
  const metrics::TimeSeries* series = history_.series(name);
  if (series == nullptr) return error_json("unknown series");
  const SimTime since = window_since(request);

  std::string out = "{\"name\":";
  metrics::json_append_escaped(out, name);
  out += ",\"points\":[";
  bool first = true;
  for (const metrics::SeriesPoint& point : series->window(since)) {
    if (!first) out += ",";
    first = false;
    out += "[";
    append_i64(out, point.at);
    out += ",";
    append_num(out, point.value);
    out += "]";
  }
  out += "],\"stats\":{\"count\":";
  append_u64(out, series->size());
  out += ",\"total_recorded\":";
  append_u64(out, series->total_recorded());
  out += ",\"latest\":";
  append_num(out, series->latest().value);
  out += ",\"delta\":";
  append_num(out, series->delta(since));
  out += ",\"rate_per_sec\":";
  append_num(out, series->rate_per_sec(since));
  out += ",\"min\":";
  append_num(out, series->min(since));
  out += ",\"max\":";
  append_num(out, series->max(since));
  out += ",\"mean\":";
  append_num(out, series->mean(since));
  out += ",\"p50\":";
  append_num(out, series->quantile(0.5, since));
  out += ",\"p95\":";
  append_num(out, series->quantile(0.95, since));
  out += ",\"p99\":";
  append_num(out, series->quantile(0.99, since));
  out += "}}";
  return out;
}

std::string OpsPlane::handle_providers() {
  const BrokerState state = broker_state_ ? broker_state_() : BrokerState{};
  std::string out = "{\"pool\":";
  append_pool(out, state.pool);
  out += ",\"providers\":[";
  bool first = true;
  for (const broker::ProviderView& view : state.providers) {
    if (!first) out += ",";
    first = false;
    out += "{\"id\":";
    metrics::json_append_escaped(out, view.id.to_string());
    out += ",\"class\":";
    metrics::json_append_escaped(out,
                                 proto::to_string(view.capability.device_class));
    out += ",\"slots\":";
    append_u64(out, view.capability.slots);
    out += ",\"busy\":";
    append_u64(out, view.busy_slots);
    out += ",\"advertised_speed\":";
    append_num(out, view.capability.speed_fuel_per_sec);
    out += ",\"measured_speed\":";
    append_num(out, view.measured_speed_fuel_per_sec);
    out += ",\"speed_samples\":";
    append_u64(out, view.speed_samples);
    out += ",\"effective_speed\":";
    append_num(out, view.effective_speed());
    out += ",\"reliability\":";
    append_num(out, view.observed_reliability);
    out += ",\"health\":";
    append_num(out, broker::health_score(view));
    out += ",\"warm\":";
    out += view.warm ? "true" : "false";
    out += ",\"completed\":";
    append_u64(out, view.completed);
    out += ",\"failed\":";
    append_u64(out, view.failed);
    out += ",\"straggler_fences\":";
    append_u64(out, view.straggler_fences);
    out += ",\"reconciled\":";
    append_u64(out, view.reconciled);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string OpsPlane::handle_alerts() {
  std::string out = "{\"fired\":";
  append_u64(out, engine_.fired_count());
  out += ",\"rules\":[";
  bool first = true;
  for (const health::HealthRule& rule : engine_.rules()) {
    if (!first) out += ",";
    first = false;
    metrics::json_append_escaped(out, rule.to_string());
  }
  out += "],\"active\":[";
  first = true;
  for (const health::Alert& alert : engine_.active_alerts()) {
    if (!first) out += ",";
    first = false;
    append_alert(out, alert);
  }
  out += "],\"log\":[";
  first = true;
  for (const health::Alert& alert : engine_.alert_log()) {
    if (!first) out += ",";
    first = false;
    append_alert(out, alert);
  }
  out += "]}";
  return out;
}

std::string OpsPlane::handle_trace(const net::AdminRequest& request) {
  if (trace_ == nullptr) {
    return error_json("tracing disabled (SystemConfig::tracing)");
  }
  const TaskletId id = parse_tasklet_id(request.param("tasklet"));
  if (!id.valid()) return error_json("trace requires ?tasklet=<id>");

  std::string out = "{\"tasklet\":";
  metrics::json_append_escaped(out, id.to_string());
  out += ",\"spans\":[";
  bool first = true;
  for (const Span& span : trace_->spans_for(id)) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    metrics::json_append_escaped(out, span.name);
    out += ",\"node\":";
    metrics::json_append_escaped(out, span.node.to_string());
    out += ",\"start\":";
    append_i64(out, span.start);
    out += ",\"end\":";
    append_i64(out, span.end);
    out += ",\"instant\":";
    out += span.instant ? "true" : "false";
    if (!span.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : span.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        metrics::json_append_escaped(out, key);
        out += ":";
        metrics::json_append_escaped(out, value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string OpsPlane::handle_top() {
  const BrokerState state = broker_state_ ? broker_state_() : BrokerState{};
  char line[256];
  std::string text;

  std::snprintf(line, sizeof line,
                "pool: %zu online (%zu confident)  het=%.3f  "
                "mean=%.3g fuel/s  queue=%zu\n",
                state.pool.providers, state.pool.confident,
                state.pool.heterogeneity, state.pool.mean_speed,
                state.queue_length);
  text += line;
  std::snprintf(line, sizeof line,
                "tasklets: %" PRIu64 " submitted  %" PRIu64 " completed  %"
                PRIu64 " failed  %" PRIu64 " exhausted  %" PRIu64
                " deadline\n",
                state.stats.tasklets_submitted, state.stats.tasklets_completed,
                state.stats.tasklets_failed, state.stats.tasklets_exhausted,
                state.stats.tasklets_deadline);
  text += line;
  std::snprintf(line, sizeof line,
                "attempts: %" PRIu64 " issued  %" PRIu64 " ok  %" PRIu64
                " lost  %" PRIu64 " straggler-fenced  %" PRIu64
                " reconciled\n",
                state.stats.attempts_issued, state.stats.attempts_ok,
                state.stats.attempts_lost, state.stats.straggler_reassigns,
                state.stats.attempts_reconciled);
  text += line;
  std::snprintf(line, sizeof line,
                "alerts: %" PRIu64 " fired  %zu active\n",
                engine_.fired_count(), engine_.active_alerts().size());
  text += line;
  std::snprintf(line, sizeof line,
                "%-12s %-8s %5s %5s %12s %12s %7s %5s %7s %6s %5s\n",
                "NODE", "CLASS", "SLOTS", "BUSY", "SPEED(adv)", "SPEED(meas)",
                "HEALTH", "WARM", "COMPL", "FENCED", "MEMO");
  text += line;
  for (const broker::ProviderView& view : state.providers) {
    const auto memo_it = state.memo_by_provider.find(view.id);
    const std::uint64_t memo_entries =
        memo_it == state.memo_by_provider.end() ? 0 : memo_it->second;
    std::snprintf(line, sizeof line,
                  "%-12s %-8s %5u %5u %12.3g %12.3g %7.2f %5s %7" PRIu64
                  " %6" PRIu64 " %5" PRIu64 "\n",
                  view.id.to_string().c_str(),
                  std::string(proto::to_string(view.capability.device_class))
                      .c_str(),
                  view.capability.slots, view.busy_slots,
                  view.capability.speed_fuel_per_sec,
                  view.measured_speed_fuel_per_sec, broker::health_score(view),
                  view.warm ? "y" : "-", view.completed,
                  view.straggler_fences + view.reconciled, memo_entries);
    text += line;
  }
  for (const health::Alert& alert : engine_.active_alerts()) {
    std::snprintf(line, sizeof line, "ALERT %s: %s = %.6g (threshold %.6g)\n",
                  alert.rule.c_str(), alert.series.c_str(), alert.value,
                  alert.threshold);
    text += line;
  }

  // Phase attribution over recent spans: the flight recorder's ring when one
  // runs (bounded, cheap), else the store while it is still small.
  std::vector<Span> spans;
  if (recorder_ != nullptr) {
    spans = recorder_->recent_spans();
  } else if (trace_ != nullptr && trace_->size() <= 65536) {
    spans = trace_->all();
  }
  if (!spans.empty()) {
    const analysis::WaitGraph graph = analysis::analyze_all(spans);
    if (graph.tasklets > 0) {
      std::snprintf(line, sizeof line,
                    "%-14s %7s %9s %9s %9s   (last %zu tasklets)\n", "PHASE",
                    "SHARE", "P50", "P95", "P99", graph.tasklets);
      text += line;
      for (std::size_t i = 0; i < analysis::kPhaseCount; ++i) {
        const analysis::PhaseAggregate& agg = graph.phases[i];
        const double share =
            graph.total > 0 ? 100.0 * static_cast<double>(agg.total) /
                                  static_cast<double>(graph.total)
                            : 0.0;
        std::snprintf(
            line, sizeof line, "%-14s %6.1f%% %9s %9s %9s\n",
            std::string(analysis::phase_name(static_cast<analysis::Phase>(i)))
                .c_str(),
            share,
            analysis::format_duration(static_cast<SimTime>(agg.quantile(0.5)))
                .c_str(),
            analysis::format_duration(static_cast<SimTime>(agg.quantile(0.95)))
                .c_str(),
            analysis::format_duration(static_cast<SimTime>(agg.quantile(0.99)))
                .c_str());
        text += line;
      }
    }
  }

  std::string out = "{\"text\":";
  metrics::json_append_escaped(out, text);
  out += "}";
  return out;
}

std::vector<Span> OpsPlane::spans_for_analysis(TaskletId id) const {
  std::vector<Span> spans;
  if (trace_ != nullptr) spans = trace_->spans_for(id);
  if (spans.empty() && recorder_ != nullptr) {
    spans = recorder_->recent_spans_for(id);
  }
  return spans;
}

std::string OpsPlane::handle_profile(const net::AdminRequest& request) {
  if (trace_ == nullptr && recorder_ == nullptr) {
    return error_json("tracing disabled (SystemConfig::tracing)");
  }
  const TaskletId id = parse_tasklet_id(request.param("tasklet"));
  if (!id.valid()) return error_json("profile requires ?tasklet=<id>");
  const std::vector<Span> spans = spans_for_analysis(id);
  if (spans.empty()) return error_json("no spans for " + id.to_string());

  const analysis::TaskletTrace trace = analysis::build_tasklet_trace(spans);
  std::string out = "{\"profile\":";
  out += analysis::breakdown_json(analysis::analyze_tasklet(trace));
  out += ",\"critical_path\":";
  metrics::json_append_escaped(out, analysis::critical_path_report(trace));
  out += "}";
  return out;
}

std::string OpsPlane::handle_logs(const net::AdminRequest& request) {
  if (log_ring_ == nullptr) {
    return error_json("log capture disabled (OpsConfig::capture_logs)");
  }
  std::size_t n = 50;
  const std::string_view param = request.param("n");
  if (!param.empty()) {
    char* end = nullptr;
    const std::string copy(param);
    const unsigned long long parsed = std::strtoull(copy.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      n = static_cast<std::size_t>(parsed);
    }
  }
  const std::vector<std::string> lines = log_ring_->lines();
  const std::size_t first_index = lines.size() > n ? lines.size() - n : 0;
  std::string out = "{\"count\":";
  append_u64(out, lines.size() - first_index);
  out += ",\"buffered\":";
  append_u64(out, lines.size());
  out += ",\"lines\":[";
  for (std::size_t i = first_index; i < lines.size(); ++i) {
    if (i > first_index) out += ",";
    metrics::json_append_escaped(out, lines[i]);
  }
  out += "]}";
  return out;
}

std::string OpsPlane::handle_dump() {
  if (recorder_ == nullptr) {
    return error_json("flight recorder disabled (OpsConfig::flight)");
  }
  FlightRecorder::DumpContext ctx;
  ctx.reason = "admin";
  ctx.now = now_anchor();
  ctx.status_json = handle_status();
  ctx.alerts_json = handle_alerts();
  ctx.history = &history_;
  const auto result = recorder_->dump_to_file(ctx, /*triggered=*/false);
  if (!result.is_ok()) return error_json(result.status().message());
  std::string out = "{\"path\":";
  metrics::json_append_escaped(out, result.value());
  out += ",\"dumps\":";
  append_u64(out, recorder_->dumps_written());
  out += "}";
  return out;
}

}  // namespace tasklets::core

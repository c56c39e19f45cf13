// taskletc — the Tasklet toolchain CLI.
//
//   taskletc build <file.tcl> [-o out.tvm] [--entry NAME]
//       Compile + verify a TCL source file to a portable bytecode file.
//   taskletc dis <file.tvm | file.tcl> [--plan]
//       Print the bytecode listing (compiles first when given source). With
//       --plan, print what the fast engine runs instead: speculated
//       parameter tags, block leaders, and the quickened or fused op per ip.
//   taskletc run <file.tcl | file.tvm> [ARG...] [--profile] [--json]
//       Execute locally in the TVM and print result + fuel. With --profile,
//       also print the per-opcode execution profile (counts + cycle time);
//       --json emits one machine-readable JSON object instead.
//   taskletc exec <file.tcl | file.tvm> [ARG...] [--providers N] [--redundancy R]
//       Execute through the full middleware (broker + N in-process providers).
//   taskletc serve [--providers N] [--stragglers K] [--port P] [--duration S]
//                  [--trace-out FILE] [--dump-dir DIR]
//       Run a live cluster with emulated stragglers, the ops plane enabled
//       and the admin endpoint listening; feeds a continuous workload. The
//       flight recorder is on: health-rule firings dump postmortem bundles
//       into --dump-dir. --trace-out streams the Chrome trace to disk
//       incrementally (bounded memory however long the run).
//   taskletc top <port> [--watch]
//       One-shot (or 1 Hz refreshing) cluster summary from a serve endpoint,
//       including the phase-attribution columns over recent tasklets.
//   taskletc analyze <trace.json|bundle.json> [baseline.json]
//       Offline trace analysis: wait-graph report (per-phase totals and
//       p50/p95/p99, per-provider time-in-phase) plus critical-path reports
//       for the slowest tasklets. With a second file, also prints an A/B
//       regression diff (first file = A/baseline, second = B).
//
// Arguments: integers (42), floats (3.5 — must contain '.' or 'e'), or
// comma-separated arrays (1,2,3 / 1.5,2.5). Array element types follow the
// first element.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace_analysis.hpp"
#include "core/system.hpp"
#include "net/admin.hpp"
#include "tcl/compiler.hpp"
#include "tvm/assembler.hpp"
#include "tvm/interpreter.hpp"
#include "tvm/verifier.hpp"

namespace {

using namespace tasklets;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  taskletc build <file.tcl> [-o out.tvm] [--entry NAME]\n"
               "  taskletc dis   <file.tvm|file.tcl> [--plan]\n"
               "  taskletc run   <file.tcl|file.tvm> [ARG...] [--profile]"
               " [--json]\n"
               "  taskletc exec  <file.tcl|file.tvm> [ARG...] [--providers N]"
               " [--redundancy R]\n"
               "  taskletc serve [--providers N] [--stragglers K] [--port P]"
               " [--duration S]\n"
               "                 [--rate R] [--trace-out FILE] [--dump-dir DIR]\n"
               "  taskletc top   <port> [--watch]\n"
               "  taskletc analyze <trace.json|bundle.json> [baseline.json]\n");
  return 2;
}

Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return make_error(StatusCode::kNotFound, "cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status write_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return make_error(StatusCode::kInternal, "cannot write '" + path + "'");
  }
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out ? Status::ok()
             : make_error(StatusCode::kInternal, "short write to '" + path + "'");
}

bool has_suffix(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Loads a program from .tvm bytecode or compiles .tcl source.
Result<tvm::Program> load_program(const std::string& path,
                                  std::string_view entry = "main") {
  TASKLETS_ASSIGN_OR_RETURN(auto contents, read_file(path));
  if (has_suffix(path, ".tvm")) {
    const auto* bytes = reinterpret_cast<const std::byte*>(contents.data());
    TASKLETS_ASSIGN_OR_RETURN(
        auto program,
        tvm::Program::deserialize(std::span(bytes, contents.size())));
    TASKLETS_RETURN_IF_ERROR(tvm::verify(program));
    return program;
  }
  tcl::CompileOptions options;
  options.entry = entry;
  return tcl::compile(contents, options);
}

bool looks_float(const std::string& token) {
  return token.find('.') != std::string::npos ||
         token.find('e') != std::string::npos ||
         token.find('E') != std::string::npos;
}

Result<tvm::HostArg> parse_arg(const std::string& token) {
  if (token.empty()) {
    return make_error(StatusCode::kInvalidArgument, "empty argument");
  }
  if (token.find(',') != std::string::npos) {
    std::vector<std::string> parts;
    std::stringstream stream(token);
    std::string part;
    while (std::getline(stream, part, ',')) parts.push_back(part);
    if (parts.empty()) {
      return make_error(StatusCode::kInvalidArgument, "empty array argument");
    }
    if (looks_float(parts[0])) {
      std::vector<double> values;
      for (const auto& p : parts) values.push_back(std::strtod(p.c_str(), nullptr));
      return tvm::HostArg{std::move(values)};
    }
    std::vector<std::int64_t> values;
    for (const auto& p : parts) values.push_back(std::strtoll(p.c_str(), nullptr, 10));
    return tvm::HostArg{std::move(values)};
  }
  if (looks_float(token)) {
    return tvm::HostArg{std::strtod(token.c_str(), nullptr)};
  }
  char* end = nullptr;
  const std::int64_t value = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) {
    return make_error(StatusCode::kInvalidArgument,
                      "cannot parse argument '" + token + "'");
  }
  return tvm::HostArg{value};
}

void print_result(const tvm::HostArg& result) {
  std::printf("%s\n", tvm::to_string(result).c_str());
}

int cmd_build(const std::vector<std::string>& args) {
  std::string input, output, entry = "main";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) {
      output = args[++i];
    } else if (args[i] == "--entry" && i + 1 < args.size()) {
      entry = args[++i];
    } else if (input.empty()) {
      input = args[i];
    } else {
      return usage();
    }
  }
  if (input.empty()) return usage();
  if (output.empty()) {
    output = input;
    if (has_suffix(output, ".tcl")) output.resize(output.size() - 4);
    output += ".tvm";
  }
  auto program = load_program(input, entry);
  if (!program.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", input.c_str(),
                 program.status().to_string().c_str());
    return 1;
  }
  const Bytes encoded = program->serialize();
  if (const Status s = write_file(output, encoded); !s.is_ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("%s: %zu function(s), %zu instruction(s), %zu bytes -> %s\n",
              input.c_str(), program->function_count(),
              program->instruction_count(), encoded.size(), output.c_str());
  return 0;
}

int cmd_dis(const std::vector<std::string>& args) {
  std::string input;
  bool show_plan = false;
  for (const std::string& arg : args) {
    if (arg == "--plan") {
      show_plan = true;
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage();
    }
  }
  if (input.empty()) return usage();
  auto program = load_program(input);
  if (!program.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", input.c_str(),
                 program.status().to_string().c_str());
    return 1;
  }
  if (!show_plan) {
    std::fputs(tvm::disassemble(*program).c_str(), stdout);
    return 0;
  }
  auto plan = tvm::analyze(*program);
  if (!plan.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", input.c_str(),
                 plan.status().to_string().c_str());
    return 1;
  }
  std::fputs(tvm::plan_listing(*program, *plan).c_str(), stdout);
  return 0;
}

Result<std::vector<tvm::HostArg>> parse_args(const std::vector<std::string>& tokens,
                                             std::size_t start) {
  std::vector<tvm::HostArg> out;
  for (std::size_t i = start; i < tokens.size(); ++i) {
    if (tokens[i].rfind("--", 0) == 0) break;
    TASKLETS_ASSIGN_OR_RETURN(auto arg, parse_arg(tokens[i]));
    out.push_back(std::move(arg));
  }
  return out;
}

int cmd_run(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  bool want_profile = false;
  bool want_json = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--profile") want_profile = true;
    if (args[i] == "--json") want_json = true;
  }
  auto program = load_program(args[0]);
  if (!program.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", args[0].c_str(),
                 program.status().to_string().c_str());
    return 1;
  }
  auto call_args = parse_args(args, 1);
  if (!call_args.is_ok()) {
    std::fprintf(stderr, "%s\n", call_args.status().to_string().c_str());
    return 1;
  }
  tvm::ExecProfile profile;
  const auto outcome = tvm::execute(*program, *call_args, {},
                                    want_profile ? &profile : nullptr);
  if (!outcome.is_ok()) {
    std::fprintf(stderr, "trap: %s\n", outcome.status().to_string().c_str());
    if (want_profile && !want_json) {
      std::fputs(profile.to_string().c_str(), stderr);
    }
    return 1;
  }
  if (want_json) {
    // One JSON object on stdout for scripted consumers.
    std::string out = "{\"result\":";
    metrics::json_append_escaped(out, tvm::to_string(outcome->result));
    out += ",\"fuel\":" + std::to_string(outcome->fuel_used);
    out += ",\"instructions\":" + std::to_string(outcome->instructions);
    if (want_profile) out += ",\"profile\":" + profile.to_json();
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
  }
  print_result(outcome->result);
  std::fprintf(stderr, "fuel: %llu\n",
               static_cast<unsigned long long>(outcome->fuel_used));
  if (want_profile) std::fputs(profile.to_string().c_str(), stderr);
  return 0;
}

int cmd_exec(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  int providers = 2;
  int redundancy = 1;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--providers" && i + 1 < args.size()) {
      providers = std::atoi(args[++i].c_str());
    } else if (args[i] == "--redundancy" && i + 1 < args.size()) {
      redundancy = std::atoi(args[++i].c_str());
    }
  }
  auto program = load_program(args[0]);
  if (!program.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", args[0].c_str(),
                 program.status().to_string().c_str());
    return 1;
  }
  auto call_args = parse_args(args, 1);
  if (!call_args.is_ok()) {
    std::fprintf(stderr, "%s\n", call_args.status().to_string().c_str());
    return 1;
  }

  core::TaskletSystem system;
  for (int i = 0; i < std::max(1, providers); ++i) system.add_provider();
  proto::VmBody body;
  body.program = program->serialize();
  body.args = std::move(*call_args);
  proto::Qoc qoc;
  qoc.redundancy = static_cast<std::uint8_t>(std::max(1, redundancy));
  auto future = system.submit(proto::TaskletBody{std::move(body)}, qoc);
  const proto::TaskletReport report = future.get();
  if (report.status != proto::TaskletStatus::kCompleted) {
    std::fprintf(stderr, "failed (%s): %s\n",
                 std::string(proto::to_string(report.status)).c_str(),
                 report.error.c_str());
    return 1;
  }
  print_result(report.result);
  std::fprintf(stderr, "fuel: %llu  attempts: %u  executed by: %s  latency: %s\n",
               static_cast<unsigned long long>(report.fuel_used), report.attempts,
               report.executed_by.to_string().c_str(),
               format_duration(report.latency).c_str());
  return 0;
}

// Workload kernel for `serve`: enough fuel per tasklet that a 25x straggler
// visibly lags, little enough that fast providers finish in milliseconds.
constexpr std::string_view kServeKernel = R"(
  int main(int n) {
    int s = 0;
    for (int i = 1; i <= n; i = i + 1) { s = s + i % 7; }
    return s;
  }
)";

int cmd_serve(const std::vector<std::string>& args) {
  int providers = 4;
  int stragglers = 1;
  int port = 0;
  int duration_s = 20;
  int rate = 50;  // submissions per second
  std::string trace_out;
  std::string dump_dir;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--providers" && i + 1 < args.size()) {
      providers = std::atoi(args[++i].c_str());
    } else if (args[i] == "--stragglers" && i + 1 < args.size()) {
      stragglers = std::atoi(args[++i].c_str());
    } else if (args[i] == "--port" && i + 1 < args.size()) {
      port = std::atoi(args[++i].c_str());
    } else if (args[i] == "--duration" && i + 1 < args.size()) {
      duration_s = std::atoi(args[++i].c_str());
    } else if (args[i] == "--rate" && i + 1 < args.size()) {
      rate = std::atoi(args[++i].c_str());
    } else if (args[i] == "--trace-out" && i + 1 < args.size()) {
      trace_out = args[++i];
    } else if (args[i] == "--dump-dir" && i + 1 < args.size()) {
      dump_dir = args[++i];
    } else {
      return usage();
    }
  }

  core::SystemConfig config;
  config.tracing = true;
  // Round-robin so stragglers actually receive work (the selective policies
  // would shun them and the defense would have nothing to defend against).
  config.scheduler = "round_robin";
  config.broker.scan_interval = 100 * kMillisecond;
  config.broker.straggler_multiplier = 2.0;
  // p75 rather than the broker's p95 default: with up to ~1/4 of the pool
  // deliberately degraded, a higher quantile lands inside the slow cluster
  // itself and the bound would then never call anything a straggler.
  config.broker.straggler_quantile = 0.75;
  config.broker.straggler_min_samples = 10;
  config.ops.enabled = true;
  config.ops.admin_port = static_cast<std::uint16_t>(port);
  config.ops.sample_interval = 100 * kMillisecond;
  config.ops.rules = {
      "stragglers: broker.straggler_reassigns > 0",
      "queue_deep: broker.queue_depth > 200 for 2s",
      "het_high: broker.pool.heterogeneity > 900000 for 5s",
  };
  if (!dump_dir.empty()) {
    // Flight recorder on: health-rule firings dump postmortem bundles.
    config.ops.flight.enabled = true;
    config.ops.flight.dump_dir = dump_dir;
    config.ops.flight.min_dump_interval = 2 * kSecond;
    config.ops.flight.max_dumps = 4;
  }

  core::TaskletSystem system(config);
  for (int i = 0; i < std::max(1, providers); ++i) system.add_provider();
  for (int i = 0; i < stragglers; ++i) {
    core::ProviderOptions options;
    options.slowdown = 50.0;
    system.add_provider(options);
  }
  if (system.ops() == nullptr || !system.ops()->admin_listening()) {
    std::fprintf(stderr, "failed to start the admin endpoint\n");
    return 1;
  }
  // CI and `taskletc top` parse this line for the resolved port.
  std::printf("admin listening on 127.0.0.1:%u\n", system.ops()->admin_port());
  std::fflush(stdout);

  std::unique_ptr<ChromeTraceWriter> trace_writer;
  if (!trace_out.empty()) {
    trace_writer = std::make_unique<ChromeTraceWriter>(trace_out);
    if (!trace_writer->ok()) {
      std::fprintf(stderr, "cannot write trace to '%s'\n", trace_out.c_str());
      return 1;
    }
  }
  // Moves completed spans out of the store and onto disk so arbitrarily long
  // runs stay memory-bounded (the store cap would otherwise silently drop).
  const auto drain_trace = [&] {
    if (trace_writer && system.trace_store() != nullptr) {
      trace_writer->write_all(system.trace_store()->drain());
    }
  };

  std::uint64_t sequence = 0;
  std::uint64_t completed = 0;
  std::deque<std::future<proto::TaskletReport>> outstanding;
  const auto drain_ready = [&] {
    while (!outstanding.empty() &&
           outstanding.front().wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      if (outstanding.front().get().status == proto::TaskletStatus::kCompleted) {
        ++completed;
      }
      outstanding.pop_front();
    }
  };

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(std::max(1, duration_s));
  const auto gap = std::chrono::microseconds(1'000'000 / std::max(1, rate));
  while (duration_s == 0 || std::chrono::steady_clock::now() < deadline) {
    // Distinct argument per submission: identical (program, args) pairs
    // would be answered from the broker's memo table without executing.
    auto body = core::compile_tasklet(
        kServeKernel, {static_cast<std::int64_t>(30'000 + sequence % 10'000)});
    if (!body.is_ok()) {
      std::fprintf(stderr, "compile error: %s\n",
                   body.status().to_string().c_str());
      return 1;
    }
    ++sequence;
    outstanding.push_back(system.submit(std::move(*body)));
    drain_ready();
    // Backpressure: never let the submission loop outrun the pool unboundedly.
    while (outstanding.size() > 2000) {
      outstanding.front().wait();
      drain_ready();
    }
    if (sequence % 64 == 0) drain_trace();
    std::this_thread::sleep_for(gap);
  }
  while (!outstanding.empty()) {
    outstanding.front().wait();
    drain_ready();
  }
  const broker::BrokerStats stats = system.broker_stats();
  core::OpsPlane* ops = system.ops();
  std::printf("served %llu tasklets (%llu completed)  straggler fences: %llu  "
              "alerts fired: %llu\n",
              static_cast<unsigned long long>(sequence),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(stats.straggler_reassigns),
              static_cast<unsigned long long>(
                  ops->rule_engine().fired_count()));
  if (ops->flight_recorder() != nullptr) {
    std::printf("flight bundles written: %llu (dir %s)\n",
                static_cast<unsigned long long>(
                    ops->flight_recorder()->dumps_written()),
                dump_dir.c_str());
  }
  if (trace_writer) {
    drain_trace();
    trace_writer->finish();
    std::printf("trace: %zu events -> %s\n", trace_writer->written(),
                trace_out.c_str());
  }
  return 0;
}

// Spans belonging to one tasklet, for per-tasklet tree reconstruction.
std::vector<Span> spans_of(const std::vector<Span>& all, TaskletId id) {
  std::vector<Span> out;
  for (const Span& span : all) {
    if (span.tasklet == id) out.push_back(span);
  }
  return out;
}

// Loads a trace artifact (Chrome trace JSON or flight-recorder bundle) into
// spans. Errors are printed; nullopt-style empty Result signals failure.
Result<std::vector<Span>> load_trace(const std::string& path) {
  TASKLETS_ASSIGN_OR_RETURN(const std::string text, read_file(path));
  return analysis::parse_trace_json(text);
}

int cmd_analyze(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) return usage();
  auto spans = load_trace(args[0]);
  if (!spans.is_ok()) {
    std::fprintf(stderr, "%s: %s\n", args[0].c_str(),
                 spans.status().to_string().c_str());
    return 1;
  }
  const analysis::WaitGraph graph = analysis::analyze_all(*spans);
  if (graph.tasklets == 0) {
    std::fprintf(stderr, "%s: no tasklet spans found\n", args[0].c_str());
    return 1;
  }
  std::printf("== %s ==\n%s", args[0].c_str(),
              analysis::wait_graph_report(graph).c_str());

  // Critical paths for the slowest few tasklets — the ones worth reading.
  const std::size_t shown = std::min<std::size_t>(3, graph.slowest.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const auto trace =
        analysis::build_tasklet_trace(spans_of(*spans, graph.slowest[i].first));
    std::printf("\n%s", analysis::critical_path_report(trace).c_str());
  }

  if (args.size() == 2) {
    auto spans_b = load_trace(args[1]);
    if (!spans_b.is_ok()) {
      std::fprintf(stderr, "%s: %s\n", args[1].c_str(),
                   spans_b.status().to_string().c_str());
      return 1;
    }
    const analysis::WaitGraph graph_b = analysis::analyze_all(*spans_b);
    if (graph_b.tasklets == 0) {
      std::fprintf(stderr, "%s: no tasklet spans found\n", args[1].c_str());
      return 1;
    }
    std::printf("\n== %s ==\n%s", args[1].c_str(),
                analysis::wait_graph_report(graph_b).c_str());
    std::printf("\n== diff (A=%s, B=%s) ==\n%s", args[0].c_str(),
                args[1].c_str(),
                analysis::wait_graph_diff(graph, graph_b).c_str());
  }
  return 0;
}

// Pulls the "text" field out of the admin `top` response — the one JSON
// string the response contains, so a targeted unescape beats a parser.
std::string extract_text_field(const std::string& response) {
  const auto key = response.find("\"text\":\"");
  if (key == std::string::npos) return response + "\n";
  std::string out;
  for (std::size_t i = key + 8; i < response.size(); ++i) {
    const char c = response[i];
    if (c == '"') break;
    if (c != '\\' || i + 1 >= response.size()) {
      out.push_back(c);
      continue;
    }
    const char esc = response[++i];
    switch (esc) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'u':
        // json_append_escaped only emits \u00XX for control bytes.
        if (i + 4 < response.size()) {
          out.push_back(static_cast<char>(
              std::strtol(response.substr(i + 1, 4).c_str(), nullptr, 16)));
          i += 4;
        }
        break;
      default: out.push_back(esc); break;
    }
  }
  return out;
}

int cmd_top(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const int port = std::atoi(args[0].c_str());
  bool watch = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--watch") watch = true;
  }
  if (port <= 0 || port > 65535) return usage();
  while (true) {
    const std::string response =
        net::admin_query(static_cast<std::uint16_t>(port), "top");
    if (response.empty()) {
      std::fprintf(stderr, "no response from 127.0.0.1:%d\n", port);
      return 1;
    }
    if (watch) std::printf("\033[H\033[2J");
    std::fputs(extract_text_field(response).c_str(), stdout);
    std::fflush(stdout);
    if (!watch) return 0;
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "build") return cmd_build(args);
  if (command == "dis") return cmd_dis(args);
  if (command == "run") return cmd_run(args);
  if (command == "exec") return cmd_exec(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "top") return cmd_top(args);
  if (command == "analyze") return cmd_analyze(args);
  return usage();
}

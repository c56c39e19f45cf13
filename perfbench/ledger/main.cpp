// tasklet_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload of the tasklet ledger and prints its result as the last
// stdout line. Workloads: dispatch_serial, pipeline_tcp, placement_pool,
// kernel_fanout (see perfbench/README.md).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "ledger.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tasklet_ledger --workload <dispatch_serial|pipeline_tcp|"
               "placement_pool|kernel_fanout> --seed <n> --seconds <s> "
               "--trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ledger::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return usage();

  const std::map<std::string, void (*)(const ledger::Options&, ledger::Report&)>
      workloads = {
          {"dispatch_serial", ledger::run_dispatch_serial},
          {"pipeline_tcp", ledger::run_pipeline_tcp},
          {"placement_pool", ledger::run_placement_pool},
          {"kernel_fanout", ledger::run_kernel_fanout},
      };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) return usage();

  ledger::print_host_context(options);
  ledger::Report report;
  try {
    it->second(options, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tasklet_ledger: %s\n", e.what());
    return 1;
  }
  report.print_result();
  return report.correct() ? 0 : 1;
}

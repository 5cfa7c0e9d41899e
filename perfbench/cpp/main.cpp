// perfbench — end-to-end benchmark of the `ssched --serve` schedule
// server. See ../README.md for the workloads, metrics and how to run it.
//
//   perfbench --workload hit|cold|churn --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_SSCHED
#error "PERFBENCH_SSCHED must name the ssched binary"
#endif

int main(int argc, char** argv) {
  using namespace ss::perfbench;
  Options options;
  options.ssched = PERFBENCH_SSCHED;
  options.trace_out = ".perfbench-trace";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      if (!ParseWorkload(value, &options.workload)) {
        std::fprintf(stderr, "error: unknown workload '%s'\n", value);
        return 2;
      }
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (!have_workload || options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hit|cold|churn --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  return options.trace ? RunTraced(options) : RunTimed(options);
}

// perfbench_driver: runs one benchmark workload through the anonpath
// library and prints its result as one JSON object on the last line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file.jsonl>]
//   perfbench_driver --profile     (prints the build profile and exits)
//
// perfbench/run.py builds this program and wraps it; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/harness.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_driver --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*s == '-' || end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--profile") {
      std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s %s\"}\n",
                  PERFBENCH_BUILD_TYPE,
#if defined(__clang__)
                  "clang",
#else
                  "gcc",
#endif
                  __VERSION__);
      return 0;
    }
    if (i + 1 >= argc) usage("missing value for flag");
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, opt.seed)) usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 3600)
        usage("--seconds takes an integer in [1, 3600]");
      opt.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parse_u64(value, n) || n > 1) usage("--trace takes 0 or 1");
      opt.trace = n == 1;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return perfbench::run(opt);
}

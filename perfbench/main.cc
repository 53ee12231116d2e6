// Benchmark binary: runs one workload from its seed and prints, as the last
// line of standard output, one JSON object with the keys correct, attempted,
// failed and metrics. See README.md for the workloads and metrics.
//
//   perfbench --workload <cosearch|infer|das> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--spans-out <csv>]
//             [--git-sha <sha>]
#include <sched.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common.h"
#include "tensor/backend/backend.h"

extern char** environ;

namespace {

using perfbench::Options;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <cosearch|infer|das> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--spans-out <csv>] [--git-sha <sha>]\n";
  return 2;
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(colon + (colon + 1 < line.size() ? 2 : 1));
      }
    }
  }
  return "unknown";
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--spans-out") {
        opt.spans_out = value();
      } else if (arg == "--git-sha") {
        opt.git_sha = value();
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!have_seed || !have_seconds || !have_trace || !(opt.seconds > 0)) {
    return usage("--workload, --seed, --seconds > 0 and --trace are required");
  }
  if (opt.workload != "cosearch" && opt.workload != "infer" &&
      opt.workload != "das") {
    return usage("unknown workload '" + opt.workload + "'");
  }

  // Every workload runs with the program's defaults: a tuning variable left
  // in the environment (A3CS_THREADS, A3CS_BACKEND, A3CS_PROFILE, ...) would
  // change what is measured.
  bool tuned = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "A3CS_", 5) == 0) {
      std::cerr << "perfbench: refusing to run with " << *e << " set\n";
      tuned = true;
    }
  }
  if (tuned) return 2;

  perfbench::Report report(opt.trace);
  report.meta("workload", opt.workload);
  report.meta("seed", static_cast<double>(opt.seed));
  report.meta("seconds", opt.seconds);
  report.meta("trace", opt.trace ? 1.0 : 0.0);
  report.meta("smoke", opt.smoke ? 1.0 : 0.0);
  report.meta("git_sha", opt.git_sha);
  report.meta("nproc", available_cpus());
  report.meta("cpu_model", cpuinfo_field("model name"));
  report.meta("cpu_flags", cpuinfo_field("flags"));
  report.meta("backend", a3cs::tensor::backend::active().name);
  report.meta("threads", 1);  // every timed loop runs on one thread
  try {
    if (opt.workload == "infer") {
      perfbench::run_infer(opt, report);
    } else if (opt.workload == "das") {
      perfbench::run_das(opt, report);
    } else {
      perfbench::run_cosearch(opt, report);
    }
    if (opt.trace && !opt.spans_out.empty()) {
      perfbench::tracer().write_csv(opt.spans_out);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  report.print();
  return 0;
}

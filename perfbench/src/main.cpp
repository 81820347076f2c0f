// perfbench — runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--pins <dir>] [--trace-out <file>] [--commit <sha>]
//
// The last line of standard output is the JSON result; GLOSSARY.md lists
// the workloads and metrics. Exit code 0 means every output check passed.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* what) {
  std::cerr << "perfbench: " << what
            << "\nusage: perfbench --workload matching-64k|hpl-128|serve-mix|"
               "campaign-adaptive --seed N --seconds S --trace 0|1 "
               "[--pins DIR] [--trace-out FILE] [--commit SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.pins_dir = "perfbench/pins";
  opt.trace_out = "perfbench-trace.jsonl";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (flag == "--pins") {
        opt.pins_dir = value;
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else if (flag == "--commit") {
        opt.commit = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::Report report;
  try {
    if (opt.workload == "matching-64k") {
      perfbench::run_matching(opt, report);
    } else if (opt.workload == "hpl-128") {
      perfbench::run_hpl(opt, report);
    } else if (opt.workload == "serve-mix") {
      perfbench::run_serve(opt, report);
    } else if (opt.workload == "campaign-adaptive") {
      perfbench::run_campaign(opt, report);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  return perfbench::emit(opt, report);
}

// tetri_perfbench: runs one benchmark workload and prints its result.
//
//   tetri_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--smoke] [--work-dir <dir>]
//
// Workloads: grmix_ng_backlog, svc_openloop. The last line
// of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..},
//    "info": {..}, "violations": [..]}
// perfbench/run.py builds this binary, runs it and reshapes that line into
// the benchmark's result. The exit code is 1 when any correctness check
// failed, 2 on bad arguments.

#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness/report.h"
#include "src/common/json.h"
#include "src/common/logging.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--workload" && value(&v)) {
      options->workload = v;
    } else if (arg == "--seed" && value(&v)) {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && value(&v)) {
      options->seconds = std::atof(v);
    } else if (arg == "--trace" && value(&v)) {
      options->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir" && value(&v)) {
      options->work_dir = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--work-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  // Library warnings (e.g. a certifier reject) go to stderr; keep stdout
  // for the harness's own lines.
  tetrisched::SetLogLevel(tetrisched::LogLevel::kError);

  perfbench::Report report;
  report.Info("workload", options.workload);
  report.Info("seed", static_cast<double>(options.seed));
  report.Info("trace", options.trace ? 1.0 : 0.0);
  report.Info("nproc",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("build_type", PERFBENCH_BUILD_TYPE);
  report.Info("compiler", PERFBENCH_COMPILER);
  struct utsname host {};
  if (uname(&host) == 0) {
    report.Info("machine", host.machine);
  }

  if (options.workload == "svc_openloop") {
    perfbench::RunServiceWorkload(options, &report);
  } else {
    perfbench::RunSimWorkload(options, &report);
  }

  tetrisched::JsonArr violations;
  for (const std::string& violation : report.violations()) {
    std::fprintf(stderr, "correctness violation: %s\n", violation.c_str());
    violations.Add(violation);
  }
  std::printf("%s\n",
              tetrisched::JsonObj()
                  .Field("correct", report.correct())
                  .Field("attempted", report.attempted)
                  .Field("failed", report.failed)
                  .FieldRaw("metrics", report.MetricsJson())
                  .FieldRaw("info", report.InfoJson())
                  .FieldRaw("violations", violations.str())
                  .str()
                  .c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

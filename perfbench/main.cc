// FeMux benchmark driver.
//
// Usage:
//   femux_perfbench --workload fleet_stream|femux|daemon_tick --seed N
//                   --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a provenance line, a detail line and, last, one JSON object with
// the keys correct, attempted, failed and metrics (end-to-end metrics when
// --trace 0, per-layer metrics when --trace 1). Exits non-zero on bad
// arguments or when a metric cannot be produced.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "perfbench/report.h"
#include "perfbench/workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") {
        return false;
      }
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: femux_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  args.threads = nproc > 0 ? static_cast<std::size_t>(nproc) : 1;
  // The daemon keeps one generator thread busy beside the tick pool, so
  // its pool gets one thread less; the pool is sized on first use.
  const std::size_t pool =
      args.workload == "daemon_tick" && args.threads > 1 ? args.threads - 1 : args.threads;
  setenv("FEMUX_THREADS", std::to_string(pool).c_str(), 1);
  if (args.work_dir.empty()) {
    args.work_dir = std::filesystem::temp_directory_path().string();
  }

  perfbench::Report report;
  try {
    if (args.workload == "fleet_stream") {
      perfbench::RunFleetStream(args, &report);
    } else if (args.workload == "femux") {
      perfbench::RunFemux(args, &report);
    } else if (args.workload == "daemon_tick") {
      perfbench::RunDaemonTick(args, &report);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "workload %s failed: %s\n", args.workload.c_str(), error.what());
    return 1;
  }
  std::printf("%s\n", perfbench::ProvenanceJson(args).c_str());
  return report.Print(args.trace) ? 0 : 1;
}

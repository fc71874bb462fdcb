// DART benchmark program: one process runs one workload for one seed.
//
//   dart_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --records <file> --work-dir <dir> [--record]
//
// Workloads: replay-dart, replay-rules, serve-open, sweep-cell (see
// perfbench/NOTES.md). Set-up (building the seed's inputs) runs kSetupReps
// times and setup_s is the median. `--trace 0` prints the end-to-end metrics,
// `--trace 1` runs the separate traced measurement and prints the per-layer
// metrics. The last stdout line is the result object; the line before it
// carries the host fingerprint and the workload-specific numbers.
// `--record` runs one repetition and prints the seed's record line
// ("<workload> <seed> <build key> <digest>") instead.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

// Set-up runs this many times on the main thread and setup_s is the median:
// a single set-up takes 30-400 ms, short enough for one burst of host noise
// to move it by a third.
constexpr int kSetupReps = 15;

int usage(const char* msg) {
  std::fprintf(stderr,
               "dart_perfbench: %s\nusage: dart_perfbench --workload "
               "<replay-dart|replay-rules|serve-open|sweep-cell> --seed <n> --seconds <s> "
               "--trace <0|1> --records <file> --work-dir <dir> [--record]\n",
               msg);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record") {
      options.record = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &options.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!parse_u64(value, &n) || n == 0 || n > 3600) return usage("bad --seconds");
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("bad --trace");
      }
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (arg == "--records") {
      options.records_path = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || options.records_path.empty() || options.work_dir.empty()) {
    return usage("--seed, --records and --work-dir are required");
  }
  if (!options.record && (!have_seconds || !have_trace)) {
    return usage("--seconds and --trace are required");
  }

  std::unique_ptr<Workload> workload;
  if (options.workload == "replay-dart") {
    workload = make_replay_workload(true);
  } else if (options.workload == "replay-rules") {
    workload = make_replay_workload(false);
  } else if (options.workload == "serve-open") {
    workload = make_serve_workload();
  } else if (options.workload == "sweep-cell") {
    workload = make_sweep_workload();
  } else {
    return usage(("unknown workload " + options.workload).c_str());
  }

  try {
    Result result;
    HostProbe host;
    host.begin();

    std::vector<double> setup_times;
    for (int r = 0; r < (options.record ? 1 : kSetupReps); ++r) {
      const double t0 = now_s();
      workload->setup(options, result);
      setup_times.push_back(now_s() - t0);
    }

    if (options.record) {
      options.seconds = 0.0;  // one repetition
      workload->measure(options, result);
      if (!result.correct()) return 1;
      std::printf("%s %llu %s %s\n", options.workload.c_str(),
                  static_cast<unsigned long long>(options.seed), build_key().c_str(),
                  result.digest().c_str());
      return 0;
    }

    if (options.trace) {
      workload->trace(options, result);
    } else {
      workload->measure(options, result);
    }
    check_record(options, result);
    if (!options.trace) {
      const std::uint64_t attempted = std::max<std::uint64_t>(1, result.attempted);
      result.set("failed_share",
                 static_cast<double>(result.failed) / static_cast<double>(attempted));
    }
    result.set("setup_s", median(setup_times));
    result.set("peak_rss_mb", peak_rss_mb());
    host.finish(result);
    result.print(options.trace);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dart_perfbench: %s\n", e.what());
    return 1;
  }
}

#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/thread_pool.hpp"

namespace perfbench {

const std::vector<MetricDef>& metric_catalogue() {
  static const std::vector<MetricDef> defs = {
      // End-to-end (BENCHMARK.json "end_to_end"); every workload reports all.
      {"setup_s", "s", Kind::kEndToEnd},
      {"throughput_per_s", "1/s", Kind::kEndToEnd},
      {"latency_us", "us", Kind::kEndToEnd},
      {"peak_rss_mb", "MB", Kind::kEndToEnd},
      // Workload-specific user-facing numbers, on the report line.
      {"replay_maccess_per_s", "Maccess/s", Kind::kReport},
      {"serve_pred_per_s", "1/s", Kind::kReport},
      {"serve_p50_us.low", "us", Kind::kReport},
      {"serve_p50_us.high", "us", Kind::kReport},
      {"serve_p99_us.low", "us", Kind::kReport},
      {"serve_p99_us.high", "us", Kind::kReport},
      {"cell_s", "s", Kind::kReport},
      {"dart_f1", "ratio", Kind::kReport},
      {"dart_ipc_gain_pct", "%", Kind::kReport},
      {"failed_share", "ratio", Kind::kReport},
      {"reps", "count", Kind::kReport},
      // Per-layer (BENCHMARK.json "per_layer"); 0 where the workload does
      // not load the layer.
      {"trace.gen_s", "s", Kind::kLayer},
      {"trace.overhead_share", "ratio", Kind::kLayer},
      {"sim.replay_s", "s", Kind::kLayer},
      {"sim.self_s", "s", Kind::kLayer},
      {"sim.ns_per_access", "ns", Kind::kLayer},
      {"sim.instructions", "count", Kind::kLayer},
      {"sim.cycles", "count", Kind::kLayer},
      {"sim.llc_accesses", "count", Kind::kLayer},
      {"sim.llc_hits", "count", Kind::kLayer},
      {"sim.llc_demand_misses", "count", Kind::kLayer},
      {"sim.pf_issued", "count", Kind::kLayer},
      {"sim.pf_useful", "count", Kind::kLayer},
      {"sim.pf_late", "count", Kind::kLayer},
      {"sim.pf_dropped", "count", Kind::kLayer},
      {"prefetch.on_access_calls", "count", Kind::kLayer},
      {"prefetch.on_access_ns", "ns", Kind::kLayer},
      {"prefetch.busy_s", "s", Kind::kLayer},
      {"prefetch.busy_share", "ratio", Kind::kLayer},
      {"prefetch.candidates", "count", Kind::kLayer},
      {"prefetch.useful_ratio", "ratio", Kind::kLayer},
      {"prefetch.dropped_ratio", "ratio", Kind::kLayer},
      {"tabular.query_us.b1", "us", Kind::kLayer},
      {"tabular.query_us.b64", "us", Kind::kLayer},
      {"serve.avg_batch", "count", Kind::kLayer},
      {"serve.queue_depth_mean", "count", Kind::kLayer},
      {"serve.queue_depth_max", "count", Kind::kLayer},
      {"serve.backpressure_rejects", "count", Kind::kLayer},
      {"serve.shed", "count", Kind::kLayer},
      {"serve.gen_late_p99_us", "us", Kind::kLayer},
      {"serve.p99_us.low", "us", Kind::kLayer},
      {"serve.p99_us.high", "us", Kind::kLayer},
      {"core.grid_s", "s", Kind::kLayer},
      {"core.prepare_s", "s", Kind::kLayer},
      {"nn.teacher_train_s", "s", Kind::kLayer},
      {"nn.distill_s", "s", Kind::kLayer},
      {"tabular.tabularize_s", "s", Kind::kLayer},
      {"sim.cell_replay_s", "s", Kind::kLayer},
      {"core.runner_overhead_s", "s", Kind::kLayer},
  };
  return defs;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5) {
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void Result::set(const std::string& name, double value) {
  const auto& defs = metric_catalogue();
  const bool known = std::any_of(defs.begin(), defs.end(),
                                 [&](const MetricDef& d) { return name == d.name; });
  if (!known) {
    std::fprintf(stderr, "perfbench: internal error: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Result::note(const std::string& key, const std::string& json_value) {
  notes_.emplace_back(key, json_value);
}

std::string Result::digest() const {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : pinned_) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metric_json(const MetricDef& d, double value) {
  return json_string(d.name) + ": {\"value\": " + json_number(value) +
         ", \"unit\": " + json_string(d.unit) + "}";
}

}  // namespace

void Result::print(bool trace) const {
  // Human-readable table on stdout, then one machine-readable report line
  // (host fingerprint, workload-specific numbers), then the result line.
  std::string report = "{\"report\": {";
  bool first_report = true;
  std::string metrics;
  bool first_metric = true;
  for (const MetricDef& d : metric_catalogue()) {
    const auto it = values_.find(d.name);
    const bool wanted = trace ? d.kind == Kind::kLayer : d.kind == Kind::kEndToEnd;
    if (wanted) {
      const double v = it == values_.end() ? 0.0 : it->second;
      std::printf("  %-28s %18.6f %s\n", d.name, v, d.unit);
      metrics += (first_metric ? "" : ", ") + metric_json(d, v);
      first_metric = false;
    } else if (d.kind == Kind::kReport && it != values_.end()) {
      std::printf("  %-28s %18.6f %s (report)\n", d.name, it->second, d.unit);
      report += (first_report ? "" : ", ") + metric_json(d, it->second);
      first_report = false;
    }
  }
  report += "}";
  for (const auto& [key, value] : notes_) report += ", " + json_string(key) + ": " + value;
  report += ", \"digest\": " + json_string(digest()) + "}";
  std::printf("%s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct_ ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
}

std::string build_key() {
  std::string key = std::string("gcc") + __VERSION__;
#ifdef __clang__
  key = std::string("clang") + __clang_version__;
#endif
  for (char& c : key) {
    if (c == ' ') c = '_';
  }
#if defined(__AVX512F__)
  key += "-avx512f";
#endif
#if defined(__AVX2__)
  key += "-avx2";
#endif
#if defined(__FMA__)
  key += "-fma";
#endif
  return key;
}

void check_record(const Options& options, Result& result) {
  if (!result.pinned()) {
    result.note("record", "\"no simulated outputs\"");
    return;
  }
  std::ifstream in(options.records_path);
  result.check(static_cast<bool>(in), "seed record file readable: " + options.records_path);
  const std::string build = build_key();
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, key, digest;
    std::uint64_t seed = 0;
    if (!(fields >> workload >> seed >> key >> digest) || workload != options.workload ||
        seed != options.seed || key != build) {
      continue;
    }
    result.check(digest == result.digest(), "simulated outputs for seed " +
                                                 std::to_string(options.seed) + " digest " +
                                                 result.digest() + " != recorded " + digest);
    result.note("record", "\"matched\"");
    return;
  }
  result.note("record", "\"no record for this seed and build (" + build + ")\"");
}

namespace {

std::string read_first_line_with(const char* path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) return line;
  }
  return "";
}

/// Steal ticks summed over all CPUs (the 8th value of /proc/stat's "cpu" line).
std::uint64_t steal_ticks() {
  std::istringstream fields(read_first_line_with("/proc/stat", "cpu "));
  std::string label;
  std::uint64_t v[8] = {};
  fields >> label;
  for (auto& x : v) fields >> x;
  return v[7];
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one = 0.0;
  in >> one;
  return one;
}

}  // namespace

void HostProbe::begin() {
  steal_begin_ = steal_ticks();
  load_begin_ = load_average();
}

void HostProbe::finish(Result& result) const {
  std::string cpu = read_first_line_with("/proc/cpuinfo", "model name");
  const auto colon = cpu.find(':');
  cpu = colon == std::string::npos ? "unknown" : cpu.substr(colon + 2);
  const char* threads_env = std::getenv("DART_THREADS");
  std::ostringstream host;
  host << "{\"cpu\": " << json_string(cpu)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"load_begin\": " << json_number(load_begin_)
       << ", \"load_end\": " << json_number(load_average())
       << ", \"steal_ticks\": " << (steal_ticks() - steal_begin_)
       << ", \"compiler\": " << json_string(__VERSION__)
       << ", \"build\": " << json_string(build_key())
       << ", \"dart_native\": " << PERFBENCH_MARCH_NATIVE
       << ", \"dart_threads_env\": " << json_string(threads_env ? threads_env : "")
       << ", \"pool_threads\": " << dart::common::ThreadPool::instance().size() << "}";
  result.note("host", host.str());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace perfbench

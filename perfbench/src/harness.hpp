// Shared pieces of the DART benchmark: the metric catalogue, the per-run
// result (metrics, correctness checks, attempted/failed counts), timing
// helpers, the seed record of simulated outputs, and the host fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the run (set-up excluded)
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  bool record = false;    ///< print this seed's record line instead of measuring
  std::string records_path;  ///< recorded simulated outputs per (workload, seed)
  std::string work_dir;      ///< scratch directory for files a workload writes
};

/// Which output a metric belongs to.
enum class Kind {
  kEndToEnd,  ///< untraced runs, gated by BENCHMARK.json bounds
  kLayer,     ///< traced runs, no bound
  kReport,    ///< untraced runs, printed on the report line only
};

/// Static description of one metric.
struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
};

/// Every metric the benchmark prints, in output order.
const std::vector<MetricDef>& metric_catalogue();

/// Monotonic seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic nanoseconds since an arbitrary epoch.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// Nearest-rank quantile `q` in [0, 1] of `v` (0 for an empty vector).
double quantile(std::vector<double> v, double q);

/// Outcome of one run: metric values, correctness checks and the
/// attempted/failed operation counts of the final result line.
class Result {
 public:
  /// Sets a catalogued metric; unknown names abort (a programming error).
  void set(const std::string& name, double value);
  /// Records a correctness check; a failed check makes the run incorrect
  /// and is reported on stderr.
  void check(bool ok, const std::string& what);
  /// Extra information for the report line (host, sample counts, ...).
  void note(const std::string& key, const std::string& json_value);

  /// Appends `text` to the canonical description of the simulated outputs
  /// that the seed record pins.
  void pin(const std::string& text) { pinned_ += text; }
  /// FNV-1a digest of everything pinned so far, as 16 hex digits.
  std::string digest() const;
  /// True once any simulated output was pinned.
  bool pinned() const { return !pinned_.empty(); }

  bool correct() const { return correct_; }
  std::uint64_t attempted = 0;  ///< operations attempted (cells, requests)
  std::uint64_t failed = 0;     ///< operations that failed, were shed or lost

  /// Prints the report line and the final result line for `trace` mode.
  void print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::string pinned_;
  bool correct_ = true;
};

/// Compiler and the vector ISA the build targets, e.g.
/// "gcc12.2.0-avx2-fma". Float results (training, k-means, table
/// contents) are only reproducible within one such build, so seed records
/// are keyed on it.
std::string build_key();

/// Compares this run's pinned digest against the record for (workload,
/// seed, build key). A run without a matching record is noted as such;
/// determinism across repetitions inside the run is still checked by each
/// workload.
void check_record(const Options& options, Result& result);

/// Host fingerprint: CPU model, online CPUs, load average, compiler,
/// whether the build used -march=native, and DART_THREADS. Steal ticks are
/// measured between `begin()` and `finish()`.
class HostProbe {
 public:
  void begin();
  void finish(Result& result) const;

 private:
  std::uint64_t steal_begin_ = 0;
  double load_begin_ = 0.0;
};

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// One benchmark workload. `setup` builds the inputs from the seed and is
/// repeated (its median is setup_s); `measure` runs the untraced
/// end-to-end measurement, `trace` the separate traced run. Both pin the
/// simulated outputs of their first repetition into the result.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(const Options& options, Result& result) = 0;
  virtual void measure(const Options& options, Result& result) = 0;
  virtual void trace(const Options& options, Result& result) = 0;
};

std::unique_ptr<Workload> make_replay_workload(bool dart);
std::unique_ptr<Workload> make_serve_workload();
std::unique_ptr<Workload> make_sweep_workload();

}  // namespace perfbench

#include "prefetch_sweep.hpp"

#include "bench_common.hpp"

namespace dart::bench {

namespace {

/// The sweep's durable result store (core/result_store.hpp). Each cell's
/// key hashes its workload, its spec and the full pipeline configuration,
/// so a run under other knobs re-simulates exactly the cells they change.
constexpr const char* kStoreDir = "prefetch_sweep_store";

}  // namespace

core::ExperimentResult cached_prefetch_sweep() {
  core::ExperimentSpec spec = core::ExperimentSpec::bench_defaults();
  if (spec.apps.empty()) spec.apps = bench_apps();
  spec.sweep.store_dir = kStoreDir;

  common::Stopwatch watch;
  std::printf("running prefetcher sweep (%zu apps x %zu prefetchers, store %s)...\n",
              spec.apps.size(), spec.prefetchers.size(), kStoreDir);
  core::ExperimentResult result = core::ExperimentRunner(spec).run();
  std::printf("sweep done in %.1f s (%zu of %zu cells reused from the store)\n",
              watch.elapsed_s(), result.count(core::CellStatus::kSkipped), result.cells.size());
  return result;
}

void print_metric_table(const core::ExperimentResult& result, const std::string& metric,
                        const std::string& title, const std::string& csv_name) {
  const std::vector<std::string> apps = result.apps();
  const std::vector<std::string> pfs = result.prefetchers();
  auto value_of = [&](const core::ExperimentCell& c) {
    if (metric == "accuracy") return c.stats.accuracy();
    if (metric == "coverage") return c.stats.coverage();
    return c.ipc_improvement;
  };

  common::TablePrinter t(title);
  std::vector<std::string> header = {"Prefetcher"};
  for (const auto& a : apps) header.push_back(a.size() > 8 ? a.substr(0, 8) : a);
  header.push_back("Mean");
  t.set_header(header);
  for (const auto& pf : pfs) {
    std::vector<std::string> row = {pf};
    double mean = 0.0;
    for (const auto& app : apps) {
      const core::ExperimentCell* cell = result.find(pf, app);
      const double v = cell != nullptr ? value_of(*cell) : 0.0;
      row.push_back(common::TablePrinter::fmt_pct(v));
      mean += v;
    }
    row.push_back(common::TablePrinter::fmt_pct(mean / static_cast<double>(apps.size())));
    t.add_row(row);
  }
  emit(t, csv_name);
}

}  // namespace dart::bench

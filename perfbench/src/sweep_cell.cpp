// sweep-cell: core::ExperimentRunner::run over 410.bwaves x {BO, DART}
// with a durable result store, 2 training epochs and 2000 samples — the
// train -> distill -> tabularize -> replay cell every Table IX sweep runs.
//
// The untraced measurement runs grid after grid in one pool worker, each in
// fresh store and artifact directories; the DART F1 is evaluated afterwards
// on the reloaded `.dart` artifact the runner wrote. The traced run executes
// the same stages through core::Pipeline's public stage calls with a clock
// around each, then runs the whole grid once more; the difference between
// the grid time and the stage times is the runner's own overhead
// (scheduling, store commits, artifact writes).
#include <malloc.h>

#include <filesystem>
#include <functional>
#include <sstream>

#include "common/thread_pool.hpp"
#include "core/artifact_cache.hpp"
#include "core/configs.hpp"
#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "inputs.hpp"
#include "trace/generators.hpp"

namespace perfbench {

using namespace dart;
namespace fs = std::filesystem;

namespace {

const trace::App kApp = trace::App::kBwaves;
const std::vector<std::string> kPrefetchers = {"BO", "DART"};

core::PipelineOptions sweep_pipeline(std::uint64_t seed) {
  core::PipelineOptions o = core::PipelineOptions::bench_defaults();
  o.teacher_train.epochs = 2;
  o.student_train.epochs = 2;
  o.prep.max_samples = 2000;
  o.raw_accesses = 400000;
  o.seed = seed;
  o.artifact_dir.clear();
  return o;
}

std::string describe(const core::ExperimentCell& c) {
  const sim::SimStats& s = c.stats;
  std::ostringstream os;
  os.precision(17);
  os << c.spec << ' ' << c.app << ' ' << s.instructions << ' ' << s.cycles << ' '
     << s.llc_accesses << ' ' << s.llc_hits << ' ' << s.llc_demand_misses << ' ' << s.pf_issued
     << ' ' << s.pf_useful << ' ' << s.pf_late << ' ' << s.pf_dropped << ' ' << c.ipc_improvement
     << '\n';
  return os.str();
}

std::string describe_f1(double f1) {
  std::ostringstream os;
  os.precision(17);
  os << "dart_f1 " << f1 << '\n';
  return os.str();
}

/// Runs `fn` on the benchmark's own one-thread pool and waits for it.
/// Inside any pool worker, nested parallel loops run inline. That is where a
/// cell of a multi-app sweep runs, so the grid time is the per-cell cost a
/// Table IX grid pays. (A single-app grid called from a plain thread would
/// instead fan training out over the pool.) The dedicated worker keeps every
/// grid on one thread and one malloc arena: on the shared pool, whichever
/// worker took the grids moved peak RSS by 12%.
void in_worker(const std::function<void()>& fn) {
  static common::ThreadPool worker(1);
  worker.submit(fn);
  worker.wait_idle();
}

/// One grid run and what it produced.
struct Grid {
  double seconds = 0.0;
  core::ExperimentResult result;
  double dart_f1 = 0.0;
  bool artifact = false;  ///< the DART cell wrote its .dart artifact
  std::string outputs;    ///< canonical cell counters + F1
};

class SweepWorkload final : public Workload {
 public:
  void setup(const Options& options, Result&) override {
    eval_.reset();  // each set-up starts from nothing
    popts_ = sweep_pipeline(options.seed);
    // The evaluation pipeline only prepares data: its held-out split scores
    // the DART artifact each grid writes.
    const double t0 = now_s();
    eval_ = std::make_unique<core::Pipeline>(trace::Workload(kApp), popts_);
    eval_->prepare();
    gen_times_.push_back(now_s() - t0);
  }

  void measure(const Options& options, Result& result) override {
    // Grid after grid on one pool worker until the deadline (see in_worker).
    // Grids on all workers at once moved peak RSS by 12% between runs.
    std::vector<Grid> grids;
    const double deadline = now_s() + options.seconds;
    in_worker([&] {
      do {
        grids.push_back(run_grid(options, std::to_string(grids.size())));
      } while (now_s() < deadline);
    });

    const double cells = static_cast<double>(kPrefetchers.size());
    const Grid& first = grids.front();
    result.pin(first.outputs);
    double grids_s = 0.0;
    std::vector<double> cell_s;
    for (const Grid& g : grids) {
      check_grid(g, result);
      result.check(g.outputs == first.outputs, "grid outputs identical across repetitions");
      cell_s.push_back(g.seconds / cells);
      grids_s += g.seconds;
    }
    const core::ExperimentCell* dart = first.result.find("DART", trace::app_name(kApp));
    result.set("throughput_per_s", cells * static_cast<double>(grids.size()) / grids_s);
    result.set("latency_us", median(cell_s) * 1e6);
    result.set("cell_s", median(cell_s));
    result.set("dart_f1", first.dart_f1);
    result.set("dart_ipc_gain_pct", dart != nullptr ? dart->ipc_improvement * 100.0 : 0.0);
    result.set("reps", static_cast<double>(grids.size()));
  }

  void trace(const Options& options, Result& result) override {
    // Stage by stage through the Pipeline's public calls, inside one pool
    // worker like the grid itself (see in_worker).
    core::Pipeline pipe(trace::Workload(kApp), popts_);
    double prepare_s = 0.0, teacher_s = 0.0, distill_s = 0.0, tabularize_s = 0.0,
           replay_s = 0.0, base_ipc = 0.0, f1 = 0.0;
    std::vector<sim::SimStats> stage_stats;
    in_worker([&] {
      sim::Simulator simulator(popts_.sim);
      double t0 = now_s();
      pipe.prepare();
      prepare_s = now_s() - t0;
      t0 = now_s();
      base_ipc = simulator.run(pipe.raw_trace(), nullptr).ipc();
      replay_s = now_s() - t0;
      t0 = now_s();
      pipe.teacher();
      teacher_s = now_s() - t0;
      t0 = now_s();
      pipe.student();
      distill_s = now_s() - t0;
      t0 = now_s();
      tabular::TabularizeOptions tab = popts_.tab;
      const core::DartVariant v = core::dart_variant();
      tab.tables = v.tables;
      tab.encoder = pq::EncoderKind::kHashTree;
      const auto model = std::make_shared<const tabular::TabularPredictor>(pipe.tabularize(tab));
      tabularize_s = now_s() - t0;

      sim::PrefetcherContext ctx = dart_context(model, popts_.prep, popts_.sim.max_degree);
      for (const std::string& spec : kPrefetchers) {
        std::unique_ptr<sim::Prefetcher> pf = sim::make_prefetcher(spec, ctx);
        t0 = now_s();
        stage_stats.push_back(simulator.run(pipe.raw_trace(), pf.get()));
        replay_s += now_s() - t0;
      }
      f1 = core::evaluate_tabular_f1(*model, pipe.test_set()).f1;

      FeatureRows rows;
      append_rows(pipe.llc_trace(), popts_.prep, 4096, rows);
      probe_tabular(*model, rows, result);
    });

    Grid g;
    in_worker([&] { g = run_grid(options, "traced"); });
    check_grid(g, result);
    result.pin(g.outputs);
    result.check(f1 == g.dart_f1, "stage-path DART F1 equals the runner's");
    for (std::size_t i = 0; i < kPrefetchers.size(); ++i) {
      const core::ExperimentCell& cell = g.result.cells[i];
      const sim::SimStats& a = cell.stats;
      const sim::SimStats& b = stage_stats[i];
      result.check(a.cycles == b.cycles && a.pf_issued == b.pf_issued &&
                       a.pf_useful == b.pf_useful && a.llc_hits == b.llc_hits,
                   "stage-path " + kPrefetchers[i] + " cell counters equal the runner's");
      result.check(cell.baseline_ipc == base_ipc, "stage-path baseline IPC equals the runner's");
    }
    const double stages = prepare_s + teacher_s + distill_s + tabularize_s + replay_s;
    result.set("trace.gen_s", median(gen_times_));
    result.set("trace.overhead_share", 0.0);
    result.set("core.grid_s", g.seconds);
    result.set("core.prepare_s", prepare_s);
    result.set("nn.teacher_train_s", teacher_s);
    result.set("nn.distill_s", distill_s);
    result.set("tabular.tabularize_s", tabularize_s);
    result.set("sim.cell_replay_s", replay_s);
    result.set("core.runner_overhead_s", g.seconds - stages);
    sim::SimStats total;
    for (const sim::SimStats& s : stage_stats) add_stats(total, s);
    set_sim_counters(total, result);
  }

 private:
  /// Runs one grid on the calling pool worker in fresh directories named
  /// after `tag`, then scores the DART artifact it wrote.
  Grid run_grid(const Options& options, const std::string& tag) const {
    const fs::path dir = fs::path(options.work_dir) / ("sweep-" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir / "store");
    fs::create_directories(dir / "artifacts");

    core::ExperimentSpec spec;
    spec.apps = {kApp};
    spec.prefetchers = kPrefetchers;
    spec.pipeline = popts_;
    spec.pipeline.artifact_dir = (dir / "artifacts").string();
    spec.sweep.store_dir = (dir / "store").string();

    Grid g;
    const double t0 = now_s();
    g.result = core::ExperimentRunner(spec).run();
    g.seconds = now_s() - t0;

    for (const auto& entry : fs::directory_iterator(dir / "artifacts")) {
      if (entry.path().extension() != ".dart") continue;
      g.artifact = true;
      const sim::DartModel model = core::load_dart_artifact(entry.path().string());
      g.dart_f1 = core::evaluate_tabular_f1(*model.predictor, eval_->test_set()).f1;
    }
    for (const core::ExperimentCell& c : g.result.cells) g.outputs += describe(c);
    g.outputs += describe_f1(g.dart_f1);
    fs::remove_all(dir);
#ifdef __GLIBC__
    // Hand the grid's freed memory back before the next grid; otherwise peak
    // RSS depended on how many grids fit in the run (122 vs 133 MB).
    malloc_trim(0);
#endif
    return g;
  }

  /// Counts a grid's cells and checks its accounting.
  static void check_grid(const Grid& g, Result& result) {
    const std::size_t done = g.result.count(core::CellStatus::kDone);
    const std::size_t failed = g.result.count(core::CellStatus::kFailed);
    const std::size_t skipped = g.result.count(core::CellStatus::kSkipped);
    result.attempted += g.result.cells.size();
    result.failed += failed;
    result.check(g.result.cells.size() == kPrefetchers.size(), "grid has one cell per prefetcher");
    result.check(done + failed + skipped == g.result.cells.size(),
                 "done + failed + skipped == grid");
    result.check(failed == 0 && skipped == 0, "every cell simulated in a fresh store");
    result.check(g.artifact, "the DART cell wrote its .dart artifact");
  }

  core::PipelineOptions popts_;
  std::unique_ptr<core::Pipeline> eval_;
  std::vector<double> gen_times_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_workload() { return std::make_unique<SweepWorkload>(); }

}  // namespace perfbench

// replay-dart and replay-rules: trace replay through sim::Simulator::run.
//
// replay-dart replays the ten traces with the DART adapter built through
// the prefetcher registry, exactly as a sweep cell builds it; replay-rules
// replays the same traces under baseline, stride, BO and ISB, where the
// tabular layer does no work. A cell is one (prefetcher, trace) replay with
// a fresh prefetcher, like an ExperimentRunner cell. A single-threaded
// warm-up repetition replays every cell once; every later replay of a cell
// must reproduce its simulated counters. The untraced measurement replays
// cells on every pool worker at once, as a sweep does; the traced run is
// single-threaded so that its clocks split one replay into layers.
#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/configs.hpp"
#include "inputs.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace dart;

namespace {

constexpr std::size_t kAccessesPerTrace = 200000;

/// Decorator timing every call into the wrapped prefetcher. It is only
/// installed in traced repetitions; its clock reads are the tracing
/// overhead the traced run reports.
class TracedPrefetcher final : public sim::Prefetcher {
 public:
  explicit TracedPrefetcher(std::unique_ptr<sim::Prefetcher> inner) : inner_(std::move(inner)) {}

  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) override {
    const std::size_t before = out.size();
    const std::uint64_t t0 = now_ns();
    inner_->on_access(block, pc, hit, cycle, out);
    access_ns += now_ns() - t0;
    ++calls;
    candidates += out.size() - before;
  }
  void on_fill(std::uint64_t block, bool was_prefetch) override {
    const std::uint64_t t0 = now_ns();
    inner_->on_fill(block, was_prefetch);
    fill_ns += now_ns() - t0;
  }
  bool trains_on_fill() const override { return inner_->trains_on_fill(); }
  std::size_t prediction_latency() const override { return inner_->prediction_latency(); }
  std::size_t storage_bytes() const override { return inner_->storage_bytes(); }
  bool shares_mutable_model() const override { return inner_->shares_mutable_model(); }
  std::string name() const override { return inner_->name(); }

  std::uint64_t calls = 0;
  std::uint64_t candidates = 0;
  std::uint64_t access_ns = 0;
  std::uint64_t fill_ns = 0;

 private:
  std::unique_ptr<sim::Prefetcher> inner_;
};

/// One cell replayed by a measurement thread: which cell, when it ended.
struct Run {
  std::size_t cell = 0;
  double end_s = 0.0;
  sim::SimStats stats;
};

/// One single-threaded repetition: every cell's counters and replay time.
struct Rep {
  double seconds = 0.0;                ///< wall-clock of the whole repetition
  std::vector<double> cell_seconds;    ///< time inside Simulator::run per cell
  std::vector<sim::SimStats> stats;    ///< per cell
  // Traced repetitions only: decorator totals over all cells.
  std::uint64_t calls = 0, candidates = 0, access_ns = 0, fill_ns = 0;
};

bool same(const sim::SimStats& a, const sim::SimStats& b) {
  return a.instructions == b.instructions && a.cycles == b.cycles &&
         a.llc_accesses == b.llc_accesses && a.llc_hits == b.llc_hits &&
         a.llc_demand_misses == b.llc_demand_misses && a.pf_issued == b.pf_issued &&
         a.pf_useful == b.pf_useful && a.pf_late == b.pf_late && a.pf_dropped == b.pf_dropped;
}

std::string describe(const sim::SimStats& s) {
  std::ostringstream os;
  os << s.instructions << ' ' << s.cycles << ' ' << s.llc_accesses << ' ' << s.llc_hits << ' '
     << s.llc_demand_misses << ' ' << s.pf_issued << ' ' << s.pf_useful << ' ' << s.pf_late
     << ' ' << s.pf_dropped;
  return os.str();
}

class ReplayWorkload final : public Workload {
 public:
  explicit ReplayWorkload(bool dart) : dart_(dart) {
    if (dart_) {
      specs_ = {"dart"};
    } else {
      specs_ = {"baseline", "stride", "bo", "isb"};
    }
  }

  void setup(const Options& options, Result&) override {
    // Each set-up starts from nothing, so peak memory is one set-up's.
    traces_ = {};
    ctx_ = {};
    model_.reset();
    const double t0 = now_s();
    traces_ = replay_traces(kAccessesPerTrace, options.seed);
    gen_times_.push_back(now_s() - t0);
    accesses_ = 0;
    for (const NamedTrace& t : traces_) accesses_ += t.trace.size();
    if (!dart_) return;
    model_ = student_model();
    ctx_ = dart_context(model_, core::default_preprocess(), sim::SimConfig{}.max_degree);
  }

  void measure(const Options& options, Result& result) override {
    const Rep warm = warm_up(result);
    // One thread per pool worker, each pinned to its own core, takes the
    // next cell from a shared cycle through the cell list until the deadline. The host's
    // speed drifts per core and over seconds; summing the workers' rates
    // averages that drift over every core instead of sampling one.
    const std::size_t workers = std::max<std::size_t>(1, common::ThreadPool::instance().size());
    std::vector<std::vector<Run>> lanes(workers);  // each thread's runs, in order
    std::atomic<std::size_t> next{0};
    const double start = now_s();
    const double deadline = start + options.seconds;
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        common::pin_current_thread(w);
        sim::PrefetcherContext ctx = ctx_;
        sim::SimWorkspace ws;
        while (now_s() < deadline) {
          const std::size_t cell = next.fetch_add(1) % warm.stats.size();
          const sim::SimStats stats = run_cell(cell, false, ctx, ws, nullptr);
          lanes[w].push_back({cell, now_s(), stats});
        }
      });
    }
    for (std::thread& t : threads) t.join();

    // Per cell, the median replay time over its runs on every worker.
    std::vector<std::vector<double>> cell_s(warm.stats.size());
    double throughput = 0.0;
    std::size_t runs = 0;
    for (const std::vector<Run>& lane : lanes) {
      double prev = start;
      std::size_t accesses = 0;
      for (const Run& run : lane) {
        cell_s[run.cell].push_back(run.end_s - prev);
        prev = run.end_s;
        accesses += cell_trace(run.cell).size();
        ++result.attempted;
        if (same(warm.stats[run.cell], run.stats)) continue;
        ++result.failed;
        result.check(false, "cell " + std::to_string(run.cell) + " counters differ between runs");
      }
      runs += lane.size();
      if (!lane.empty()) throughput += static_cast<double>(accesses) / (prev - start);
    }
    std::vector<double> cell_us;
    for (const auto& samples : cell_s) {
      result.check(!samples.empty(), "every cell replayed during the measurement");
      cell_us.push_back(median(samples) * 1e6);
    }
    result.set("throughput_per_s", throughput);
    result.set("latency_us", median(cell_us));
    result.set("replay_maccess_per_s", throughput / 1e6);
    result.set("reps", static_cast<double>(runs) / static_cast<double>(cell_s.size()));
    if (dart_) result.set("dart_ipc_gain_pct", ipc_gain_pct(warm));
  }

  void trace(const Options& options, Result& result) override {
    const Rep warm = warm_up(result);
    // Untraced and traced repetitions alternate, so both see the same host
    // conditions and the ratio of their medians is the tracing overhead.
    std::vector<double> plain_s, traced_s;
    Rep sum;  // decorator totals over the traced repetitions
    double replay_sum = 0.0;
    std::size_t traced_reps = 0;
    const double deadline = now_s() + options.seconds;
    while (now_s() < deadline || traced_reps == 0) {
      const Rep plain = run_rep(false);
      verify(warm, plain, result);
      plain_s.push_back(plain.seconds);
      const Rep traced = run_rep(true);
      verify(warm, traced, result);
      traced_s.push_back(traced.seconds);
      ++traced_reps;
      for (double s : traced.cell_seconds) replay_sum += s;
      sum.calls += traced.calls;
      sum.candidates += traced.candidates;
      sum.access_ns += traced.access_ns;
      sum.fill_ns += traced.fill_ns;
    }
    const double reps = static_cast<double>(traced_reps);
    const double replay_s = replay_sum / reps;
    const double busy_s = static_cast<double>(sum.access_ns + sum.fill_ns) / 1e9 / reps;
    const double calls = static_cast<double>(sum.calls) / reps;
    sim::SimStats total;
    for (const sim::SimStats& s : warm.stats) add_stats(total, s);

    result.set("trace.gen_s", median(gen_times_));
    result.set("trace.overhead_share", median(traced_s) / median(plain_s) - 1.0);
    result.set("sim.replay_s", replay_s);
    result.set("sim.self_s", replay_s - busy_s);
    result.set("sim.ns_per_access",
               (replay_s - busy_s) * 1e9 / static_cast<double>(accesses_ * specs_.size()));
    set_sim_counters(total, result);
    result.set("prefetch.on_access_calls", calls);
    result.set("prefetch.on_access_ns",
               calls > 0 ? static_cast<double>(sum.access_ns) / reps / calls : 0.0);
    result.set("prefetch.busy_s", busy_s);
    result.set("prefetch.busy_share", replay_s > 0 ? busy_s / replay_s : 0.0);
    result.set("prefetch.candidates", static_cast<double>(sum.candidates) / reps);
    result.set("prefetch.useful_ratio",
               total.pf_issued > 0 ? static_cast<double>(total.pf_useful + total.pf_late) /
                                         static_cast<double>(total.pf_issued)
                                   : 0.0);
    result.set("prefetch.dropped_ratio",
               total.pf_issued + total.pf_dropped > 0
                   ? static_cast<double>(total.pf_dropped) /
                         static_cast<double>(total.pf_issued + total.pf_dropped)
                   : 0.0);
    if (dart_) {
      FeatureRows rows;
      append_rows(traces_.front().trace, ctx_.prep, 4096, rows);
      probe_tabular(*model_, rows, result);
    }
  }

 private:
  /// Untimed first repetition: fills caches and workspaces, pins the
  /// simulated counters for the seed record.
  Rep warm_up(Result& result) {
    Rep warm = run_rep(false);
    result.attempted += warm.stats.size();
    for (std::size_t s = 0; s < specs_.size(); ++s) {
      for (std::size_t t = 0; t < traces_.size(); ++t) {
        const sim::SimStats& st = warm.stats[s * traces_.size() + t];
        result.pin(specs_[s] + " " + traces_[t].name + " " + describe(st) + "\n");
        result.check(st.llc_accesses > 0 && st.cycles > 0,
                     specs_[s] + "/" + traces_[t].name + " replayed LLC accesses");
        result.check(st.pf_useful + st.pf_late <= st.pf_issued,
                     specs_[s] + "/" + traces_[t].name + " useful+late <= issued");
      }
    }
    return warm;
  }

  /// Counts the repetition's cells and checks them against the warm-up.
  void verify(const Rep& warm, const Rep& rep, Result& result) {
    result.attempted += rep.stats.size();
    for (std::size_t i = 0; i < rep.stats.size(); ++i) {
      if (same(warm.stats[i], rep.stats[i])) continue;
      ++result.failed;
      result.check(false, "cell " + std::to_string(i) + " counters differ between repetitions");
    }
  }

  const trace::MemoryTrace& cell_trace(std::size_t cell) const {
    return traces_[cell % traces_.size()].trace;
  }

  /// Replays one cell with a fresh prefetcher built from `ctx`, wrapped in
  /// the tracing decorator when `traced`; the decorator's totals and the
  /// replay time are added to `rep` when given.
  sim::SimStats run_cell(std::size_t cell, bool traced, sim::PrefetcherContext& ctx,
                         sim::SimWorkspace& ws, Rep* rep) const {
    sim::Simulator simulator{sim::SimConfig{}};
    const std::string& spec = specs_[cell / traces_.size()];
    std::unique_ptr<sim::Prefetcher> pf;
    if (spec != "baseline") pf = sim::make_prefetcher(spec, ctx);
    TracedPrefetcher* probe = nullptr;
    if (traced && pf) {
      auto wrapped = std::make_unique<TracedPrefetcher>(std::move(pf));
      probe = wrapped.get();
      pf = std::move(wrapped);
    }
    const double c0 = now_s();
    const sim::SimStats stats = simulator.run(cell_trace(cell), pf.get(), ws);
    if (rep != nullptr) rep->cell_seconds.push_back(now_s() - c0);
    if (probe != nullptr) {
      rep->calls += probe->calls;
      rep->candidates += probe->candidates;
      rep->access_ns += probe->access_ns;
      rep->fill_ns += probe->fill_ns;
    }
    return stats;
  }

  /// Replays every cell once on the calling thread.
  Rep run_rep(bool traced) {
    Rep rep;
    const double t0 = now_s();
    for (std::size_t cell = 0; cell < specs_.size() * traces_.size(); ++cell) {
      rep.stats.push_back(run_cell(cell, traced, ctx_, ws_, &rep));
    }
    rep.seconds = now_s() - t0;
    return rep;
  }

  /// Mean IPC gain of DART over the no-prefetch baseline across the traces.
  double ipc_gain_pct(const Rep& warm) {
    sim::Simulator simulator{sim::SimConfig{}};
    double sum = 0.0;
    for (std::size_t t = 0; t < traces_.size(); ++t) {
      const double base = simulator.run(traces_[t].trace, nullptr, ws_).ipc();
      sum += (warm.stats[t].ipc() - base) / base;
    }
    return 100.0 * sum / static_cast<double>(traces_.size());
  }

  bool dart_;
  std::vector<std::string> specs_;
  std::vector<NamedTrace> traces_;
  std::size_t accesses_ = 0;
  std::vector<double> gen_times_;
  std::shared_ptr<const tabular::TabularPredictor> model_;
  sim::PrefetcherContext ctx_;
  sim::SimWorkspace ws_;
};

}  // namespace

std::unique_ptr<Workload> make_replay_workload(bool dart) {
  return std::make_unique<ReplayWorkload>(dart);
}

}  // namespace perfbench

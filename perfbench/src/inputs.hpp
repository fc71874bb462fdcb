// Seed-derived inputs shared by the replay and serve workloads: the trace
// series of bench_sim_throughput, the paper student predictor of
// bench/synthetic_model.hpp, feature rows cut from traces, and the
// per-layer probe of the tabular query paths, and SimStats helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "tabular/tabular_predictor.hpp"
#include "trace/preprocess.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// One generated trace and the name it is reported under.
struct NamedTrace {
  std::string name;
  dart::trace::MemoryTrace trace;
};

/// The eight Table IV apps plus the zipfian (theta 0.99) and YCSB-B series,
/// with the spec strings bench_sim_throughput replays, `n` accesses each.
std::vector<NamedTrace> replay_traces(std::size_t n, std::uint64_t seed);

/// The paper student (T=8, D=32, H=2, L=1) tabularized with K=128, C=2 and
/// the hash-tree encoder: the query cost of the sweep's DART. It is part of
/// the system under test, not of the input, so it does not vary with the
/// workload seed: a per-seed model fires a different share of bitmap bits
/// and moved replay cost by 30% between seeds.
std::shared_ptr<const dart::tabular::TabularPredictor> student_model();

/// A prefetcher context whose `dart` spec serves `model` with the default
/// variant's Eq. 22 latency, the way core::ExperimentRunner lends its
/// trained DART to a sweep cell.
dart::sim::PrefetcherContext dart_context(
    std::shared_ptr<const dart::tabular::TabularPredictor> model,
    const dart::trace::PreprocessOptions& prep, std::size_t degree);

/// Segmented [T, S] feature rows, one request per access after the first T
/// of a trace — exactly what the DART adapter and the serve load generator
/// feed the predictor.
struct FeatureRows {
  std::size_t count = 0;
  std::size_t addr_stride = 0;  ///< floats per request in `addr`
  std::size_t pc_stride = 0;    ///< floats per request in `pc`
  std::vector<float> addr;
  std::vector<float> pc;
  const float* addr_row(std::size_t i) const { return addr.data() + i * addr_stride; }
  const float* pc_row(std::size_t i) const { return pc.data() + i * pc_stride; }
};

/// Appends up to `count` rows from `trace` to `rows`.
void append_rows(const dart::trace::MemoryTrace& trace, const dart::trace::PreprocessOptions& prep,
                 std::size_t count, FeatureRows& rows);

/// Times the two tabular query paths on `rows`: `forward` on one [1,T,S]
/// sample as the DART adapter calls it (tabular.query_us.b1) and
/// `forward_block_into` on 64-sample blocks as a serve shard calls it
/// (tabular.query_us.b64, per query). Both are medians over rounds.
void probe_tabular(const dart::tabular::TabularPredictor& model, const FeatureRows& rows,
                   Result& result);

/// Adds every SimStats counter of `s` into `into`.
void add_stats(dart::sim::SimStats& into, const dart::sim::SimStats& s);

/// Sets the sim.* counter metrics (instructions ... pf_dropped) from `s`.
void set_sim_counters(const dart::sim::SimStats& s, Result& result);

}  // namespace perfbench

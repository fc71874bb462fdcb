#include "inputs.hpp"

#include "common/rng.hpp"
#include "core/configs.hpp"
#include "nn/tensor.hpp"
#include "synthetic_model.hpp"
#include "tabular/complexity.hpp"
#include "tabular/workspace.hpp"
#include "trace/generators.hpp"
#include "trace/workloads.hpp"

namespace perfbench {

using namespace dart;

std::vector<NamedTrace> replay_traces(std::size_t n, std::uint64_t seed) {
  std::vector<NamedTrace> out;
  std::uint64_t stream = 0;
  for (trace::App app : trace::all_apps()) {
    out.push_back({trace::app_name(app),
                   trace::generate(app, n, common::derive_seed(seed, stream++))});
  }
  for (const char* spec :
       {"trace:zipfian,footprint=64M,theta=0.99", "trace:ycsb-b,footprint=64M"}) {
    const trace::Workload w = trace::Workload::parse(spec);
    out.push_back({w.name(), w.generate(n, common::derive_seed(seed, stream++))});
  }
  return out;
}

std::shared_ptr<const tabular::TabularPredictor> student_model() {
  const core::DartVariant v = core::dart_variant();
  return std::make_shared<const tabular::TabularPredictor>(
      bench::synthetic_predictor(v.arch, v.tables.input.k, v.tables.input.c));
}

sim::PrefetcherContext dart_context(std::shared_ptr<const tabular::TabularPredictor> model,
                                    const trace::PreprocessOptions& prep, std::size_t degree) {
  const core::DartVariant v = core::dart_variant();
  const sim::DartModel dart{std::move(model),
                            tabular::tabular_model_cost(v.arch, v.tables).latency_cycles, v.name};
  sim::PrefetcherContext ctx;
  ctx.prep = prep;
  ctx.degree = degree;
  ctx.dart_model = [dart](const sim::DartModelRequest&) { return dart; };
  return ctx;
}

void append_rows(const trace::MemoryTrace& trace, const trace::PreprocessOptions& prep,
                 std::size_t count, FeatureRows& rows) {
  const std::size_t t_len = prep.history;
  rows.addr_stride = t_len * prep.addr_segments;
  rows.pc_stride = t_len * prep.pc_segments;
  std::vector<std::uint64_t> blocks(t_len), pcs(t_len);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    blocks[pos] = trace::block_of(trace[i].addr);
    pcs[pos] = trace[i].pc;
    pos = (pos + 1) % t_len;
    if (i + 1 < t_len) continue;
    if (count-- == 0) break;
    rows.addr.resize(rows.addr.size() + rows.addr_stride);
    rows.pc.resize(rows.pc.size() + rows.pc_stride);
    float* a = rows.addr.data() + rows.count * rows.addr_stride;
    float* p = rows.pc.data() + rows.count * rows.pc_stride;
    for (std::size_t t = 0; t < t_len; ++t) {
      const std::size_t h = (pos + t) % t_len;  // oldest -> newest
      trace::segment_value(blocks[h], prep.addr_segments, prep.segment_bits,
                           a + t * prep.addr_segments);
      trace::segment_value(pcs[h] >> 2, prep.pc_segments, prep.segment_bits,
                           p + t * prep.pc_segments);
    }
    ++rows.count;
  }
}

void probe_tabular(const tabular::TabularPredictor& model, const FeatureRows& rows,
                   Result& result) {
  constexpr std::size_t kBlock = 64;
  constexpr int kRounds = 7;
  const std::size_t n = rows.count - rows.count % kBlock;
  const nn::ModelConfig arch = model.arch();
  result.check(n >= kBlock, "tabular probe has at least one 64-row block");
  if (n < kBlock) return;

  // Batch 1 through `forward`, with the [1,T,S] tensors the adapter builds.
  std::vector<nn::Tensor> addr, pc;
  const std::size_t samples = std::min<std::size_t>(n, 512);
  for (std::size_t i = 0; i < samples; ++i) {
    nn::Tensor a({1, arch.seq_len, arch.addr_dim});
    nn::Tensor p({1, arch.seq_len, arch.pc_dim});
    std::copy(rows.addr_row(i), rows.addr_row(i) + rows.addr_stride, a.data());
    std::copy(rows.pc_row(i), rows.pc_row(i) + rows.pc_stride, p.data());
    addr.push_back(std::move(a));
    pc.push_back(std::move(p));
  }
  std::vector<double> b1;
  float sink = 0.0f;
  for (int r = 0; r <= kRounds; ++r) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < samples; ++i) sink += model.forward(addr[i], pc[i])[0];
    if (r > 0) b1.push_back((now_s() - t0) * 1e6 / static_cast<double>(samples));
  }

  // Batch 64 through `forward_block_into` on one reused workspace.
  tabular::InferenceWorkspace ws(model.tabular_arch());
  std::vector<float> probs(kBlock * arch.out_dim);
  std::vector<double> b64;
  for (int r = 0; r <= kRounds; ++r) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; i += kBlock) {
      model.forward_block_into(rows.addr_row(i), rows.pc_row(i), kBlock, probs.data(), ws);
      sink += probs[0];
    }
    if (r > 0) b64.push_back((now_s() - t0) * 1e6 / static_cast<double>(n));
  }
  result.check(sink == sink, "tabular probe outputs are numbers");
  result.set("tabular.query_us.b1", median(b1));
  result.set("tabular.query_us.b64", median(b64));
}

void add_stats(sim::SimStats& into, const sim::SimStats& s) {
  into.instructions += s.instructions;
  into.cycles += s.cycles;
  into.llc_accesses += s.llc_accesses;
  into.llc_hits += s.llc_hits;
  into.llc_demand_misses += s.llc_demand_misses;
  into.pf_issued += s.pf_issued;
  into.pf_useful += s.pf_useful;
  into.pf_late += s.pf_late;
  into.pf_dropped += s.pf_dropped;
}

void set_sim_counters(const sim::SimStats& s, Result& result) {
  result.set("sim.instructions", static_cast<double>(s.instructions));
  result.set("sim.cycles", static_cast<double>(s.cycles));
  result.set("sim.llc_accesses", static_cast<double>(s.llc_accesses));
  result.set("sim.llc_hits", static_cast<double>(s.llc_hits));
  result.set("sim.llc_demand_misses", static_cast<double>(s.llc_demand_misses));
  result.set("sim.pf_issued", static_cast<double>(s.pf_issued));
  result.set("sim.pf_useful", static_cast<double>(s.pf_useful));
  result.set("sim.pf_late", static_cast<double>(s.pf_late));
  result.set("sim.pf_dropped", static_cast<double>(s.pf_dropped));
}

}  // namespace perfbench

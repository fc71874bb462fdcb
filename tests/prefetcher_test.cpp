// Tests for the prefetcher implementations: BO offset learning, ISB
// temporal streams, stride detection, and the NN adapter mechanics.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/lstm.hpp"
#include "nn/trainer.hpp"
#include "prefetch/nn_prefetchers.hpp"
#include "prefetch/rule_based.hpp"
#include "sim/simulator.hpp"
#include "tabular/tabularizer.hpp"
#include "trace/generators.hpp"

namespace dart::prefetch {
namespace {

TEST(NextLine, EmitsSequentialCandidates) {
  NextLinePrefetcher pf(3);
  std::vector<std::uint64_t> out;
  pf.on_access(100, 0, false, 0, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 101u);
  EXPECT_EQ(out[2], 103u);
}

TEST(Stride, LearnsPerPcStrideAfterConfidence) {
  StridePrefetcher pf(64, 2);
  std::vector<std::uint64_t> out;
  // Same PC, stride 3: needs three repeats to reach confidence.
  for (std::uint64_t i = 0; i < 4; ++i) {
    out.clear();
    pf.on_access(100 + i * 3, 0x40, false, 0, out);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 109u + 3u);
  EXPECT_EQ(out[1], 109u + 6u);
}

TEST(Stride, DistinctPcsTrackIndependently) {
  StridePrefetcher pf(64, 1);
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 5; ++i) {
    out.clear();
    pf.on_access(i * 2, 0x40, false, 0, out);      // stride 2 on PC A
    std::vector<std::uint64_t> out_b;
    pf.on_access(1000 + i * 5, 0x44, false, 0, out_b);  // stride 5 on PC B
    if (i == 4) {
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0], 8u + 2u);
      ASSERT_EQ(out_b.size(), 1u);
      EXPECT_EQ(out_b[0], 1020u + 5u);
    }
  }
}

TEST(BestOffset, LearnsDominantOffsetViaSimulation) {
  // Feed a stride-6 all-miss stream through the simulator so BO sees fills;
  // it must converge on an offset that covers the stream.
  sim::SimConfig cfg;
  sim::Simulator sim(cfg);
  trace::MemoryTrace t;
  for (std::size_t i = 0; i < 60000; ++i) {
    t.push_back({(i + 1) * 4, 0x400, i * 6 * 64 * 300, false});  // huge stride -> miss
  }
  // Use a plain stride-6 trace with large page jumps is overkill; use stride 6 blocks.
  t.clear();
  for (std::size_t i = 0; i < 60000; ++i) {
    t.push_back({(i + 1) * 64, 0x400, (i * 6) * 64, false});
  }
  BestOffsetPrefetcher bo;
  const sim::SimStats stats = sim.run(t, &bo);
  EXPECT_GT(stats.accuracy(), 0.8);
  EXPECT_GT(stats.coverage(), 0.3);
  EXPECT_EQ(bo.current_offset() % 6, 0);  // a multiple of the true stride
}

TEST(BestOffset, StorageIsTableIxMagnitude) {
  BestOffsetPrefetcher bo;
  EXPECT_GT(bo.storage_bytes(), 1000u);
  EXPECT_LT(bo.storage_bytes(), 8192u);  // ~4KB in Table IX
}

TEST(Isb, LearnsTemporalPairOnRepeat) {
  IsbPrefetcher::Options opt;
  opt.degree = 1;
  IsbPrefetcher isb(opt);
  std::vector<std::uint64_t> out;
  // Correlated irregular sequence A->B->C repeated under one PC.
  const std::uint64_t seq[] = {1000, 7777, 4242};
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t b : seq) {
      out.clear();
      isb.on_access(b, 0x88, false, 0, out);
    }
  }
  // Now accessing 1000 should predict its learned successor 7777.
  out.clear();
  isb.on_access(1000, 0x88, false, 0, out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], 7777u);
}

TEST(Isb, CapacityEvictionKeepsMapsBounded) {
  IsbPrefetcher::Options opt;
  opt.max_mappings = 64;
  IsbPrefetcher isb(opt);
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    out.clear();
    isb.on_access(i * 17, 0x88, false, 0, out);
  }
  SUCCEED();  // bounded structures; would OOM/slow otherwise
}

// ------------------------------------------------------------- NN adapters

/// Adapter mechanics are tested through DartPrefetcher with a predictor
/// built from a tiny trained model (integration-lite). Training and
/// tabularizing run once per suite; the tests only read the shared const
/// model and predictor.
class AdapterFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kT = 4;

  static void SetUpTestSuite() {
    nn::ModelConfig arch;
    arch.seq_len = kT;
    arch.addr_dim = 4;
    arch.pc_dim = 4;
    arch.dim = 8;
    arch.ffn_dim = 16;
    arch.out_dim = 64;
    arch.heads = 2;
    arch.layers = 1;
    auto model = std::make_shared<nn::AddressPredictor>(arch, 5);

    // Train on a +1-delta sequential pattern so predictions are meaningful.
    trace::MemoryTrace t;
    for (std::uint64_t i = 0; i < 600; ++i) t.push_back({i + 1, 0x10, i * 64, false});
    prep_.history = kT;
    prep_.addr_segments = 4;
    prep_.pc_segments = 4;
    prep_.bitmap_size = 64;
    prep_.lookforward = 16;
    const nn::Dataset data = trace::make_dataset(t, prep_);
    nn::TrainOptions opt;
    opt.epochs = 10;
    nn::train_bce(*model, data, opt);

    tabular::TabularizeOptions tab;
    tab.tables = tabular::TableConfig::uniform(16, 2);
    tab.max_train_samples = 256;
    predictor_ = std::make_shared<const tabular::TabularPredictor>(
        tabular::tabularize(*model, data.addr, data.pc, tab));
    model_ = std::move(model);
  }

  static void TearDownTestSuite() {
    model_.reset();
    predictor_.reset();
  }

  static NnAdapterOptions adapter_opts(std::size_t latency = 0) {
    NnAdapterOptions o;
    o.prep = prep_;
    o.latency = latency;
    o.degree = 4;
    return o;
  }

  static inline trace::PreprocessOptions prep_;
  static inline std::shared_ptr<const nn::AddressPredictor> model_;
  static inline std::shared_ptr<const tabular::TabularPredictor> predictor_;
};

TEST_F(AdapterFixture, NoPredictionsBeforeHistoryWarmup) {
  DartPrefetcher pf(predictor_, adapter_opts());
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i + 1 < kT; ++i) {
    out.clear();
    pf.on_access(100 + i, 0x10, false, i, out);
    EXPECT_TRUE(out.empty()) << "predicted before history filled";
  }
}

TEST_F(AdapterFixture, PredictsForwardDeltaOnSequentialStream) {
  DartPrefetcher pf(predictor_, adapter_opts());
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 50; ++i) {
    out.clear();
    pf.on_access(2000 + i, 0x10, false, i * 100, out);
  }
  ASSERT_FALSE(out.empty());
  // Every prediction must be a forward delta within the trained
  // look-forward window (+1 .. +16) relative to the last access (2049).
  for (std::uint64_t cand : out) {
    EXPECT_GT(cand, 2049u);
    EXPECT_LE(cand, 2049u + 16u);
  }
}

TEST_F(AdapterFixture, DegreeCapsPredictionCount) {
  NnAdapterOptions o = adapter_opts();
  o.degree = 2;
  o.threshold = 0.0f;  // fire everything
  DartPrefetcher pf(predictor_, o);
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 50; ++i) {
    out.clear();
    pf.on_access(3000 + i, 0x10, false, i * 100, out);
  }
  EXPECT_LE(out.size(), 2u);
}

TEST_F(AdapterFixture, InitiationIntervalThrottlesTriggers) {
  // A non-pipelined predictor allows one inference per interval.
  NnAdapterOptions o = adapter_opts(/*latency=*/1000);
  o.initiation_interval = 1000;
  DartPrefetcher pf(predictor_, o);
  std::size_t predictions = 0;
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 100; ++i) {
    out.clear();
    pf.on_access(4000 + i, 0x10, false, i * 10, out);  // 10 cycles apart
    predictions += out.empty() ? 0 : 1;
  }
  // 100 accesses over ~1000 cycles with interval 1000 -> very few triggers.
  EXPECT_LE(predictions, 3u);
  EXPECT_GE(predictions, 1u);
}

TEST_F(AdapterFixture, AttentionAdapterMatchesModelStorage) {
  AttentionPrefetcher pf(model_, adapter_opts(4500), "TransFetch");
  EXPECT_EQ(pf.storage_bytes(), model_->num_params() * sizeof(float));
  EXPECT_EQ(pf.prediction_latency(), 4500u);
  EXPECT_EQ(pf.name(), "TransFetch");
}

/// Forwards every call to a wrapped prefetcher but claims to observe fills,
/// so the simulator queues demand-fill events it would otherwise skip.
class FillObserving final : public sim::Prefetcher {
 public:
  explicit FillObserving(sim::Prefetcher& inner) : inner_(inner) {}
  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) override {
    inner_.on_access(block, pc, hit, cycle, out);
  }
  void on_fill(std::uint64_t block, bool was_prefetch) override {
    inner_.on_fill(block, was_prefetch);
  }
  bool trains_on_fill() const override { return true; }
  std::size_t prediction_latency() const override { return inner_.prediction_latency(); }
  std::size_t storage_bytes() const override { return inner_.storage_bytes(); }
  std::string name() const override { return inner_.name(); }

 private:
  sim::Prefetcher& inner_;
};

/// Two interleaved strided streams with distinct PCs.
trace::MemoryTrace two_stream_trace(std::size_t n) {
  trace::MemoryTrace t;
  for (std::uint64_t i = 0; i < n; ++i) {
    const bool a = i % 2 == 0;
    const std::uint64_t block = a ? 1000 + 3 * i : 900000 + 5 * i;
    t.push_back({block * 64, a ? 0x10u : 0x20u, i * 16, false});
  }
  return t;
}

void expect_same_stats(const sim::SimStats& a, const sim::SimStats& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.llc_accesses, b.llc_accesses);
  EXPECT_EQ(a.llc_hits, b.llc_hits);
  EXPECT_EQ(a.llc_demand_misses, b.llc_demand_misses);
  EXPECT_EQ(a.pf_issued, b.pf_issued);
  EXPECT_EQ(a.pf_useful, b.pf_useful);
  EXPECT_EQ(a.pf_late, b.pf_late);
  EXPECT_EQ(a.pf_dropped, b.pf_dropped);
}

TEST_F(AdapterFixture, SkippingFillEventsLeavesDartStatsUnchanged) {
  // The adapters' on_fill is a no-op, so they let the simulator skip fill
  // events; replaying with the events queued must give the same counters.
  const trace::MemoryTrace t = two_stream_trace(8000);
  sim::SimConfig cfg;
  DartPrefetcher skipping(predictor_, adapter_opts(/*latency=*/97));
  DartPrefetcher observed(predictor_, adapter_opts(/*latency=*/97));
  EXPECT_FALSE(skipping.trains_on_fill());
  FillObserving observing(observed);
  const sim::SimStats fast = sim::Simulator(cfg).run(t, &skipping);
  const sim::SimStats slow = sim::Simulator(cfg).run(t, &observing);
  EXPECT_GT(fast.pf_issued, 0u);
  expect_same_stats(fast, slow);
}

TEST_F(AdapterFixture, ConcurrentNnReplaysOnOneConstModelMatchSerial) {
  // The practical and ideal variants of both NN baselines share one const
  // model each; replaying them as concurrent pool tasks must reproduce the
  // serial counters exactly (and be race-free under TSan).
  const std::shared_ptr<const nn::AddressPredictor>& attention = model_;
  const auto lstm = std::make_shared<const nn::LstmPredictor>(4, 4, 8, 64, 9);
  const trace::MemoryTrace t = two_stream_trace(3000);
  sim::SimConfig cfg;
  NnAdapterOptions opts = adapter_opts();
  opts.trigger_sample = 2;
  const auto make = [&](std::size_t i) -> std::unique_ptr<sim::Prefetcher> {
    NnAdapterOptions o = opts;
    o.latency = i % 2 == 0 ? 4500 : 0;
    if (i < 2) return std::make_unique<AttentionPrefetcher>(attention, o, "TransFetch");
    return std::make_unique<LstmPrefetcher>(lstm, o, "Voyager");
  };
  constexpr std::size_t kReplays = 4;
  std::vector<sim::SimStats> serial(kReplays), concurrent(kReplays);
  for (std::size_t i = 0; i < kReplays; ++i) {
    auto pf = make(i);
    serial[i] = sim::Simulator(cfg).run(t, pf.get());
  }
  auto& pool = common::ThreadPool::instance();
  for (std::size_t i = 0; i < kReplays; ++i) {
    pool.submit([&, i] {
      auto pf = make(i);
      concurrent[i] = sim::Simulator(cfg).run(t, pf.get());
    });
  }
  pool.wait_idle();
  for (std::size_t i = 0; i < kReplays; ++i) {
    SCOPED_TRACE(i);
    EXPECT_GT(serial[i].pf_issued, 0u);
    expect_same_stats(concurrent[i], serial[i]);
  }
}

TEST_F(AdapterFixture, DartEndToEndInSimulatorBeatsNoPrefetcher) {
  sim::SimConfig cfg;
  sim::Simulator sim(cfg);
  // Sequential stream matching the trained pattern, with enough compute
  // between accesses (instr gap 64 -> ~16 cycles/access) that a 97-cycle
  // predictor can be timely.
  trace::MemoryTrace t;
  for (std::uint64_t i = 0; i < 30000; ++i) {
    t.push_back({(i + 1) * 64, 0x10, i * 64, false});
  }
  const sim::SimStats base = sim.run(t);
  DartPrefetcher pf(predictor_, adapter_opts(/*latency=*/97));
  const sim::SimStats with_pf = sim.run(t, &pf);
  EXPECT_GT(with_pf.ipc(), base.ipc());
  EXPECT_GT(with_pf.accuracy(), 0.5);
}

}  // namespace
}  // namespace dart::prefetch

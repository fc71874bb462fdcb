// Tests for the fused multi-layer table (the paper's §VIII future-work
// feature). NN checkpoint round trips live in io_artifact_test, next to the
// `.dart` container they are stored in.
#include <gtest/gtest.h>

#include "nn/ops.hpp"
#include "nn/transformer.hpp"
#include "tabular/complexity.hpp"
#include "tabular/fused_kernel.hpp"

namespace dart {
namespace {

// ------------------------------------------------------------- FusedKernel

TEST(FusedKernel, ExactOnPrototypeInputs) {
  // Identity stack: table rows are the prototypes themselves; querying a
  // training point equal to a prototype must return it exactly.
  nn::Tensor rows({8, 4});
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 4; ++j) rows.at(i, j) = static_cast<float>(i * 7 + j);
  }
  tabular::FusedKernelConfig cfg;
  cfg.num_prototypes = 8;
  cfg.kmeans_iters = 25;
  tabular::FusedKernel fused(4, 4, [](const nn::Tensor& x) { return x; }, rows, cfg);
  nn::Tensor out = fused.query(rows);
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_NEAR(out[i], rows[i], 1e-3f);
}

TEST(FusedKernel, ApproximatesAnFfnStack) {
  // Fuse hidden -> ReLU -> out into one table and compare against the exact
  // stack on held-out points drawn from the same distribution.
  nn::FeedForward ffn(6, 12, 7);
  auto stack = [&](const nn::Tensor& x) { return ffn.forward(x); };
  nn::Tensor train = nn::Tensor::randn({2048, 6}, 1.0f, 8);
  tabular::FusedKernelConfig cfg;
  cfg.num_prototypes = 512;
  tabular::FusedKernel fused(6, 6, stack, train, cfg);
  nn::Tensor test = nn::Tensor::randn({128, 6}, 1.0f, 9);
  nn::Tensor approx = fused.query(test);
  nn::Tensor exact = ffn.forward(test);
  EXPECT_GT(nn::ops::cosine_similarity(approx, exact), 0.7);
}

TEST(FusedKernel, MoreVqPrototypesReduceError) {
  nn::FeedForward ffn(6, 12, 11);
  auto stack = [&](const nn::Tensor& x) { return ffn.forward(x); };
  nn::Tensor train = nn::Tensor::randn({2048, 6}, 1.0f, 12);
  nn::Tensor test = nn::Tensor::randn({128, 6}, 1.0f, 13);
  nn::Tensor exact = ffn.forward(test);
  auto mse_for = [&](std::size_t k) {
    tabular::FusedKernelConfig cfg;
    cfg.num_prototypes = k;
    tabular::FusedKernel fused(6, 6, stack, train, cfg);
    nn::Tensor approx = fused.query(test);
    double mse = 0.0;
    for (std::size_t i = 0; i < approx.numel(); ++i) {
      const double d = approx[i] - exact[i];
      mse += d * d;
    }
    return mse;
  };
  EXPECT_LE(mse_for(512), mse_for(16) * 1.05);
}

TEST(FusedKernel, LatencyBeatsTwoChainedLinearKernels) {
  nn::FeedForward ffn(8, 16, 21);
  auto stack = [&](const nn::Tensor& x) { return ffn.forward(x); };
  nn::Tensor train = nn::Tensor::randn({256, 8}, 1.0f, 22);
  tabular::FusedKernelConfig cfg;
  cfg.num_prototypes = 256;
  tabular::FusedKernel fused(8, 8, stack, train, cfg);
  // Two linear kernels at K=128, C=2 cost 2*(7+1+1) = 18 cycles; the fused
  // table at K=256 costs log2(256)+1 = 9.
  EXPECT_LT(fused.latency_cycles(),
            2 * tabular::linear_kernel_latency(128, 2));
}

TEST(FusedKernel, RejectsBadShapes) {
  nn::Tensor train({10, 3});
  tabular::FusedKernelConfig cfg;
  cfg.num_prototypes = 4;
  EXPECT_THROW(
      tabular::FusedKernel(4, 4, [](const nn::Tensor& x) { return x; }, train, cfg),
      std::invalid_argument);
}

}  // namespace
}  // namespace dart

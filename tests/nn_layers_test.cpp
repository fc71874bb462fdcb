// Gradient checks and shape tests for every trainable layer: the backward
// implementations are validated against central finite differences.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "nn/attention.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"
#include "nn/transformer.hpp"

namespace dart::nn {
namespace {

/// Scalar loss used for gradient checking: sum of elementwise y * coeff.
double weighted_sum(const Tensor& y, const Tensor& coeff) {
  double s = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) s += static_cast<double>(y[i]) * coeff[i];
  return s;
}

/// Checks dL/dx and dL/dparams of `module` on input `x` via central
/// differences. Loss L = sum(coeff ⊙ forward(x)).
void check_gradients(Module& module, Tensor x, float eps = 1e-2f, float tol = 2e-2f) {
  Tensor y = module.forward(x);
  Tensor coeff = Tensor::randn(y.shape(), 1.0f, 77);
  module.zero_grad();
  Tensor y2 = module.forward(x);
  Tensor dx = module.backward(coeff);

  // Input gradient.
  for (std::size_t i = 0; i < std::min<std::size_t>(x.numel(), 24); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fp = weighted_sum(module.forward(xp), coeff);
    const double fm = weighted_sum(module.forward(xm), coeff);
    const double fd = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(dx[i], fd, tol * std::max(1.0, std::fabs(fd)))
        << "input grad mismatch at " << i;
  }
  // Parameter gradients (sample a few per parameter).
  for (Param* p : module.params()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(p->value.numel(), 12); ++i) {
      const float orig = p->value[i];
      p->value[i] = orig + eps;
      const double fp = weighted_sum(module.forward(x), coeff);
      p->value[i] = orig - eps;
      const double fm = weighted_sum(module.forward(x), coeff);
      p->value[i] = orig;
      const double fd = (fp - fm) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], fd, tol * std::max(1.0, std::fabs(fd)))
          << "param " << p->name << " grad mismatch at " << i;
    }
  }
}

TEST(Linear, ForwardMatchesManual) {
  Linear lin(2, 3, 1);
  lin.mutable_weight().fill(0.5f);
  lin.mutable_bias().fill(1.0f);
  Tensor x({1, 2});
  x[0] = 2.0f;
  x[1] = 4.0f;
  Tensor y = lin.forward(x);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(y.at(0, j), 0.5f * 6.0f + 1.0f);
}

TEST(Linear, Handles3dInput) {
  Linear lin(4, 6, 2);
  Tensor x = Tensor::randn({2, 3, 4}, 1.0f, 3);
  Tensor y = lin.forward(x);
  ASSERT_EQ(y.ndim(), 3u);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 3u);
  EXPECT_EQ(y.dim(2), 6u);
}

TEST(Linear, GradientCheck) {
  Linear lin(5, 4, 11);
  check_gradients(lin, Tensor::randn({3, 5}, 1.0f, 5));
}

TEST(Linear, ApplyIsStateless) {
  Linear lin(3, 3, 4);
  Tensor x = Tensor::randn({2, 3}, 1.0f, 6);
  Tensor a = lin.apply(x);
  Tensor b = lin.forward(x);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(LayerNorm, NormalizesRows) {
  LayerNorm ln(8);
  Tensor x = Tensor::randn({4, 8}, 3.0f, 7);
  Tensor y = ln.forward(x);
  for (std::size_t i = 0; i < 4; ++i) {
    double mean = 0.0, var = 0.0;
    for (std::size_t j = 0; j < 8; ++j) mean += y.at(i, j);
    mean /= 8.0;
    for (std::size_t j = 0; j < 8; ++j) var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNorm, GradientCheck) {
  LayerNorm ln(6);
  // Perturb gamma/beta so gradients are non-trivial.
  for (Param* p : ln.params()) {
    for (std::size_t i = 0; i < p->value.numel(); ++i) {
      p->value[i] += 0.1f * static_cast<float>(i % 3);
    }
  }
  check_gradients(ln, Tensor::randn({4, 6}, 1.0f, 8), 1e-2f, 4e-2f);
}

TEST(FeedForward, GradientCheck) {
  FeedForward ffn(4, 8, 21);
  check_gradients(ffn, Tensor::randn({3, 4}, 1.0f, 9));
}

TEST(Msa, OutputShapeAndGradientCheck) {
  MultiHeadSelfAttention msa(8, 2, 31);
  Tensor x = Tensor::randn({2, 4, 8}, 0.5f, 10);
  Tensor y = msa.forward(x);
  ASSERT_EQ(y.shape(), x.shape());
  check_gradients(msa, x, 1e-2f, 5e-2f);
}

TEST(Msa, RejectsBadShapes) {
  MultiHeadSelfAttention msa(8, 2, 31);
  Tensor bad({2, 8});
  EXPECT_THROW(msa.forward(bad), std::invalid_argument);
  EXPECT_THROW(MultiHeadSelfAttention(7, 2, 1), std::invalid_argument);
}

TEST(Msa, AttentionCoreMatchesForwardPath) {
  // forward() == out_proj(attention_core(qkv_proj(x))).
  MultiHeadSelfAttention msa(8, 2, 41);
  Tensor x = Tensor::randn({1, 4, 8}, 0.5f, 11);
  Tensor y = msa.forward(x);
  Tensor qkv = msa.qkv_proj().apply(x);
  Tensor concat = msa.attention_core(qkv);
  Tensor y2 = msa.out_proj().apply(concat);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], y2[i], 1e-4f);
}

TEST(EncoderLayer, GradientCheck) {
  TransformerEncoderLayer enc(8, 2, 16, 51);
  check_gradients(enc, Tensor::randn({2, 4, 8}, 0.5f, 12), 1e-2f, 6e-2f);
}

TEST(Lstm, HiddenSequenceShape) {
  Lstm lstm(5, 7, 61);
  Tensor x = Tensor::randn({3, 6, 5}, 1.0f, 13);
  Tensor h = lstm.forward(x);
  ASSERT_EQ(h.ndim(), 3u);
  EXPECT_EQ(h.dim(0), 3u);
  EXPECT_EQ(h.dim(1), 6u);
  EXPECT_EQ(h.dim(2), 7u);
  for (std::size_t i = 0; i < h.numel(); ++i) {
    EXPECT_GE(h[i], -1.0f);
    EXPECT_LE(h[i], 1.0f);  // |h| <= |tanh| bound
  }
}

TEST(Lstm, GradientCheck) {
  Lstm lstm(3, 4, 71);
  check_gradients(lstm, Tensor::randn({2, 3, 3}, 0.8f, 14), 1e-2f, 6e-2f);
}

TEST(AddressPredictor, ForwardShapeAndDeterminism) {
  ModelConfig cfg;
  cfg.seq_len = 4;
  cfg.addr_dim = 4;
  cfg.pc_dim = 4;
  cfg.dim = 8;
  cfg.ffn_dim = 16;
  cfg.out_dim = 10;
  cfg.heads = 2;
  cfg.layers = 2;
  AddressPredictor m1(cfg, 99), m2(cfg, 99);
  Tensor addr = Tensor::randn({3, 4, 4}, 0.3f, 15);
  Tensor pc = Tensor::randn({3, 4, 4}, 0.3f, 16);
  Tensor y1 = m1.forward(addr, pc);
  Tensor y2 = m2.forward(addr, pc);
  ASSERT_EQ(y1.dim(0), 3u);
  ASSERT_EQ(y1.dim(1), 10u);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST(AddressPredictor, BackwardProducesFiniteGradsForAllParams) {
  ModelConfig cfg;
  cfg.seq_len = 4;
  cfg.addr_dim = 4;
  cfg.pc_dim = 4;
  cfg.dim = 8;
  cfg.ffn_dim = 16;
  cfg.out_dim = 6;
  cfg.heads = 2;
  cfg.layers = 1;
  AddressPredictor model(cfg, 7);
  Tensor addr = Tensor::randn({2, 4, 4}, 0.3f, 17);
  Tensor pc = Tensor::randn({2, 4, 4}, 0.3f, 18);
  Tensor logits = model.forward(addr, pc);
  Tensor d(logits.shape());
  d.fill(1.0f);
  model.zero_grad();
  model.backward(d);
  std::size_t nonzero = 0;
  for (Param* p : model.params()) {
    for (std::size_t i = 0; i < p->grad.numel(); ++i) {
      ASSERT_FALSE(std::isnan(p->grad[i])) << p->name;
      if (p->grad[i] != 0.0f) ++nonzero;
    }
  }
  EXPECT_GT(nonzero, 100u);  // gradient reaches (almost) everything
}

TEST(LstmPredictor, ForwardShape) {
  LstmPredictor model(4, 4, 8, 10, 3);
  Tensor addr = Tensor::randn({2, 5, 4}, 0.3f, 19);
  Tensor pc = Tensor::randn({2, 5, 4}, 0.3f, 20);
  Tensor y = model.forward(addr, pc);
  EXPECT_EQ(y.dim(0), 2u);
  EXPECT_EQ(y.dim(1), 10u);
  EXPECT_GT(model.num_params(), 0u);
}

// ------------------------------------------------ const inference entry

ModelConfig infer_test_config() {
  ModelConfig cfg;
  cfg.seq_len = 4;
  cfg.addr_dim = 4;
  cfg.pc_dim = 4;
  cfg.dim = 8;
  cfg.ffn_dim = 16;
  cfg.out_dim = 10;
  cfg.heads = 2;
  cfg.layers = 2;
  return cfg;
}

void expect_bit_equal(const Tensor& got, const Tensor& expect) {
  ASSERT_EQ(got.shape(), expect.shape());
  EXPECT_EQ(std::memcmp(got.data(), expect.data(), expect.numel() * sizeof(float)), 0);
}

/// `infer` must return `forward`'s logits bit for bit, batched or not.
template <typename Model>
void check_infer_matches_forward(Model& model) {
  for (std::size_t batch : {1u, 3u}) {
    const Tensor addr = Tensor::randn({batch, 4, 4}, 0.3f, 30 + batch);
    const Tensor pc = Tensor::randn({batch, 4, 4}, 0.3f, 40 + batch);
    const Tensor expect = model.forward(addr, pc);
    expect_bit_equal(model.infer(addr, pc), expect);
  }
}

/// An `infer` call (another batch size, other inputs) between `forward`
/// and `backward` must leave every accumulated gradient as it would be
/// without it: infer writes no activation cache.
template <typename Model>
void check_infer_keeps_gradients(Model& plain, Model& interrupted) {
  const Tensor addr = Tensor::randn({2, 4, 4}, 0.3f, 50);
  const Tensor pc = Tensor::randn({2, 4, 4}, 0.3f, 51);
  const Tensor logits = plain.forward(addr, pc);
  interrupted.forward(addr, pc);
  interrupted.infer(Tensor::randn({3, 4, 4}, 0.3f, 52), Tensor::randn({3, 4, 4}, 0.3f, 53));
  const Tensor d = Tensor::randn(logits.shape(), 1.0f, 54);
  plain.zero_grad();
  interrupted.zero_grad();
  plain.backward(d);
  interrupted.backward(d);
  const std::vector<Param*> a = plain.params();
  const std::vector<Param*> b = interrupted.params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i]->name);
    expect_bit_equal(b[i]->grad, a[i]->grad);
  }
}

TEST(AddressPredictor, InferIsBitIdenticalToForward) {
  AddressPredictor model(infer_test_config(), 5);
  check_infer_matches_forward(model);
}

TEST(AddressPredictor, InferBetweenForwardAndBackwardKeepsGradients) {
  AddressPredictor plain(infer_test_config(), 6), interrupted(infer_test_config(), 6);
  check_infer_keeps_gradients(plain, interrupted);
}

TEST(LstmPredictor, InferIsBitIdenticalToForward) {
  LstmPredictor model(4, 4, 8, 10, 7);
  check_infer_matches_forward(model);
}

TEST(LstmPredictor, InferBetweenForwardAndBackwardKeepsGradients) {
  LstmPredictor plain(4, 4, 8, 10, 8), interrupted(4, 4, 8, 10, 8);
  check_infer_keeps_gradients(plain, interrupted);
}

}  // namespace
}  // namespace dart::nn

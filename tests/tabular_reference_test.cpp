// Golden equivalence tests for the zero-allocation tabular inference engine:
// a deliberately naive reference implementation (scalar per-row encodes,
// per-output gather aggregation over the exposed [C][K][DO] table) must match
// the optimized batch path bit-for-bit practically (<= 1e-6), across both the
// exact and hash-tree encoders, for the linear kernel, the attention kernel,
// and a seeded end-to-end TabularPredictor::forward.
//
// The batch-1 SIMD paths are pinned harder, by memcmp against their scalar
// twins (DESIGN.md §6): LayerNorm, the sigmoid LUT, the multi-tree encode,
// the attention kernel (against the transposed-V formulation), and every
// row of a block query against the single-sample query.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/configs.hpp"
#include "nn/transformer.hpp"
#include "tabular/attention_kernel.hpp"
#include "tabular/linear_kernel.hpp"
#include "tabular/tabular_predictor.hpp"
#include "tabular/tabularizer.hpp"

namespace dart::tabular {
namespace {

// ---------------------------------------------------------------- references

/// Naive LinearKernel::query: scalar encode per (row, subspace), then a
/// per-output gather over the table — the pre-optimization access pattern,
/// expressed against the documented [C][K][DO] layout.
nn::Tensor naive_linear_query(const LinearKernel& kernel, const nn::Tensor& rows) {
  const std::size_t n = rows.dim(0);
  const std::size_t di = kernel.in_dim();
  const std::size_t dout = kernel.out_dim();
  const std::size_t c_count = kernel.num_subspaces();
  const std::size_t k = kernel.num_prototypes();
  const std::size_t sub = di / c_count;
  const std::vector<float>& table = kernel.table();
  nn::Tensor out({n, dout});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> code(c_count);
    for (std::size_t c = 0; c < c_count; ++c) {
      code[c] = kernel.encoder(c).encode(rows.row(i) + c * sub);
    }
    for (std::size_t o = 0; o < dout; ++o) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < c_count; ++c) {
        acc += table[(c * k + code[c]) * dout + o];
      }
      out.at(i, o) = acc;
    }
  }
  return out;
}

/// Naive AttentionKernel::query (sigmoid-folded mode): scalar encodes,
/// gather aggregation, explicit V-column slices.
nn::Tensor naive_attention_query(const AttentionKernel& kernel, const nn::Tensor& q,
                                 const nn::Tensor& k, const nn::Tensor& v) {
  const std::size_t t_len = kernel.seq_len();
  const std::size_t dk = kernel.head_dim();
  const std::size_t kp = kernel.config().num_prototypes;
  const std::size_t ck = kernel.config().ck;
  const std::size_t ct = kernel.config().ct;
  const std::size_t sub_dk = dk / ck;
  const std::size_t sub_t = t_len / ct;
  // Stage 1: scores from the QK table.
  nn::Tensor scores({t_len, t_len});
  std::vector<std::uint32_t> qc(t_len * ck), kc(t_len * ck);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t c = 0; c < ck; ++c) {
      qc[t * ck + c] = kernel.q_encoder(c).encode(q.row(t) + c * sub_dk);
      kc[t * ck + c] = kernel.k_encoder(c).encode(k.row(t) + c * sub_dk);
    }
  }
  for (std::size_t t1 = 0; t1 < t_len; ++t1) {
    for (std::size_t t2 = 0; t2 < t_len; ++t2) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < ck; ++c) {
        acc += kernel.qk_table()[c * kp * kp + qc[t1 * ck + c] * kp + kc[t2 * ck + c]];
      }
      scores.at(t1, t2) = acc;
    }
  }
  // Stage 2: encode score rows and V columns, aggregate from the QKV table.
  std::vector<std::uint32_t> sc(t_len * ct), vc(dk * ct);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t c = 0; c < ct; ++c) {
      sc[t * ct + c] = kernel.s_encoder(c).encode(scores.row(t) + c * sub_t);
    }
  }
  std::vector<float> vcol(t_len);
  for (std::size_t d = 0; d < dk; ++d) {
    for (std::size_t t = 0; t < t_len; ++t) vcol[t] = v.at(t, d);
    for (std::size_t c = 0; c < ct; ++c) {
      vc[d * ct + c] = kernel.v_encoder(c).encode(vcol.data() + c * sub_t);
    }
  }
  nn::Tensor out({t_len, dk});
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t d = 0; d < dk; ++d) {
      float acc = 0.0f;
      for (std::size_t c = 0; c < ct; ++c) {
        acc += kernel.qkv_table()[c * kp * kp + sc[t * ct + c] * kp + vc[d * ct + c]];
      }
      out.at(t, d) = acc;
    }
  }
  return out;
}

/// Naive TabularPredictor::forward_sample: Tensor arithmetic mirroring the
/// optimized raw-pointer path, built on the naive kernel references above.
nn::Tensor naive_forward_sample(const TabularPredictor& tab, const nn::Tensor& addr,
                                const nn::Tensor& pc) {
  const std::size_t t_len = tab.arch().seq_len;
  const std::size_t d = tab.arch().dim;
  const std::size_t dh = d / tab.arch().heads;
  nn::Tensor x = naive_linear_query(*tab.addr_kernel, addr);
  nn::Tensor xp = naive_linear_query(*tab.pc_kernel, pc);
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] += xp[i] + tab.pos_encoding[i];
  for (const auto& layer : tab.layers) {
    nn::Tensor qkv = naive_linear_query(*layer.qkv, x);
    nn::Tensor concat({t_len, d});
    for (std::size_t h = 0; h < layer.heads.size(); ++h) {
      nn::Tensor q({t_len, dh}), k({t_len, dh}), v({t_len, dh});
      for (std::size_t t = 0; t < t_len; ++t) {
        const float* row = qkv.row(t);
        for (std::size_t j = 0; j < dh; ++j) {
          q.at(t, j) = row[h * dh + j];
          k.at(t, j) = row[d + h * dh + j];
          v.at(t, j) = row[2 * d + h * dh + j];
        }
      }
      nn::Tensor o = naive_attention_query(*layer.heads[h], q, k, v);
      for (std::size_t t = 0; t < t_len; ++t) {
        for (std::size_t j = 0; j < dh; ++j) concat.at(t, h * dh + j) = o.at(t, j);
      }
    }
    nn::Tensor attn = naive_linear_query(*layer.out_proj, concat);
    attn += x;
    x = layer.ln1.apply(attn);
    nn::Tensor hidden = naive_linear_query(*layer.ffn_hidden, x);
    for (std::size_t i = 0; i < hidden.numel(); ++i) {
      hidden[i] = hidden[i] > 0.0f ? hidden[i] : 0.0f;
    }
    nn::Tensor ffn = naive_linear_query(*layer.ffn_out, hidden);
    ffn += x;
    x = layer.ln2.apply(ffn);
  }
  x = tab.final_ln.apply(x);
  nn::Tensor per_token = naive_linear_query(*tab.head_kernel, x);
  nn::Tensor probs({tab.arch().out_dim});
  const float inv_t = 1.0f / static_cast<float>(t_len);
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t j = 0; j < tab.arch().out_dim; ++j) {
      probs[j] += per_token.at(t, j) * inv_t;
    }
  }
  for (std::size_t j = 0; j < probs.numel(); ++j) probs[j] = tab.sigmoid_lut(probs[j]);
  return probs;
}

// -------------------------------------------------------------------- fixtures

class LinearKernelGolden : public ::testing::TestWithParam<pq::EncoderKind> {};

TEST_P(LinearKernelGolden, OptimizedMatchesNaiveReference) {
  const std::size_t di = 16, dout = 24, n = 200;
  nn::Tensor w = nn::Tensor::randn({dout, di}, 0.8f, 101);
  nn::Tensor b = nn::Tensor::randn({dout}, 0.5f, 102);
  nn::Tensor train = nn::Tensor::randn({256, di}, 1.0f, 103);
  KernelConfig cfg;
  cfg.num_prototypes = 32;
  cfg.num_subspaces = 4;
  cfg.encoder = GetParam();
  LinearKernel kernel(w, b, train, cfg);
  nn::Tensor probe = nn::Tensor::randn({n, di}, 1.1f, 104);
  nn::Tensor fast = kernel.query(probe);
  nn::Tensor ref = naive_linear_query(kernel, probe);
  for (std::size_t i = 0; i < fast.numel(); ++i) {
    EXPECT_NEAR(fast[i], ref[i], 1e-6f) << "mismatch at flat index " << i;
  }
}

TEST_P(LinearKernelGolden, EncodeBatchMatchesScalarEncode) {
  nn::Tensor train = nn::Tensor::randn({300, 12}, 1.0f, 105);
  KernelConfig cfg;
  cfg.num_prototypes = 16;
  cfg.num_subspaces = 3;
  cfg.encoder = GetParam();
  nn::Tensor w = nn::Tensor::randn({5, 12}, 1.0f, 106);
  nn::Tensor b({5});
  LinearKernel kernel(w, b, train, cfg);
  nn::Tensor probe = nn::Tensor::randn({64, 12}, 1.3f, 107);
  for (std::size_t c = 0; c < cfg.num_subspaces; ++c) {
    const pq::Encoder& enc = kernel.encoder(c);
    std::vector<std::uint32_t> batch(probe.dim(0));
    enc.encode_batch(probe.data() + c * 4, 12, probe.dim(0), batch.data());
    for (std::size_t i = 0; i < probe.dim(0); ++i) {
      EXPECT_EQ(batch[i], enc.encode(probe.row(i) + c * 4)) << "row " << i << " subspace " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Encoders, LinearKernelGolden,
                         ::testing::Values(pq::EncoderKind::kExact, pq::EncoderKind::kHashTree));

class AttentionKernelGolden : public ::testing::TestWithParam<pq::EncoderKind> {};

TEST_P(AttentionKernelGolden, OptimizedMatchesNaiveReference) {
  const std::size_t n = 128, t = 8, dk = 8;
  nn::Tensor q = nn::Tensor::randn({n, t, dk}, 0.9f, 111);
  nn::Tensor k = nn::Tensor::randn({n, t, dk}, 0.9f, 112);
  nn::Tensor v = nn::Tensor::randn({n, t, dk}, 0.9f, 113);
  AttentionKernelConfig cfg;
  cfg.num_prototypes = 32;
  cfg.ck = 2;
  cfg.ct = 2;
  cfg.kmeans_iters = 8;
  cfg.encoder = GetParam();
  AttentionKernel kernel(q, k, v, cfg);
  for (std::size_t s = 0; s < 8; ++s) {
    nn::Tensor qs({t, dk}), ks({t, dk}), vs({t, dk});
    std::copy(q.data() + s * t * dk, q.data() + (s + 1) * t * dk, qs.data());
    std::copy(k.data() + s * t * dk, k.data() + (s + 1) * t * dk, ks.data());
    std::copy(v.data() + s * t * dk, v.data() + (s + 1) * t * dk, vs.data());
    nn::Tensor fast = kernel.query(qs, ks, vs);
    nn::Tensor ref = naive_attention_query(kernel, qs, ks, vs);
    for (std::size_t i = 0; i < fast.numel(); ++i) {
      EXPECT_NEAR(fast[i], ref[i], 1e-6f) << "sample " << s << " flat index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Encoders, AttentionKernelGolden,
                         ::testing::Values(pq::EncoderKind::kExact, pq::EncoderKind::kHashTree));

class EndToEndGolden : public ::testing::TestWithParam<pq::EncoderKind> {};

TEST_P(EndToEndGolden, BatchedForwardMatchesNaiveReference) {
  // Seeded, untrained model — tabularize exercises the real builder path.
  nn::ModelConfig arch = core::paper_student_config();
  nn::AddressPredictor model(arch, /*seed=*/42);
  const std::size_t n = 96;
  nn::Tensor addr = nn::Tensor::randn({n, arch.seq_len, arch.addr_dim}, 1.0f, 121);
  nn::Tensor pc = nn::Tensor::randn({n, arch.seq_len, arch.pc_dim}, 1.0f, 122);
  TabularizeOptions opt;
  opt.tables = TableConfig::uniform(16, 2);
  opt.fine_tune = false;
  opt.kmeans_iters = 4;
  opt.max_train_samples = 96;
  opt.encoder = GetParam();
  TabularPredictor tab = tabularize(model, addr, pc, opt);

  const std::size_t b_sz = 12;
  nn::Tensor probe_addr = nn::Tensor::randn({b_sz, arch.seq_len, arch.addr_dim}, 1.0f, 123);
  nn::Tensor probe_pc = nn::Tensor::randn({b_sz, arch.seq_len, arch.pc_dim}, 1.0f, 124);
  nn::Tensor batched = tab.forward(probe_addr, probe_pc);
  for (std::size_t b = 0; b < b_sz; ++b) {
    nn::Tensor a({arch.seq_len, arch.addr_dim}), p({arch.seq_len, arch.pc_dim});
    std::copy(probe_addr.data() + b * a.numel(), probe_addr.data() + (b + 1) * a.numel(),
              a.data());
    std::copy(probe_pc.data() + b * p.numel(), probe_pc.data() + (b + 1) * p.numel(), p.data());
    nn::Tensor ref = naive_forward_sample(tab, a, p);
    nn::Tensor single = tab.forward_sample(a, p);
    for (std::size_t j = 0; j < ref.numel(); ++j) {
      EXPECT_NEAR(batched.at(b, j), ref[j], 1e-6f) << "sample " << b << " output " << j;
      EXPECT_NEAR(single[j], ref[j], 1e-6f) << "sample " << b << " output " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Encoders, EndToEndGolden,
                         ::testing::Values(pq::EncoderKind::kExact, pq::EncoderKind::kHashTree));

// ------------------------------------------------- SIMD paths vs scalar twins

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(BatchOneBitExact, LayerNormMatchesScalarTwin) {
  for (std::size_t d : {4u, 30u, 32u, 33u}) {
    LnParams ln;
    ln.gamma = nn::Tensor::randn({d}, 0.3f, 200 + d);
    ln.beta = nn::Tensor::randn({d}, 0.3f, 300 + d);
    for (std::size_t j = 0; j < d; ++j) ln.gamma[j] += 1.0f;
    const std::size_t m = 9;
    nn::Tensor x = nn::Tensor::randn({m, d}, 2.0f, 400 + d);
    std::vector<float> fast(m * d), twin(m * d);
    ln.apply_into(x.data(), fast.data(), m);
    ln.apply_into_reference(x.data(), twin.data(), m);
    EXPECT_TRUE(bit_equal(fast, twin)) << "d = " << d;
    // In place, as the predictor calls it.
    std::vector<float> inplace(x.data(), x.data() + m * d);
    ln.apply_into(inplace.data(), inplace.data(), m);
    EXPECT_TRUE(bit_equal(inplace, twin)) << "in place, d = " << d;
  }
}

TEST(BatchOneBitExact, SigmoidLutMatchesScalarTwin) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {
      8.0f,  -8.0f, std::nextafter(8.0f, 0.0f), std::nextafter(-8.0f, 0.0f),
      inf,   -inf,  std::numeric_limits<float>::quiet_NaN(), denorm,
      -denorm, 0.0f, -0.0f, std::numeric_limits<float>::min(), 1e30f,
      -1e30f, 7.99f, -7.99f, 0.03125f};
  SigmoidLut lut;
  for (std::size_t n = 1; n <= 17; ++n) {
    for (std::size_t shift = 0; shift < specials.size(); ++shift) {
      std::vector<float> x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = specials[(i + shift) % specials.size()];
      std::vector<float> fast(n), twin(n);
      lut.apply_batch(x.data(), n, fast.data());
      lut.apply_batch_reference(x.data(), n, twin.data());
      EXPECT_TRUE(bit_equal(fast, twin)) << "n = " << n << ", shift = " << shift;
    }
  }
  // A dense sweep over the table's range and past both ends.
  std::vector<float> x(4096);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = -10.0f + 20.0f * i / x.size();
  std::vector<float> fast(x.size()), twin(x.size());
  lut.apply_batch(x.data(), x.size(), fast.data());
  lut.apply_batch_reference(x.data(), x.size(), twin.data());
  EXPECT_TRUE(bit_equal(fast, twin));
  EXPECT_EQ(lut(std::numeric_limits<float>::quiet_NaN()), lut.table_data()[SigmoidLut::kEntries - 1]);
}

TEST(BatchOneBitExact, EncodeJobsMatchPerRowEncode) {
  // Fixed-depth trees of two depths, a non-uniform tree (K = 20) and an
  // exact encoder, over row- and element-strided layouts, in one queue.
  const std::size_t width = 8;
  std::vector<std::unique_ptr<pq::Encoder>> encoders;
  encoders.push_back(pq::make_encoder(pq::EncoderKind::kHashTree,
                                      nn::Tensor::randn({32, width}, 1.0f, 501)));
  encoders.push_back(pq::make_encoder(pq::EncoderKind::kHashTree,
                                      nn::Tensor::randn({128, width}, 1.0f, 502)));
  encoders.push_back(pq::make_encoder(pq::EncoderKind::kHashTree,
                                      nn::Tensor::randn({20, width}, 1.0f, 503)));
  encoders.push_back(pq::make_encoder(pq::EncoderKind::kExact,
                                      nn::Tensor::randn({16, width}, 1.0f, 504)));
  ASSERT_NE(encoders[0]->fixed_depth_tree(), nullptr);
  ASSERT_EQ(encoders[2]->fixed_depth_tree(), nullptr);
  const std::size_t stride = 40;
  nn::Tensor data = nn::Tensor::randn({64, stride}, 1.1f, 505);
  for (std::size_t n : {1u, 7u, 8u, 9u, 19u, 32u}) {
    std::vector<std::vector<std::uint32_t>> fast(2 * encoders.size(),
                                                 std::vector<std::uint32_t>(n));
    pq::EncodeQueue queue;
    for (std::size_t e = 0; e < encoders.size(); ++e) {
      // Rows of `width` consecutive floats, `stride` apart ...
      queue.add(*encoders[e], data.data() + e, stride, 1, n, fast[2 * e].data());
      // ... and columns: element j of row i at (j * stride + i).
      queue.add(*encoders[e], data.data() + 3 + e, 1, stride, n, fast[2 * e + 1].data());
    }
    queue.run();
    std::vector<float> row(width);
    for (std::size_t e = 0; e < encoders.size(); ++e) {
      for (std::size_t i = 0; i < n; ++i) {
        const float* r = data.data() + e + i * stride;
        EXPECT_EQ(fast[2 * e][i], encoders[e]->encode(r)) << "encoder " << e << " row " << i;
        for (std::size_t j = 0; j < width; ++j) row[j] = data.data()[3 + e + i + j * stride];
        EXPECT_EQ(fast[2 * e + 1][i], encoders[e]->encode(row.data()))
            << "encoder " << e << " column " << i;
      }
    }
  }
}

/// The attention query as it was before the in-place V encode: per-subspace
/// encode_batch, an explicit [Dk, T] transpose of V, and scalar lookups that
/// store subspace 0 and add the rest in order.
std::vector<float> transposed_v_attention(const AttentionKernel& kernel, const float* q,
                                          const float* k, const float* v, std::size_t stride,
                                          std::size_t n) {
  const std::size_t t_len = kernel.seq_len(), dk = kernel.head_dim();
  const std::size_t kp = kernel.config().num_prototypes;
  const std::size_t ck = kernel.config().ck, ct = kernel.config().ct;
  const std::size_t sub_dk = dk / ck, sub_t = t_len / ct;
  const std::size_t rows = n * t_len, vrows = n * dk;
  std::vector<std::uint32_t> qc(ck * rows), kc(ck * rows), sc(ct * rows), vc(ct * vrows);
  for (std::size_t c = 0; c < ck; ++c) {
    kernel.q_encoder(c).encode_batch(q + c * sub_dk, stride, rows, qc.data() + c * rows);
    kernel.k_encoder(c).encode_batch(k + c * sub_dk, stride, rows, kc.data() + c * rows);
  }
  std::vector<float> scores(rows * t_len);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t c = 0; c < ck; ++c) {
      const float* tab = kernel.qk_table().data() + c * kp * kp;
      for (std::size_t t1 = 0; t1 < t_len; ++t1) {
        const float* trow = tab + qc[c * rows + s * t_len + t1] * kp;
        float* srow = scores.data() + (s * t_len + t1) * t_len;
        for (std::size_t t2 = 0; t2 < t_len; ++t2) {
          const float val = trow[kc[c * rows + s * t_len + t2]];
          srow[t2] = c == 0 ? val : srow[t2] + val;
        }
      }
    }
  }
  for (std::size_t c = 0; c < ct; ++c) {
    kernel.s_encoder(c).encode_batch(scores.data() + c * sub_t, t_len, rows,
                                     sc.data() + c * rows);
  }
  std::vector<float> vt(vrows * t_len);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < t_len; ++t) {
      for (std::size_t d = 0; d < dk; ++d) {
        vt[(s * dk + d) * t_len + t] = v[(s * t_len + t) * stride + d];
      }
    }
  }
  for (std::size_t c = 0; c < ct; ++c) {
    kernel.v_encoder(c).encode_batch(vt.data() + c * sub_t, t_len, vrows,
                                     vc.data() + c * vrows);
  }
  std::vector<float> out(rows * dk);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t c = 0; c < ct; ++c) {
      const float* tab = kernel.qkv_table().data() + c * kp * kp;
      for (std::size_t t = 0; t < t_len; ++t) {
        const float* trow = tab + sc[c * rows + s * t_len + t] * kp;
        float* orow = out.data() + (s * t_len + t) * dk;
        for (std::size_t d = 0; d < dk; ++d) {
          const float val = trow[vc[c * vrows + s * dk + d]];
          orow[d] = c == 0 ? val : orow[d] + val;
        }
      }
    }
  }
  return out;
}

class AttentionBitExact : public ::testing::TestWithParam<pq::EncoderKind> {};

TEST_P(AttentionBitExact, InPlaceVMatchesTransposedV) {
  // Dk = 16 and T = 8 give full 8-wide gathers; Dk = 12 leaves a tail.
  for (std::size_t dk : {16u, 12u}) {
    const std::size_t t = 8, n_train = 96;
    AttentionKernelConfig cfg;
    cfg.num_prototypes = 32;
    cfg.kmeans_iters = 4;
    cfg.encoder = GetParam();
    AttentionKernel kernel(nn::Tensor::randn({n_train, t, dk}, 0.9f, 601),
                           nn::Tensor::randn({n_train, t, dk}, 0.9f, 602),
                           nn::Tensor::randn({n_train, t, dk}, 0.9f, 603), cfg);
    // A packed [n*T, 3*Dk] activation, as the predictor's QKV projection.
    const std::size_t stride = 3 * dk;
    for (std::size_t n : {1u, 3u, 16u}) {
      nn::Tensor qkv = nn::Tensor::randn({n * t, stride}, 1.0f, 604 + n);
      std::vector<float> fast(n * t * dk);
      kernel.query_batch_into(qkv.data(), stride, qkv.data() + dk, stride, qkv.data() + 2 * dk,
                              stride, n, fast.data(), dk, thread_local_workspace());
      const std::vector<float> twin = transposed_v_attention(
          kernel, qkv.data(), qkv.data() + dk, qkv.data() + 2 * dk, stride, n);
      EXPECT_TRUE(bit_equal(fast, twin)) << "Dk = " << dk << ", n = " << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Encoders, AttentionBitExact,
                         ::testing::Values(pq::EncoderKind::kExact, pq::EncoderKind::kHashTree));

class BlockRowsBitExact : public ::testing::TestWithParam<QuantMode> {};

TEST_P(BlockRowsBitExact, SampleQueryMatchesEveryBlockRow) {
  nn::ModelConfig arch = core::paper_student_config();
  nn::AddressPredictor model(arch, /*seed=*/44);
  nn::Tensor addr = nn::Tensor::randn({96, arch.seq_len, arch.addr_dim}, 1.0f, 701);
  nn::Tensor pc = nn::Tensor::randn({96, arch.seq_len, arch.pc_dim}, 1.0f, 702);
  TabularizeOptions opt;
  opt.tables = TableConfig::uniform(64, 2);
  opt.fine_tune = false;
  opt.kmeans_iters = 3;
  opt.max_train_samples = 96;
  opt.encoder = pq::EncoderKind::kHashTree;
  TabularPredictor tab = tabularize(model, addr, pc, opt);
  tab.set_quant_mode(GetParam());

  const std::size_t n_max = 64, out_d = arch.out_dim;
  const std::size_t a_row = arch.seq_len * arch.addr_dim, p_row = arch.seq_len * arch.pc_dim;
  nn::Tensor probe_addr = nn::Tensor::randn({n_max, arch.seq_len, arch.addr_dim}, 1.0f, 703);
  nn::Tensor probe_pc = nn::Tensor::randn({n_max, arch.seq_len, arch.pc_dim}, 1.0f, 704);
  InferenceWorkspace ws(tab.tabular_arch());
  std::vector<float> singles(n_max * out_d);
  for (std::size_t i = 0; i < n_max; ++i) {
    tab.forward_sample_into(probe_addr.data() + i * a_row, probe_pc.data() + i * p_row,
                            singles.data() + i * out_d, ws);
  }
  for (std::size_t n : {1u, 7u, 16u, 64u}) {
    std::vector<float> block(n * out_d);
    tab.forward_block_into(probe_addr.data(), probe_pc.data(), n, block.data(), ws);
    const std::vector<float> expect(singles.begin(), singles.begin() + n * out_d);
    EXPECT_TRUE(bit_equal(block, expect)) << "block of " << n;
  }
  // The batched wrapper, including the small batches that now run inline.
  for (std::size_t b : {2u, 5u, 8u, 17u, 64u}) {
    nn::Tensor a({b, arch.seq_len, arch.addr_dim}), p({b, arch.seq_len, arch.pc_dim});
    std::copy(probe_addr.data(), probe_addr.data() + b * a_row, a.data());
    std::copy(probe_pc.data(), probe_pc.data() + b * p_row, p.data());
    const nn::Tensor out = tab.forward(a, p);
    const std::vector<float> got(out.data(), out.data() + b * out_d);
    const std::vector<float> expect(singles.begin(), singles.begin() + b * out_d);
    EXPECT_TRUE(bit_equal(got, expect)) << "forward batch " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(QuantModes, BlockRowsBitExact,
                         ::testing::Values(QuantMode::kOff, QuantMode::kInt16, QuantMode::kInt8));

TEST(TabularPredictorEdge, EmptyBatchReturnsEmptyTensor) {
  nn::ModelConfig arch = core::paper_student_config();
  nn::AddressPredictor model(arch, 43);
  nn::Tensor addr = nn::Tensor::randn({32, arch.seq_len, arch.addr_dim}, 1.0f, 131);
  nn::Tensor pc = nn::Tensor::randn({32, arch.seq_len, arch.pc_dim}, 1.0f, 132);
  TabularizeOptions opt;
  opt.tables = TableConfig::uniform(8, 2);
  opt.fine_tune = false;
  opt.kmeans_iters = 2;
  TabularPredictor tab = tabularize(model, addr, pc, opt);
  nn::Tensor empty_addr({0, arch.seq_len, arch.addr_dim});
  nn::Tensor empty_pc({0, arch.seq_len, arch.pc_dim});
  nn::Tensor out = tab.forward(empty_addr, empty_pc);
  EXPECT_EQ(out.dim(0), 0u);
  EXPECT_EQ(out.dim(1), arch.out_dim);
}

}  // namespace
}  // namespace dart::tabular

#include "tabular/tabular_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/thread_pool.hpp"
#include "common/madd.hpp"

namespace dart::tabular {

namespace {

/// Copies a [rows, width] workspace buffer into a freshly shaped stage
/// tensor (introspection path only — the hot path passes stages=nullptr).
void push_stage(std::vector<nn::Tensor>* stages, const float* buf, std::size_t rows,
                std::size_t width) {
  if (stages == nullptr) return;
  nn::Tensor t(rows <= 1 ? std::vector<std::size_t>{width}
                         : std::vector<std::size_t>{rows, width});
  std::copy(buf, buf + rows * width, t.data());
  stages->push_back(std::move(t));
}

}  // namespace

nn::Tensor LnParams::apply(const nn::Tensor& x) const {
  nn::Tensor y(x.shape());
  apply_into(x.data(), y.data(), x.numel() / gamma.numel());
  return y;
}

void LnParams::apply_into(const float* x, float* y, std::size_t m) const {
#if defined(__AVX2__)
  const std::size_t d = gamma.numel();
  const float* g = gamma.data();
  const float* b = beta.data();
  const std::size_t d4 = d - d % 4;
  const std::size_t d8 = d - d % 8;
  // (l0 + l1) + (l2 + l3) of a 4-lane accumulator: the scalar twin's
  // pairing, operands in the same order.
  auto pair_sum = [](__m128 acc) {
    const __m128 pairs = _mm_add_ps(acc, _mm_shuffle_ps(acc, acc, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtss_f32(_mm_add_ss(pairs, _mm_movehl_ps(pairs, pairs)));
  };
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * d;
    float* yrow = y + i * d;
    // Lane l of the 128-bit accumulator is the twin's s_l: it sums
    // row[j + l] over j = 0, 4, 8, ... in the same order.
    __m128 acc = _mm_setzero_ps();
    for (std::size_t j = 0; j < d4; j += 4) acc = _mm_add_ps(acc, _mm_loadu_ps(row + j));
    float mean = pair_sum(acc);
    for (std::size_t j = d4; j < d; ++j) mean += row[j];
    mean /= static_cast<float>(d);
    const __m128 mean4 = _mm_set1_ps(mean);
    acc = _mm_setzero_ps();
    for (std::size_t j = 0; j < d4; j += 4) {
      const __m128 diff = _mm_sub_ps(_mm_loadu_ps(row + j), mean4);
      acc = common::madd(diff, diff, acc);
    }
    float var = pair_sum(acc);
    for (std::size_t j = d4; j < d; ++j) {
      const float diff = row[j] - mean;
      var = common::madd(diff, diff, var);
    }
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    const __m256 mean8 = _mm256_set1_ps(mean);
    const __m256 inv8 = _mm256_set1_ps(inv);
    for (std::size_t j = 0; j < d8; j += 8) {
      const __m256 centered = _mm256_sub_ps(_mm256_loadu_ps(row + j), mean8);
      _mm256_storeu_ps(yrow + j, common::madd(_mm256_mul_ps(centered, inv8),
                                              _mm256_loadu_ps(g + j), _mm256_loadu_ps(b + j)));
    }
    for (std::size_t j = d8; j < d; ++j) {
      yrow[j] = common::madd((row[j] - mean) * inv, g[j], b[j]);
    }
  }
#else
  apply_into_reference(x, y, m);
#endif
}

void LnParams::apply_into_reference(const float* x, float* y, std::size_t m) const {
  const std::size_t d = gamma.numel();
  const float* g = gamma.data();
  const float* b = beta.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x + i * d;
    float* yrow = y + i * d;
    // 4-lane reductions: strict-FP serial sums chain at add latency; four
    // independent accumulators pipeline (and match what a vectorized sum
    // would compute, deterministically). Products fold in through madd.
    float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
    std::size_t j = 0;
    for (; j + 4 <= d; j += 4) {
      s0 += row[j];
      s1 += row[j + 1];
      s2 += row[j + 2];
      s3 += row[j + 3];
    }
    float mean = (s0 + s1) + (s2 + s3);
    for (; j < d; ++j) mean += row[j];
    mean /= static_cast<float>(d);
    float v0 = 0.0f, v1 = 0.0f, v2 = 0.0f, v3 = 0.0f;
    j = 0;
    for (; j + 4 <= d; j += 4) {
      const float d0 = row[j] - mean, d1 = row[j + 1] - mean;
      const float d2 = row[j + 2] - mean, d3 = row[j + 3] - mean;
      v0 = common::madd(d0, d0, v0);
      v1 = common::madd(d1, d1, v1);
      v2 = common::madd(d2, d2, v2);
      v3 = common::madd(d3, d3, v3);
    }
    float var = (v0 + v1) + (v2 + v3);
    for (; j < d; ++j) {
      const float diff = row[j] - mean;
      var = common::madd(diff, diff, var);
    }
    var /= static_cast<float>(d);
    const float inv = 1.0f / std::sqrt(var + eps);
    for (std::size_t jj = 0; jj < d; ++jj) {
      yrow[jj] = common::madd((row[jj] - mean) * inv, g[jj], b[jj]);
    }
  }
}

TabularArch TabularPredictor::tabular_arch() const {
  TabularArch ta;
  ta.seq_len = arch_.seq_len;
  ta.dim = arch_.dim;
  ta.ffn_dim = arch_.ffn_dim;
  ta.out_dim = arch_.out_dim;
  ta.heads = arch_.heads;
  ta.layers = arch_.layers;
  const std::size_t t = ta.seq_len;
  // Persistent per-sample activations: x, scratch, qkv, concat, hidden,
  // and the pooled head's per-row outputs (a quantized head dequantizes
  // every row; the float head needs one). Attention adds a transient score
  // matrix per head.
  ta.float_slots = t * (2 * ta.dim + 3 * ta.dim + ta.dim + ta.ffn_dim + ta.out_dim) +
                   ta.out_dim + t * t + 64;
  // Codes are transient per kernel call (mark/rewind), so the demand is the
  // max over kernels, not the sum.
  std::size_t codes = 0;
  auto linear = [&codes, t](const std::unique_ptr<LinearKernel>& k) {
    if (k) codes = std::max(codes, k->code_slots(t));
  };
  linear(addr_kernel);
  linear(pc_kernel);
  for (const auto& layer : layers) {
    linear(layer.qkv);
    for (const auto& h : layer.heads) {
      if (h) codes = std::max(codes, h->code_slots());
    }
    linear(layer.out_proj);
    linear(layer.ffn_hidden);
    linear(layer.ffn_out);
  }
  linear(head_kernel);
  ta.code_slots = codes + 16;
  return ta;
}

void TabularPredictor::forward_block_into(const float* addr, const float* pc, std::size_t n,
                                          float* probs_out, InferenceWorkspace& ws,
                                          std::vector<nn::Tensor>* stages) const {
  const std::size_t t_len = arch_.seq_len;
  const std::size_t d = arch_.dim;
  const std::size_t dh = d / arch_.heads;
  const std::size_t rows = n * t_len;  // all kernels operate row-wise
  if (n != 1) stages = nullptr;
  const auto frame = ws.mark();

  // Embedding: two linear kernels over all rows + positional encoding
  // (broadcast per sample), summed in place.
  float* x = ws.floats(rows * d);
  float* tmp = ws.floats(rows * d);  // reused for attention/FFN outputs
  addr_kernel->query_into(addr, rows, arch_.addr_dim, x, d, ws);
  pc_kernel->query_into(pc, rows, arch_.pc_dim, tmp, d, ws);
  const float* pos = pos_encoding.data();
  for (std::size_t s = 0; s < n; ++s) {
    float* xs = x + s * t_len * d;
    const float* ts = tmp + s * t_len * d;
    for (std::size_t i = 0; i < t_len * d; ++i) xs[i] += ts[i] + pos[i];
  }
  push_stage(stages, x, t_len, d);

  for (const auto& layer : layers) {
    const auto layer_frame = ws.mark();
    // Packed QKV projection [n*T, 3D]; heads query strided views of it —
    // no q/k/v split copies.
    float* qkv = ws.floats(rows * 3 * d);
    layer.qkv->query_into(x, rows, d, qkv, 3 * d, ws);
    push_stage(stages, qkv, t_len, 3 * d);
    float* concat = ws.floats(rows * d);
    for (std::size_t h = 0; h < layer.heads.size(); ++h) {
      layer.heads[h]->query_batch_into(qkv + h * dh, 3 * d,          // q
                                       qkv + d + h * dh, 3 * d,      // k
                                       qkv + 2 * d + h * dh, 3 * d,  // v
                                       n, concat + h * dh, d, ws);
    }
    push_stage(stages, concat, t_len, d);
    // Output projection + residual + LN1 (normalized back into x).
    layer.out_proj->query_into(concat, rows, d, tmp, d, ws);
    for (std::size_t i = 0; i < rows * d; ++i) tmp[i] += x[i];
    layer.ln1.apply_into(tmp, x, rows);
    push_stage(stages, x, t_len, d);
    // FFN: hidden kernel -> exact ReLU -> output kernel + residual + LN2.
    float* hidden = ws.floats(rows * arch_.ffn_dim);
    layer.ffn_hidden->query_into(x, rows, d, hidden, arch_.ffn_dim, ws);
    for (std::size_t i = 0; i < rows * arch_.ffn_dim; ++i) {
      hidden[i] = hidden[i] > 0.0f ? hidden[i] : 0.0f;
    }
    layer.ffn_out->query_into(hidden, rows, arch_.ffn_dim, tmp, d, ws);
    for (std::size_t i = 0; i < rows * d; ++i) tmp[i] += x[i];
    layer.ln2.apply_into(tmp, x, rows);
    push_stage(stages, x, t_len, d);
    ws.rewind(layer_frame);
  }

  final_ln.apply_into(x, x, rows);
  // Head kernel fused into the mean pool: per sample, the sum over tokens
  // of each output row times 1/T (in token order, from 0), then the
  // sigmoid LUT.
  const std::size_t out_d = arch_.out_dim;
  const float inv_t = 1.0f / static_cast<float>(t_len);
  head_kernel->query_pooled_into(x, n, t_len, d, inv_t, probs_out, ws);
  push_stage(stages, probs_out, 1, out_d);
  sigmoid_lut.apply_batch(probs_out, n * out_d, probs_out);
  ws.rewind(frame);
}

nn::Tensor TabularPredictor::forward_sample(const nn::Tensor& addr, const nn::Tensor& pc,
                                            std::vector<nn::Tensor>* stages) const {
  nn::Tensor probs({arch_.out_dim});
  // No ensure(): the thread-local arena grows to the peak demand on the
  // first call and is a pure bump allocator afterwards.
  forward_sample_into(addr.data(), pc.data(), probs.data(), thread_local_workspace(), stages);
  return probs;
}

nn::Tensor TabularPredictor::forward(const nn::Tensor& addr, const nn::Tensor& pc) const {
  if (addr.ndim() != 3) throw std::invalid_argument("TabularPredictor: addr must be [B,T,S]");
  const std::size_t b_sz = addr.dim(0);
  const std::size_t t_len = addr.dim(1);
  const std::size_t sa = addr.dim(2);
  const std::size_t sp = pc.dim(2);
  nn::Tensor out({b_sz, arch_.out_dim});
  if (b_sz == 0) return out;
  // Layer-major sub-blocks of at most 16 samples: long enough to amortize
  // encoder calls (128+ rows each), small enough that the activation
  // buffers stay L2-resident — larger blocks measurably degrade (the seed's
  // "slower past batch 16" effect was this spill).
  // The same constant is the pool's minimum grain: forking a batch of 2-16
  // samples across workers costs more than it saves (small batches ran
  // slower than batch 1), so a block below it runs inline.
  constexpr std::size_t kMaxBlockSamples = 16;
  TabularArch ta = tabular_arch();
  const std::size_t nb = common::plan_blocks(b_sz, kMaxBlockSamples);
  const std::size_t per_block = std::min(kMaxBlockSamples, (b_sz + nb - 1) / nb);
  ta.float_slots *= per_block;
  ta.code_slots *= per_block;
  // The single top-level batch split (DESIGN.md §6): every kernel invoked
  // below this fork is serial, so the pool is never oversubscribed by
  // nested parallel_for calls.
  common::parallel_for_blocks(b_sz, [&](std::size_t, std::size_t b0, std::size_t b1) {
    InferenceWorkspace& ws = thread_local_workspace();
    ws.ensure(ta);
    for (std::size_t s0 = b0; s0 < b1; s0 += kMaxBlockSamples) {
      const std::size_t bn = std::min(kMaxBlockSamples, b1 - s0);
      forward_block_into(addr.data() + s0 * t_len * sa, pc.data() + s0 * t_len * sp, bn,
                         out.row(s0), ws);
    }
  }, kMaxBlockSamples);
  return out;
}

std::size_t TabularPredictor::storage_bytes() const {
  std::size_t total = sigmoid_lut.table_bytes();
  auto add_kernel = [&total](const std::unique_ptr<LinearKernel>& k) {
    if (k) total += k->table_bytes();
  };
  add_kernel(addr_kernel);
  add_kernel(pc_kernel);
  total += pos_encoding.numel() * sizeof(float);
  for (const auto& layer : layers) {
    add_kernel(layer.qkv);
    for (const auto& h : layer.heads) total += h->table_bytes();
    add_kernel(layer.out_proj);
    add_kernel(layer.ffn_hidden);
    add_kernel(layer.ffn_out);
    total += (layer.ln1.gamma.numel() + layer.ln1.beta.numel() + layer.ln2.gamma.numel() +
              layer.ln2.beta.numel()) *
             sizeof(float);
  }
  total += (final_ln.gamma.numel() + final_ln.beta.numel()) * sizeof(float);
  add_kernel(head_kernel);
  return total;
}

void TabularPredictor::set_quant_mode(QuantMode mode) {
  auto quantize = [mode](const std::unique_ptr<LinearKernel>& k) {
    if (k) k->quantize(mode);
  };
  quantize(addr_kernel);
  quantize(pc_kernel);
  for (const auto& layer : layers) {
    quantize(layer.qkv);
    quantize(layer.out_proj);
    quantize(layer.ffn_hidden);
    quantize(layer.ffn_out);
  }
  quantize(head_kernel);
  quant_mode_ = mode;
}

std::size_t TabularPredictor::quantized_bytes() const {
  std::size_t total = 0;
  auto add_kernel = [&total](const std::unique_ptr<LinearKernel>& k) {
    if (k) total += k->quantized().payload_bytes();
  };
  add_kernel(addr_kernel);
  add_kernel(pc_kernel);
  for (const auto& layer : layers) {
    add_kernel(layer.qkv);
    add_kernel(layer.out_proj);
    add_kernel(layer.ffn_hidden);
    add_kernel(layer.ffn_out);
  }
  add_kernel(head_kernel);
  return total;
}

}  // namespace dart::tabular

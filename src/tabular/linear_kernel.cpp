#include "tabular/linear_kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "pq/kmeans.hpp"
#include "common/madd.hpp"

namespace dart::tabular {

LinearKernel::LinearKernel(const nn::Tensor& weight, const nn::Tensor& bias,
                           const nn::Tensor& training_rows, const KernelConfig& config)
    : config_(config), in_dim_(weight.dim(1)), out_dim_(weight.dim(0)) {
  if (training_rows.ndim() != 2 || training_rows.dim(1) != in_dim_) {
    throw std::invalid_argument("LinearKernel: training rows must be [M, DI]");
  }
  if (in_dim_ % config.num_subspaces != 0) {
    throw std::invalid_argument("LinearKernel: DI must be divisible by C");
  }
  sub_dim_ = in_dim_ / config.num_subspaces;
  const std::size_t k = config.num_prototypes;
  const std::size_t c_count = config.num_subspaces;

  table_.assign(c_count * k * out_dim_, 0.0f);
  encoders_.resize(c_count);

  // Per-subspace prototype learning + table construction (Eq. 10).
  // Subspaces are independent — parallelize across them. Each subspace owns
  // the disjoint table block [c*K*DO, (c+1)*K*DO).
  common::parallel_for_each(c_count, [&](std::size_t c) {
    pq::KMeansOptions km;
    km.max_iters = config_.kmeans_iters;
    km.seed = common::derive_seed(config_.seed, c);
    pq::KMeansResult res = pq::kmeans(pq::columns(training_rows, c * sub_dim_, sub_dim_), k, km);
    // h^c_o(W)_k = W_o,c · P_ck  (+ bias folded into subspace 0).
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* proto = res.centroids.row(kk);
      float* trow = table_.data() + (c * k + kk) * out_dim_;
      for (std::size_t o = 0; o < out_dim_; ++o) {
        const float* wrow = weight.row(o) + c * sub_dim_;
        float acc = 0.0f;
        for (std::size_t j = 0; j < sub_dim_; ++j) acc += wrow[j] * proto[j];
        if (c == 0) acc += bias[o];
        trow[o] = acc;
      }
    }
    encoders_[c] = pq::make_encoder(config_.encoder, res.centroids);
  }, 1);
}

LinearKernel LinearKernel::from_parts(const KernelConfig& config, std::size_t in_dim,
                                      std::size_t out_dim, std::vector<float> table,
                                      std::vector<std::unique_ptr<pq::Encoder>> encoders) {
  const std::size_t k = config.num_prototypes;
  const std::size_t c_count = config.num_subspaces;
  if (in_dim == 0 || out_dim == 0 || k == 0 || c_count == 0 || in_dim % c_count != 0) {
    throw std::invalid_argument("LinearKernel::from_parts: inconsistent dimensions");
  }
  if (table.size() != c_count * k * out_dim) {
    throw std::invalid_argument("LinearKernel::from_parts: table size mismatch");
  }
  if (encoders.size() != c_count) {
    throw std::invalid_argument("LinearKernel::from_parts: encoder count mismatch");
  }
  const std::size_t sub_dim = in_dim / c_count;
  for (const auto& enc : encoders) {
    if (!enc || enc->vec_dim() != sub_dim || enc->num_prototypes() != k) {
      throw std::invalid_argument("LinearKernel::from_parts: encoder shape mismatch");
    }
  }
  LinearKernel kernel;
  kernel.config_ = config;
  kernel.in_dim_ = in_dim;
  kernel.out_dim_ = out_dim;
  kernel.sub_dim_ = sub_dim;
  kernel.table_ = std::move(table);
  kernel.encoders_ = std::move(encoders);
  return kernel;
}

std::uint32_t* LinearKernel::encode_rows(const float* rows, std::size_t n,
                                         std::size_t row_stride,
                                         InferenceWorkspace& ws) const {
  // Codes in subspace-major (SoA) order: codes[c * n + i]. Every
  // subspace's encoder joins one multi-tree walk.
  std::uint32_t* codes = ws.codes(config_.num_subspaces * n);
  pq::EncodeQueue queue;
  for (std::size_t c = 0; c < config_.num_subspaces; ++c) {
    queue.add(*encoders_[c], rows + c * sub_dim_, row_stride, 1, n, codes + c * n);
  }
  queue.run();
  return codes;
}

void LinearKernel::aggregate_row(const std::uint32_t* codes, std::size_t i, std::size_t n,
                                 float* orow) const {
  const std::size_t k = config_.num_prototypes;
  const std::size_t c_count = config_.num_subspaces;
  const float* tbl = table_.data();
  // Subspace 0 (bias folded in) plus subspace 1 in one pass, the rest
  // accumulate: C contiguous rows of length DO, summed in subspace order.
  const float* t0 = tbl + codes[i] * out_dim_;
  if (c_count == 1) {
    std::copy(t0, t0 + out_dim_, orow);
    return;
  }
  const float* t1 = tbl + (k + codes[n + i]) * out_dim_;
  for (std::size_t o = 0; o < out_dim_; ++o) orow[o] = t0[o] + t1[o];
  for (std::size_t c = 2; c < c_count; ++c) {
    const float* tc = tbl + (c * k + codes[c * n + i]) * out_dim_;
    for (std::size_t o = 0; o < out_dim_; ++o) orow[o] += tc[o];
  }
}

void LinearKernel::query_into(const float* rows, std::size_t n, std::size_t row_stride,
                              float* out, std::size_t out_stride,
                              InferenceWorkspace& ws) const {
  const auto m = ws.mark();
  const std::uint32_t* codes = encode_rows(rows, n, row_stride, ws);
  if (!quant_.empty()) {
    // Quantized aggregation (DESIGN.md §10): integer row-adds + one
    // dequantization affine per output column.
    aggregate_quantized(quant_, codes, n, out, out_stride);
  } else {
    for (std::size_t i = 0; i < n; ++i) aggregate_row(codes, i, n, out + i * out_stride);
  }
  ws.rewind(m);
}

void LinearKernel::query_pooled_into(const float* rows, std::size_t groups,
                                     std::size_t group_rows, std::size_t row_stride,
                                     float scale, float* out, InferenceWorkspace& ws) const {
  const std::size_t n = groups * group_rows;
  const auto m = ws.mark();
  const std::uint32_t* codes = encode_rows(rows, n, row_stride, ws);
  // The float table aggregates one row at a time into `row`; a quantized
  // table dequantizes all n rows first (its kernels work on row blocks).
  float* row = nullptr;
  float* all = nullptr;
  if (quant_.empty()) {
    row = ws.floats(out_dim_);
  } else {
    all = ws.floats(n * out_dim_);
    aggregate_quantized(quant_, codes, n, all, out_dim_);
  }
  for (std::size_t g = 0; g < groups; ++g) {
    float* acc = out + g * out_dim_;
    std::fill(acc, acc + out_dim_, 0.0f);
    for (std::size_t t = 0; t < group_rows; ++t) {
      const std::size_t i = g * group_rows + t;
      const float* r = row;
      if (all != nullptr) {
        r = all + i * out_dim_;
      } else {
        aggregate_row(codes, i, n, row);
      }
      for (std::size_t o = 0; o < out_dim_; ++o) acc[o] = common::madd(r[o], scale, acc[o]);
    }
  }
  ws.rewind(m);
}

nn::Tensor LinearKernel::query(const nn::Tensor& rows) const {
  if (rows.ndim() != 2 || rows.dim(1) != in_dim_) {
    throw std::invalid_argument("LinearKernel::query: rows must be [T, DI]");
  }
  const std::size_t t_len = rows.dim(0);
  nn::Tensor out({t_len, out_dim_});
  // Encoding, lookups and aggregation per row are independent
  // ("embarrassingly parallel" per §V-A2). One workspace per block.
  common::parallel_for_blocks(t_len, [&](std::size_t, std::size_t r0, std::size_t r1) {
    query_into(rows.row(r0), r1 - r0, in_dim_, out.row(r0), out_dim_,
               thread_local_workspace());
  }, 16);
  return out;
}

nn::Tensor LinearKernel::query3d(const nn::Tensor& x) const {
  if (x.ndim() != 3) throw std::invalid_argument("LinearKernel::query3d expects [B,T,DI]");
  nn::Tensor flat = x.reshaped({x.dim(0) * x.dim(1), x.dim(2)});
  nn::Tensor out = query(flat);
  out.reshape({x.dim(0), x.dim(1), out_dim_});
  return out;
}

std::size_t LinearKernel::table_bytes() const { return table_.size() * sizeof(float); }

void LinearKernel::quantize(QuantMode mode) {
  if (mode == QuantMode::kOff) {
    quant_ = QuantizedTable{};
    return;
  }
  quant_ = quantize_table(table_.data(), config_.num_subspaces, config_.num_prototypes,
                          out_dim_, mode);
}

void LinearKernel::attach_quantized(QuantizedTable table) {
  if (table.empty()) {
    quant_ = QuantizedTable{};
    return;
  }
  const std::size_t expected =
      config_.num_subspaces * config_.num_prototypes * out_dim_;
  const bool payload_ok = table.mode == QuantMode::kInt16
                              ? (table.q16.size() == expected && table.q8.empty())
                              : (table.q8.size() == expected && table.q16.empty());
  if (table.c != config_.num_subspaces || table.k != config_.num_prototypes ||
      table.out_dim != out_dim_ || table.scales.size() != out_dim_ ||
      table.offsets.size() != out_dim_ || !payload_ok) {
    throw std::invalid_argument("LinearKernel::attach_quantized: payload shape mismatch");
  }
  rebuild_shuffle_lut(table);
  quant_ = std::move(table);
}

}  // namespace dart::tabular

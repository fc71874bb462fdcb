#include "pq/pq.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace dart::pq {

ProductQuantizer::ProductQuantizer(const nn::Tensor& training, const PqConfig& config)
    : config_(config), dim_(training.dim(1)) {
  if (training.ndim() != 2) throw std::invalid_argument("ProductQuantizer: training must be 2-D");
  if (dim_ % config.num_subspaces != 0) {
    throw std::invalid_argument("ProductQuantizer: D must be divisible by C");
  }
  const std::size_t v = sub_dim();
  prototypes_.reserve(config.num_subspaces);
  encoders_.reserve(config.num_subspaces);
  for (std::size_t c = 0; c < config.num_subspaces; ++c) {
    KMeansOptions km = config.kmeans;
    km.seed = common::derive_seed(config.kmeans.seed, c);
    KMeansResult res = kmeans(columns(training, c * v, v), config.num_prototypes, km);
    encoders_.push_back(make_encoder(config.encoder, res.centroids));
    prototypes_.push_back(std::move(res.centroids));
  }
}

std::vector<std::uint32_t> ProductQuantizer::encode(const float* vec) const {
  const std::size_t v = sub_dim();
  std::vector<std::uint32_t> code(config_.num_subspaces);
  for (std::size_t c = 0; c < config_.num_subspaces; ++c) {
    code[c] = encoders_[c]->encode(vec + c * v);
  }
  return code;
}

std::vector<std::uint32_t> ProductQuantizer::encode_all(const nn::Tensor& rows) const {
  const std::size_t n = rows.dim(0);
  const std::size_t c_count = config_.num_subspaces;
  const std::size_t v = sub_dim();
  std::vector<std::uint32_t> codes(n * c_count);
  common::parallel_for(n, [&](std::size_t r0, std::size_t r1) {
    // One virtual call per (subspace, block) — not per row.
    for (std::size_t c = 0; c < c_count; ++c) {
      encoders_[c]->encode_batch(rows.row(r0) + c * v, dim_, r1 - r0,
                                 codes.data() + r0 * c_count + c, c_count);
    }
  }, 64);
  return codes;
}

std::vector<float> ProductQuantizer::reconstruct(const float* vec) const {
  const std::size_t v = sub_dim();
  std::vector<float> out(dim_);
  const auto code = encode(vec);
  for (std::size_t c = 0; c < config_.num_subspaces; ++c) {
    const float* proto = prototypes_[c].row(code[c]);
    std::copy(proto, proto + v, out.begin() + c * v);
  }
  return out;
}

std::vector<float> ProductQuantizer::build_table(const float* weight) const {
  const std::size_t v = sub_dim();
  const std::size_t k = config_.num_prototypes;
  std::vector<float> table(config_.num_subspaces * k);
  for (std::size_t c = 0; c < config_.num_subspaces; ++c) {
    const float* wc = weight + c * v;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* proto = prototypes_[c].row(kk);
      float acc = 0.0f;
      for (std::size_t j = 0; j < v; ++j) acc += wc[j] * proto[j];
      table[c * k + kk] = acc;
    }
  }
  return table;
}

float ProductQuantizer::query(const std::vector<float>& table,
                              const std::vector<std::uint32_t>& code, std::size_t k) {
  float acc = 0.0f;
  for (std::size_t c = 0; c < code.size(); ++c) acc += table[c * k + code[c]];
  return acc;
}

}  // namespace dart::pq

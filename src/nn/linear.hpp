// Fully-connected layer: y = x W^T + b (the paper's Eq. 1, with weight
// stored as W[out, in] to match the tabularization kernel's layout).
#pragma once

#include "nn/module.hpp"

namespace dart::nn {

class Linear : public Module {
 public:
  /// Xavier-uniform initialized layer mapping `in_dim` -> `out_dim`.
  Linear(std::size_t in_dim, std::size_t out_dim, std::uint64_t seed,
         std::string name = "linear");

  /// Caches the input for backward, then returns `apply(x)`.
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

  const Tensor& weight() const { return weight_.value; }
  const Tensor& bias() const { return bias_.value; }
  Tensor& mutable_weight() { return weight_.value; }
  Tensor& mutable_bias() { return bias_.value; }

  /// y = x W^T + b with the current weights. Accepts [m, in] or
  /// [b, t, in] and returns the matching [.., out] shape; touches no
  /// cached activation, so concurrent calls are safe.
  Tensor apply(const Tensor& x) const;

 private:
  std::size_t in_dim_;
  std::size_t out_dim_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  Tensor cached_x_;  // flattened [m, in]
  std::vector<std::size_t> cached_shape_;
};

}  // namespace dart::nn

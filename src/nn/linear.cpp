#include "nn/linear.hpp"

#include <cmath>

#include "nn/ops.hpp"

namespace dart::nn {

namespace {
/// Flattens leading dims into rows: [b, t, d] -> [b*t, d]; [m, d] unchanged.
Tensor flatten_rows(const Tensor& x) {
  const std::size_t d = x.dim(x.ndim() - 1);
  return x.reshaped({x.numel() / d, d});
}
}  // namespace

Linear::Linear(std::size_t in_dim, std::size_t out_dim, std::uint64_t seed, std::string name)
    : in_dim_(in_dim), out_dim_(out_dim) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_dim + out_dim));
  weight_ = Param(Tensor::rand_uniform({out_dim, in_dim}, bound, seed), name + ".weight");
  bias_ = Param(Tensor({out_dim}), name + ".bias");
}

Tensor Linear::forward(const Tensor& x) {
  cached_shape_ = x.shape();
  cached_x_ = flatten_rows(x);
  return apply(x);
}

Tensor Linear::apply(const Tensor& x) const {
  Tensor flat = flatten_rows(x);
  Tensor y;
  ops::linear_forward(flat, weight_.value, bias_.value, y);
  auto out_shape = x.shape();
  out_shape.back() = out_dim_;
  y.reshape(out_shape);
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  Tensor dy = flatten_rows(grad_out);
  const std::size_t m = dy.dim(0);
  // dW += dy^T x
  Tensor dw;
  ops::matmul_tn(dy, cached_x_, dw);
  weight_.grad += dw;
  // db += column sums of dy
  float* db = bias_.grad.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = dy.row(i);
    for (std::size_t j = 0; j < out_dim_; ++j) db[j] += row[j];
  }
  // dx = dy W
  Tensor dx;
  ops::matmul(dy, weight_.value, dx);
  dx.reshape(cached_shape_);
  return dx;
}

}  // namespace dart::nn

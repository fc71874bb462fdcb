#include "nn/attention.hpp"

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/ops.hpp"

namespace dart::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t dim, std::size_t heads,
                                               std::uint64_t seed, std::string name)
    : dim_(dim), heads_(heads) {
  if (dim % heads != 0) throw std::invalid_argument("MSA: dim must be divisible by heads");
  qkv_ = std::make_unique<Linear>(dim, 3 * dim, common::derive_seed(seed, 1), name + ".qkv");
  out_ = std::make_unique<Linear>(dim, dim, common::derive_seed(seed, 2), name + ".out");
}

std::vector<Param*> MultiHeadSelfAttention::params() {
  return collect_params({qkv_.get(), out_.get()});
}

namespace {

/// Copies head `h` of Q/K/V (`which` in {0,1,2}) for batch `b` out of the
/// fused [B,T,3D] projection into a contiguous [T,Dh] matrix.
void gather_head(const Tensor& qkv, std::size_t b, std::size_t h, int which, std::size_t t_len,
                 std::size_t dim, std::size_t dh, Tensor& out) {
  if (out.ndim() != 2 || out.dim(0) != t_len || out.dim(1) != dh) out = Tensor({t_len, dh});
  const std::size_t col0 = static_cast<std::size_t>(which) * dim + h * dh;
  for (std::size_t t = 0; t < t_len; ++t) {
    const float* src = qkv.data() + (b * t_len + t) * 3 * dim + col0;
    float* dst = out.row(t);
    for (std::size_t j = 0; j < dh; ++j) dst[j] = src[j];
  }
}

/// Adds a contiguous [T,Dh] head gradient back into the strided fused layout.
void scatter_head_add(Tensor& dqkv, std::size_t b, std::size_t h, int which, std::size_t t_len,
                      std::size_t dim, std::size_t dh, const Tensor& grad) {
  const std::size_t col0 = static_cast<std::size_t>(which) * dim + h * dh;
  for (std::size_t t = 0; t < t_len; ++t) {
    float* dst = dqkv.data() + (b * t_len + t) * 3 * dim + col0;
    const float* src = grad.row(t);
    for (std::size_t j = 0; j < dh; ++j) dst[j] += src[j];
  }
}

}  // namespace

Tensor MultiHeadSelfAttention::attention_core(const Tensor& qkv, Tensor* probs) const {
  const std::size_t b_sz = qkv.dim(0), t_len = qkv.dim(1);
  const std::size_t dh = head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  Tensor concat({b_sz, t_len, dim_});
  if (probs != nullptr) *probs = Tensor({b_sz * heads_, t_len, t_len});
  common::parallel_for_each(b_sz * heads_, [&](std::size_t bh) {
    const std::size_t b = bh / heads_, h = bh % heads_;
    Tensor q, k, v, scores, o;
    gather_head(qkv, b, h, 0, t_len, dim_, dh, q);
    gather_head(qkv, b, h, 1, t_len, dim_, dh, k);
    gather_head(qkv, b, h, 2, t_len, dim_, dh, v);
    ops::matmul_nt(q, k, scores);
    scores *= scale;
    ops::softmax_rows(scores);
    if (probs != nullptr) {
      float* dst = probs->data() + bh * t_len * t_len;
      for (std::size_t i = 0; i < t_len * t_len; ++i) dst[i] = scores[i];
    }
    ops::matmul(scores, v, o);
    for (std::size_t t = 0; t < t_len; ++t) {
      float* dst = concat.data() + (b * t_len + t) * dim_ + h * dh;
      const float* src = o.row(t);
      for (std::size_t j = 0; j < dh; ++j) dst[j] = src[j];
    }
  }, 1);
  return concat;
}

void MultiHeadSelfAttention::check_input(const Tensor& x) const {
  if (x.ndim() != 3 || x.dim(2) != dim_) {
    throw std::invalid_argument("MSA expects [B,T,D], got " + x.shape_str());
  }
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x) {
  check_input(x);
  cached_b_ = x.dim(0);
  cached_t_ = x.dim(1);
  cached_qkv_ = qkv_->forward(x);  // [B,T,3D]
  return out_->forward(attention_core(cached_qkv_, &cached_attn_));
}

Tensor MultiHeadSelfAttention::apply(const Tensor& x) const {
  check_input(x);
  return out_->apply(attention_core(qkv_->apply(x)));
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  // Through the output projection.
  Tensor d_concat = out_->backward(grad_out);  // [B,T,D]
  const std::size_t dh = head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

  Tensor dqkv({cached_b_, cached_t_, 3 * dim_});
  common::parallel_for_each(cached_b_ * heads_, [&](std::size_t bh) {
    const std::size_t b = bh / heads_, h = bh % heads_;
    // Gather dO for this head.
    Tensor d_o({cached_t_, dh});
    for (std::size_t t = 0; t < cached_t_; ++t) {
      const float* src = d_concat.data() + (b * cached_t_ + t) * dim_ + h * dh;
      float* dst = d_o.row(t);
      for (std::size_t j = 0; j < dh; ++j) dst[j] = src[j];
    }
    Tensor q, k, v;
    gather_head(cached_qkv_, b, h, 0, cached_t_, dim_, dh, q);
    gather_head(cached_qkv_, b, h, 1, cached_t_, dim_, dh, k);
    gather_head(cached_qkv_, b, h, 2, cached_t_, dim_, dh, v);
    // A (softmax probs) for this head.
    Tensor a({cached_t_, cached_t_});
    const float* asrc = cached_attn_.data() + bh * cached_t_ * cached_t_;
    for (std::size_t i = 0; i < cached_t_ * cached_t_; ++i) a[i] = asrc[i];

    // dV = A^T dO ; dA = dO V^T
    Tensor dv, da;
    ops::matmul_tn(a, d_o, dv);
    ops::matmul_nt(d_o, v, da);
    // Softmax backward: dS = A ⊙ (dA - rowsum(dA ⊙ A))
    Tensor ds({cached_t_, cached_t_});
    for (std::size_t i = 0; i < cached_t_; ++i) {
      const float* arow = a.row(i);
      const float* darow = da.row(i);
      float dot = 0.0f;
      for (std::size_t j = 0; j < cached_t_; ++j) dot += arow[j] * darow[j];
      float* dsrow = ds.row(i);
      for (std::size_t j = 0; j < cached_t_; ++j) dsrow[j] = arow[j] * (darow[j] - dot) * scale;
    }
    // dQ = dS K ; dK = dS^T Q
    Tensor dq, dk;
    ops::matmul(ds, k, dq);
    ops::matmul_tn(ds, q, dk);
    scatter_head_add(dqkv, b, h, 0, cached_t_, dim_, dh, dq);
    scatter_head_add(dqkv, b, h, 1, cached_t_, dim_, dh, dk);
    scatter_head_add(dqkv, b, h, 2, cached_t_, dim_, dh, dv);
  }, 1);

  return qkv_->backward(dqkv);
}

}  // namespace dart::nn

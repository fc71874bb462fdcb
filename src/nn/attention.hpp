// Multi-headed self-attention (the paper's Eq. 3-4).
//
// One fused QKV projection (a single Linear D -> 3D, matching the
// Sl(TT, 3*H*DA) term of the paper's Eq. 23) followed by per-head scaled
// dot-product attention and an output projection.
#pragma once

#include <memory>

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace dart::nn {

class MultiHeadSelfAttention : public Module {
 public:
  /// `dim` must be divisible by `heads`.
  MultiHeadSelfAttention(std::size_t dim, std::size_t heads, std::uint64_t seed,
                         std::string name = "msa");

  /// x: [B, T, D] -> [B, T, D]; caches QKV and the softmax probabilities
  /// for backward around the same computation as `apply`.
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;

  std::size_t dim() const { return dim_; }
  std::size_t heads() const { return heads_; }
  std::size_t head_dim() const { return dim_ / heads_; }

  Linear& qkv_proj() { return *qkv_; }
  Linear& out_proj() { return *out_; }
  const Linear& qkv_proj() const { return *qkv_; }
  const Linear& out_proj() const { return *out_; }

  /// out_proj(attention_core(qkv_proj(x))) without touching any cache.
  Tensor apply(const Tensor& x) const;

  /// Per-head scaled dot-product attention given already-projected QKV
  /// ([B,T,3D]) — also the tabularization reference path. Returns
  /// concat(head outputs) BEFORE the output projection; when `probs` is
  /// set it also receives the softmax probabilities as [B*H, T, T].
  Tensor attention_core(const Tensor& qkv, Tensor* probs = nullptr) const;

 private:
  void check_input(const Tensor& x) const;

  std::size_t dim_;
  std::size_t heads_;
  std::unique_ptr<Linear> qkv_;
  std::unique_ptr<Linear> out_;

  // Cached activations for backward.
  Tensor cached_qkv_;    // [B, T, 3D]
  Tensor cached_attn_;   // [B*H, T, T] softmax probabilities
  std::size_t cached_b_ = 0, cached_t_ = 0;
};

}  // namespace dart::nn

#include "nn/transformer.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "nn/ops.hpp"

namespace dart::nn {

// ---------------------------------------------------------------- FeedForward

FeedForward::FeedForward(std::size_t dim, std::size_t hidden, std::uint64_t seed,
                         std::string name) {
  hidden_ = std::make_unique<Linear>(dim, hidden, common::derive_seed(seed, 1), name + ".hidden");
  out_ = std::make_unique<Linear>(hidden, dim, common::derive_seed(seed, 2), name + ".out");
}

Tensor FeedForward::forward(const Tensor& x) {
  cached_pre_relu_ = hidden_->forward(x);
  Tensor h;
  ops::relu(cached_pre_relu_, h);
  h.reshape(cached_pre_relu_.shape());
  return out_->forward(h);
}

Tensor FeedForward::apply(const Tensor& x) const {
  const Tensor pre_relu = hidden_->apply(x);
  Tensor h;
  ops::relu(pre_relu, h);
  h.reshape(pre_relu.shape());
  return out_->apply(h);
}

Tensor FeedForward::backward(const Tensor& grad_out) {
  Tensor dh = out_->backward(grad_out);
  Tensor d_pre;
  ops::relu_backward(cached_pre_relu_, dh, d_pre);
  d_pre.reshape(dh.shape());
  return hidden_->backward(d_pre);
}

std::vector<Param*> FeedForward::params() { return collect_params({hidden_.get(), out_.get()}); }

// ------------------------------------------------- TransformerEncoderLayer

TransformerEncoderLayer::TransformerEncoderLayer(std::size_t dim, std::size_t heads,
                                                 std::size_t ffn_hidden, std::uint64_t seed,
                                                 std::string name) {
  msa_ = std::make_unique<MultiHeadSelfAttention>(dim, heads, common::derive_seed(seed, 1),
                                                  name + ".msa");
  ffn_ = std::make_unique<FeedForward>(dim, ffn_hidden, common::derive_seed(seed, 2),
                                       name + ".ffn");
  ln1_ = std::make_unique<LayerNorm>(dim, 1e-5f, name + ".ln1");
  ln2_ = std::make_unique<LayerNorm>(dim, 1e-5f, name + ".ln2");
}

Tensor TransformerEncoderLayer::forward(const Tensor& x) {
  Tensor attn = msa_->forward(x);
  attn += x;  // residual
  Tensor x1 = ln1_->forward(attn);
  Tensor ff = ffn_->forward(x1);
  ff += x1;  // residual
  return ln2_->forward(ff);
}

Tensor TransformerEncoderLayer::apply(const Tensor& x) const {
  Tensor attn = msa_->apply(x);
  attn += x;
  const Tensor x1 = ln1_->apply(attn);
  Tensor ff = ffn_->apply(x1);
  ff += x1;
  return ln2_->apply(ff);
}

Tensor TransformerEncoderLayer::backward(const Tensor& grad_out) {
  Tensor d_ff_res = ln2_->backward(grad_out);
  Tensor d_x1 = ffn_->backward(d_ff_res);
  d_x1 += d_ff_res;  // residual path
  Tensor d_attn_res = ln1_->backward(d_x1);
  Tensor dx = msa_->backward(d_attn_res);
  dx += d_attn_res;  // residual path
  return dx;
}

std::vector<Param*> TransformerEncoderLayer::params() {
  return collect_params({msa_.get(), ffn_.get(), ln1_.get(), ln2_.get()});
}

// ------------------------------------------------------------ AddressPredictor

AddressPredictor::AddressPredictor(const ModelConfig& config, std::uint64_t seed)
    : config_(config) {
  addr_embed_ = std::make_unique<Linear>(config.addr_dim, config.dim,
                                         common::derive_seed(seed, 1), "addr_embed");
  pc_embed_ = std::make_unique<Linear>(config.pc_dim, config.dim, common::derive_seed(seed, 2),
                                       "pc_embed");
  pos_ = Param(Tensor::randn({config.seq_len, config.dim}, 0.02f, common::derive_seed(seed, 3)),
               "pos_encoding");
  for (std::size_t l = 0; l < config.layers; ++l) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(
        config.dim, config.heads, config.ffn_dim, common::derive_seed(seed, 10 + l),
        "enc" + std::to_string(l)));
  }
  final_ln_ = std::make_unique<LayerNorm>(config.dim, 1e-5f, "final_ln");
  head_ = std::make_unique<Linear>(config.dim, config.out_dim, common::derive_seed(seed, 99),
                                   "head");
}

namespace {

void check_inputs(const Tensor& addr, const Tensor& pc) {
  if (addr.ndim() != 3 || pc.ndim() != 3) {
    throw std::invalid_argument("AddressPredictor: inputs must be [B,T,S]");
  }
}

/// Mean pool of per-token logits [B,T,DO] over the patch dimension.
Tensor mean_pool(const Tensor& per_token) {
  const std::size_t b_sz = per_token.dim(0), t_len = per_token.dim(1),
                    out_d = per_token.dim(2);
  Tensor logits({b_sz, out_d});
  const float inv_t = 1.0f / static_cast<float>(t_len);
  for (std::size_t b = 0; b < b_sz; ++b) {
    float* dst = logits.row(b);
    for (std::size_t t = 0; t < t_len; ++t) {
      const float* src = per_token.data() + (b * t_len + t) * out_d;
      for (std::size_t j = 0; j < out_d; ++j) dst[j] += src[j] * inv_t;
    }
  }
  return logits;
}

}  // namespace

Tensor AddressPredictor::add_positions(Tensor ea, const Tensor& ep) const {
  ea += ep;
  // Add learned positional encoding to every batch element.
  const std::size_t b_sz = ea.dim(0), t_len = ea.dim(1), d = ea.dim(2);
  for (std::size_t b = 0; b < b_sz; ++b) {
    for (std::size_t t = 0; t < t_len; ++t) {
      float* row = ea.data() + (b * t_len + t) * d;
      const float* p = pos_.value.row(t);
      for (std::size_t j = 0; j < d; ++j) row[j] += p[j];
    }
  }
  return ea;
}

Tensor AddressPredictor::forward(const Tensor& addr, const Tensor& pc) {
  check_inputs(addr, pc);
  cached_b_ = addr.dim(0);
  Tensor x = add_positions(addr_embed_->forward(addr), pc_embed_->forward(pc));  // [B,T,D]
  for (auto& layer : layers_) x = layer->forward(x);
  return mean_pool(head_->forward(final_ln_->forward(x)));
}

Tensor AddressPredictor::infer(const Tensor& addr, const Tensor& pc) const {
  check_inputs(addr, pc);
  Tensor x = add_positions(addr_embed_->apply(addr), pc_embed_->apply(pc));
  for (const auto& layer : layers_) x = layer->apply(x);
  return mean_pool(head_->apply(final_ln_->apply(x)));
}

void AddressPredictor::backward(const Tensor& d_logits) {
  const std::size_t t_len = config_.seq_len, out_d = config_.out_dim;
  // Un-pool: every token receives d_logits / T.
  Tensor d_per_token({cached_b_, t_len, out_d});
  const float inv_t = 1.0f / static_cast<float>(t_len);
  for (std::size_t b = 0; b < cached_b_; ++b) {
    const float* src = d_logits.row(b);
    for (std::size_t t = 0; t < t_len; ++t) {
      float* dst = d_per_token.data() + (b * t_len + t) * out_d;
      for (std::size_t j = 0; j < out_d; ++j) dst[j] = src[j] * inv_t;
    }
  }
  Tensor dx = head_->backward(d_per_token);
  dx = final_ln_->backward(dx);
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    dx = (*it)->backward(dx);
  }
  // Positional-encoding gradient: sum over batch.
  const std::size_t d = config_.dim;
  for (std::size_t b = 0; b < cached_b_; ++b) {
    for (std::size_t t = 0; t < t_len; ++t) {
      const float* src = dx.data() + (b * t_len + t) * d;
      float* dst = pos_.grad.row(t);
      for (std::size_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  }
  addr_embed_->backward(dx);
  pc_embed_->backward(dx);
}

std::vector<Param*> AddressPredictor::params() {
  std::vector<Module*> mods = {addr_embed_.get(), pc_embed_.get()};
  for (auto& l : layers_) mods.push_back(l.get());
  mods.push_back(final_ln_.get());
  mods.push_back(head_.get());
  auto out = collect_params(mods);
  out.push_back(&pos_);
  return out;
}

void AddressPredictor::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::size_t AddressPredictor::num_params() const {
  std::size_t n = 0;
  // params() only collects pointers; nothing is written through them.
  for (const Param* p : const_cast<AddressPredictor*>(this)->params()) n += p->value.numel();
  return n;
}

}  // namespace dart::nn

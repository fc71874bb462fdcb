// Transformer encoder and the attention-based memory-access prediction model
// of the paper's Fig. 6: segmented address + PC inputs -> input linears ->
// encoder layers (MSA + FFN, post-LN residual) -> per-patch output linear ->
// mean pool -> delta-bitmap logits.
#pragma once

#include <memory>
#include <vector>

#include "nn/attention.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace dart::nn {

/// Position-wise feed-forward network (Eq. 2): Linear -> ReLU -> Linear.
class FeedForward : public Module {
 public:
  FeedForward(std::size_t dim, std::size_t hidden, std::uint64_t seed,
              std::string name = "ffn");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  /// `forward` without caching activations.
  Tensor apply(const Tensor& x) const;

  Linear& hidden_layer() { return *hidden_; }
  Linear& output_layer() { return *out_; }
  const Linear& hidden_layer() const { return *hidden_; }
  const Linear& output_layer() const { return *out_; }

 private:
  std::unique_ptr<Linear> hidden_;
  std::unique_ptr<Linear> out_;
  Tensor cached_pre_relu_;
};

/// Post-LN encoder layer: x1 = LN1(x + MSA(x)); y = LN2(x1 + FFN(x1)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(std::size_t dim, std::size_t heads, std::size_t ffn_hidden,
                          std::uint64_t seed, std::string name = "enc");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override;
  /// `forward` without caching activations.
  Tensor apply(const Tensor& x) const;

  MultiHeadSelfAttention& msa() { return *msa_; }
  FeedForward& ffn() { return *ffn_; }
  LayerNorm& ln1() { return *ln1_; }
  LayerNorm& ln2() { return *ln2_; }
  const MultiHeadSelfAttention& msa() const { return *msa_; }
  const FeedForward& ffn() const { return *ffn_; }
  const LayerNorm& ln1() const { return *ln1_; }
  const LayerNorm& ln2() const { return *ln2_; }

 private:
  std::unique_ptr<MultiHeadSelfAttention> msa_;
  std::unique_ptr<FeedForward> ffn_;
  std::unique_ptr<LayerNorm> ln1_;
  std::unique_ptr<LayerNorm> ln2_;
};

/// Architecture hyper-parameters (the paper's Table I notation).
struct ModelConfig {
  std::size_t seq_len = 8;       ///< TI / TT — history length (= patches)
  std::size_t addr_dim = 7;      ///< DI for the segmented address input
  std::size_t pc_dim = 7;        ///< segment count of the PC input
  std::size_t dim = 32;          ///< DA — attention (hidden) dimension
  std::size_t ffn_dim = 64;      ///< DF — feed-forward hidden dimension
  std::size_t out_dim = 64;      ///< DO — delta bitmap size
  std::size_t heads = 2;         ///< H
  std::size_t layers = 1;        ///< L
};

/// The full attention-based multi-label memory-access predictor.
///
/// Inputs are two aligned [B, T, S] tensors (segmented addresses and
/// segmented PCs); the output is [B, DO] logits over the delta bitmap.
class AddressPredictor {
 public:
  AddressPredictor(const ModelConfig& config, std::uint64_t seed);

  /// Forward pass producing logits; caches activations for backward.
  Tensor forward(const Tensor& addr, const Tensor& pc);

  /// Backward from dL/dlogits; accumulates all parameter gradients.
  void backward(const Tensor& d_logits);

  /// The inference entry point: the same logits as `forward`, bit for bit,
  /// without writing any cache. Safe to call concurrently on one model
  /// (the NN prefetch adapters, distillation's teacher, evaluation).
  Tensor infer(const Tensor& addr, const Tensor& pc) const;

  std::vector<Param*> params();
  void zero_grad();

  const ModelConfig& config() const { return config_; }

  Linear& addr_embed() { return *addr_embed_; }
  Linear& pc_embed() { return *pc_embed_; }
  Param& pos_encoding() { return pos_; }
  std::vector<std::unique_ptr<TransformerEncoderLayer>>& encoder_layers() { return layers_; }
  LayerNorm& final_ln() { return *final_ln_; }
  Linear& head() { return *head_; }

  /// Total number of scalar parameters.
  std::size_t num_params() const;

 private:
  /// ea + ep + the learned positional encoding, per batch element.
  Tensor add_positions(Tensor ea, const Tensor& ep) const;

  ModelConfig config_;
  std::unique_ptr<Linear> addr_embed_;
  std::unique_ptr<Linear> pc_embed_;
  Param pos_;  // learned positional encoding [T, D]
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  std::unique_ptr<LayerNorm> final_ln_;
  std::unique_ptr<Linear> head_;

  std::size_t cached_b_ = 0;
};

}  // namespace dart::nn

// The table-hierarchy predictor (the DART predictor of Fig. 3): a structural
// mirror of nn::AddressPredictor in which every matrix multiplication has
// been replaced by a tabularization kernel. LayerNorms stay arithmetic
// (Algorithm 1, line 18) and the output sigmoid is a fixed LUT (line 16).
//
// Query-path design (DESIGN.md §6): the hot path is
// `forward_sample_into(addr, pc, probs, ws)` — raw pointers in, raw
// pointers out, all scratch from a per-thread `InferenceWorkspace`, zero
// heap allocations and zero tensor copies (per-head q/k/v are strided views
// into the packed QKV activation). `forward` is the ONLY place that forks
// the thread pool; every kernel underneath runs serial.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"
#include "nn/transformer.hpp"
#include "tabular/attention_kernel.hpp"
#include "tabular/linear_kernel.hpp"
#include "tabular/lut.hpp"
#include "tabular/workspace.hpp"

namespace dart::tabular {

/// Frozen LayerNorm parameters carried over from the NN verbatim.
struct LnParams {
  nn::Tensor gamma;   ///< per-feature scale
  nn::Tensor beta;    ///< per-feature shift
  float eps = 1e-5f;  ///< variance epsilon

  /// Row-wise normalization of the last dimension.
  nn::Tensor apply(const nn::Tensor& x) const;

  /// Normalizes `m` rows of width `gamma.numel()` from `x` into `y`
  /// (in-place safe: `y` may equal `x`). With AVX2 the 4-lane sums run as
  /// one 128-bit accumulator and the affine step 8 lanes wide, with the
  /// scalar twin's operations in its order, so results are bit-identical.
  void apply_into(const float* x, float* y, std::size_t m) const;

  /// The scalar twin of `apply_into` (the path of builds without AVX2); the
  /// bit-exactness tests pin the SIMD path against it.
  void apply_into_reference(const float* x, float* y, std::size_t m) const;
};

/// One tabularized encoder layer.
struct TabularEncoderLayer {
  std::unique_ptr<LinearKernel> qkv;  ///< packed Q/K/V projection, [D -> 3D]
  std::vector<std::unique_ptr<AttentionKernel>> heads;  ///< one per head
  std::unique_ptr<LinearKernel> out_proj;    ///< attention output projection
  LnParams ln1;                              ///< post-attention LayerNorm
  std::unique_ptr<LinearKernel> ffn_hidden;  ///< FFN expansion, [D -> DF]
  std::unique_ptr<LinearKernel> ffn_out;     ///< FFN contraction, [DF -> D]
  LnParams ln2;                              ///< post-FFN LayerNorm
};

/// The assembled table-hierarchy predictor: input/QKV/FFN/head linear
/// kernels, per-head attention kernels, frozen LayerNorms, and the output
/// sigmoid LUT, queried through the zero-allocation paths described in the
/// file comment.
class TabularPredictor {
 public:
  /// Empty predictor (no kernels) — a move-assignment target for loaders
  /// and aggregate containers; not queryable until populated.
  TabularPredictor() = default;

  /// Predictor shell for architecture `arch`; kernels are then populated by
  /// the Tabularizer (or an artifact loader).
  explicit TabularPredictor(const nn::ModelConfig& arch) : arch_(arch) {}

  /// Batched query: [B,T,S] segmented addr + pc -> probabilities [B, DO]
  /// (post-sigmoid-LUT). The single top-level batch split: samples run in
  /// parallel on the shared pool, each on a per-thread workspace.
  nn::Tensor forward(const nn::Tensor& addr, const nn::Tensor& pc) const;

  /// Zero-allocation layer-major block query: `n` samples' [T, S] inputs,
  /// contiguous, at `addr`/`pc`; writes n*DO probabilities to `probs_out`.
  /// Every linear kernel runs ONCE over all n*T rows (encoders see long
  /// batches, aggregation loops stream), only the attention heads iterate
  /// per sample. Serial; safe to call concurrently with distinct
  /// workspaces. `stages` is honored for n == 1 only.
  void forward_block_into(const float* addr, const float* pc, std::size_t n, float* probs_out,
                          InferenceWorkspace& ws,
                          std::vector<nn::Tensor>* stages = nullptr) const;

  /// Zero-allocation single-sample query. `addr`/`pc` point at one sample's
  /// [T, S] rows (contiguous), `probs_out` receives DO probabilities.
  /// Serial; safe to call concurrently with distinct workspaces.
  void forward_sample_into(const float* addr, const float* pc, float* probs_out,
                           InferenceWorkspace& ws,
                           std::vector<nn::Tensor>* stages = nullptr) const {
    forward_block_into(addr, pc, 1, probs_out, ws, stages);
  }

  /// Single-sample query exposing the per-stage activations; `stages`
  /// receives one [T, D]-shaped tensor per stage (used for the Fig. 11
  /// cosine-similarity analysis).
  nn::Tensor forward_sample(const nn::Tensor& addr, const nn::Tensor& pc,
                            std::vector<nn::Tensor>* stages = nullptr) const;

  /// Shape + workspace-demand summary used to size `InferenceWorkspace`s
  /// once, before the batch split.
  TabularArch tabular_arch() const;

  /// Total table storage in bytes (tables + sigmoid LUT + LN params).
  std::size_t storage_bytes() const;

  /// Quantizes (or, for kOff, restores to exact float) every linear
  /// kernel's output table (DESIGN.md §10). Attention tables stay float —
  /// their per-subspace scales would compound across the two lookup stages
  /// for a small share of the query cost. Deterministic; the float tables
  /// are kept, so modes can be switched freely. NOT thread-safe vs
  /// concurrent queries: serving layers must quantize before publishing a
  /// predictor epoch (serve::ShardEngine relies on this).
  void set_quant_mode(QuantMode mode);

  /// The mode applied by the last set_quant_mode / artifact load (kOff
  /// means every kernel serves exact float tables).
  QuantMode quant_mode() const { return quant_mode_; }

  /// Records `mode` as the active quantization mode WITHOUT touching any
  /// kernel — the `.dart` loader calls this after attaching the stored
  /// QNTT payloads verbatim. Everywhere else, use set_quant_mode.
  void adopt_quant_mode(QuantMode mode) { quant_mode_ = mode; }

  /// Total quantized-payload bytes across all linear kernels (0 when
  /// kOff) — the storage/traffic counterpart of storage_bytes(), reported
  /// by the bench JSON.
  std::size_t quantized_bytes() const;

  /// Writes the complete deployment bundle — every kernel table, encoder,
  /// LayerNorm, the sigmoid LUT and the architecture — as a versioned
  /// `.dart` artifact (DESIGN.md §7). Defined in `src/io/artifact.cpp`;
  /// throws io::ArtifactError on I/O failure. For artifacts with metadata
  /// (app, latency, cache key) use io::save_predictor_artifact.
  void save(const std::string& path) const;
  /// Reloads a predictor saved by `save` (or `dart_train`); predictions are
  /// bit-exact vs the original instance. Throws io::ArtifactError on
  /// missing, truncated, corrupted, or version-incompatible files.
  static TabularPredictor load(const std::string& path);

  /// The architecture this predictor mirrors.
  const nn::ModelConfig& arch() const { return arch_; }

  // Builder access (populated by the Tabularizer).
  std::unique_ptr<LinearKernel> addr_kernel;  ///< address embedding kernel
  std::unique_ptr<LinearKernel> pc_kernel;    ///< PC embedding kernel
  nn::Tensor pos_encoding;                    ///< positional encoding, [T, D]
  std::vector<TabularEncoderLayer> layers;    ///< tabularized encoder stack
  LnParams final_ln;                          ///< pre-head LayerNorm
  std::unique_ptr<LinearKernel> head_kernel;  ///< output head, [D -> DO]
  SigmoidLut sigmoid_lut;                     ///< output activation LUT

 private:
  nn::ModelConfig arch_;
  QuantMode quant_mode_ = QuantMode::kOff;
};

}  // namespace dart::tabular

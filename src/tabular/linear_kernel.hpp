// Linear tabularization kernel (the paper's §V-A, Eq. 10-11).
//
// Converts y = W x + b into table lookups: prototypes are learned (k-means)
// on the layer's *actual input distribution* (rows of the training
// activations), then for every output channel o and subspace c the dot
// products W_o,c · P_ck are precomputed. The bias is folded into subspace 0
// so query-time aggregation adds it for free.
//
// Table layout is [C][K][DO] (DESIGN.md §6): the DO outputs of one
// (subspace, prototype) pair are contiguous, so aggregation is C row-copies/
// row-adds of length DO — auto-vectorizable streaming adds instead of the
// DO×C strided gathers a [DO][C][K] layout forces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"
#include "pq/encoder.hpp"
#include "tabular/quant.hpp"
#include "tabular/workspace.hpp"

namespace dart::tabular {

/// Training-time configuration of one linear kernel: the <K, C> table
/// geometry plus the prototype-learning knobs.
struct KernelConfig {
  std::size_t num_prototypes = 128;  ///< K: prototypes per subspace
  std::size_t num_subspaces = 2;     ///< C: input subspaces (codebooks)
  pq::EncoderKind encoder = pq::EncoderKind::kExact;  ///< query-time encoder
  std::size_t kmeans_iters = 10;  ///< k-means refinement iterations
  std::uint64_t seed = 7;         ///< prototype-learning RNG seed
};

/// A tabularized linear layer (the paper's §V-A): y = Wx + b replaced by
/// per-subspace prototype encoding plus C row-adds from the precomputed
/// [C][K][DO] output table. Optionally carries a quantized mirror of the
/// table (DESIGN.md §10) that `query_into` aggregates instead, trading a
/// bounded per-column error for 2–4× smaller table traffic.
class LinearKernel {
 public:
  /// `weight` [DO, DI], `bias` [DO], `training_rows` [M, DI] — the observed
  /// inputs of this layer (batch and sequence flattened), per Fig. 4a.
  LinearKernel(const nn::Tensor& weight, const nn::Tensor& bias,
               const nn::Tensor& training_rows, const KernelConfig& config);

  /// Deserialization factory: adopts a previously trained table (in the
  /// [C][K][DO] layout of `table()`) and per-subspace encoders verbatim —
  /// no k-means, no weights. Validates dimensional consistency (table size,
  /// encoder count/width/prototype count) and throws std::invalid_argument
  /// on mismatch, so a corrupted artifact cannot yield out-of-bounds
  /// lookups. Used by `src/io/artifact.cpp`.
  static LinearKernel from_parts(const KernelConfig& config, std::size_t in_dim,
                                 std::size_t out_dim, std::vector<float> table,
                                 std::vector<std::unique_ptr<pq::Encoder>> encoders);

  /// Zero-allocation hot path: applies the kernel to `n` rows starting at
  /// `rows` (consecutive rows `row_stride` floats apart) and writes row i's
  /// DO outputs at `out + i * out_stride`. Strictly serial — callers own
  /// all parallelism (DESIGN.md §6) — and allocates only from `ws`. When a
  /// quantized table is attached (`quantize`/`attach_quantized`), the
  /// aggregation runs on it within the §10 error budget; otherwise the
  /// exact float table serves.
  void query_into(const float* rows, std::size_t n, std::size_t row_stride, float* out,
                  std::size_t out_stride, InferenceWorkspace& ws) const;

  /// Zero-allocation pooled query: the rows form `groups` groups of
  /// `group_rows` consecutive rows, and group g's DO outputs at
  /// `out + g * DO` start at 0 and accumulate `madd(row, scale, acc)`
  /// (common/madd.hpp) over `query_into`'s output rows of the group, in order —
  /// the predictor's mean pool, without a buffer of per-row outputs.
  /// Serial; scratch comes from `ws`.
  void query_pooled_into(const float* rows, std::size_t groups, std::size_t group_rows,
                         std::size_t row_stride, float scale, float* out,
                         InferenceWorkspace& ws) const;

  /// Builds (or clears, for kOff) the quantized mirror of the output table
  /// (DESIGN.md §10). Deterministic from the float table, which is kept —
  /// switching back to kOff restores bit-exact float queries. Not
  /// thread-safe vs concurrent queries: quantize before sharing.
  void quantize(QuantMode mode);

  /// Adopts a quantized table verbatim (the `.dart` QNTT-chunk load path —
  /// bit-exact vs the saving process, no requantization). Validates the
  /// payload against this kernel's <C, K, DO> and throws
  /// std::invalid_argument on mismatch. Rebuilds the derived vpshufb LUT.
  void attach_quantized(QuantizedTable table);

  /// Active quantization mode (kOff when the float table serves).
  QuantMode quant_mode() const { return quant_.mode; }

  /// The attached quantized table (empty() when mode is kOff); exposed for
  /// serialization and the golden tolerance tests.
  const QuantizedTable& quantized() const { return quant_; }

  /// Applies the kernel to [T, DI] (or [M, DI]) rows -> [T, DO].
  /// Pure lookups + aggregation; no multiplications with weights.
  /// Convenience wrapper over `query_into` that parallelizes across rows.
  nn::Tensor query(const nn::Tensor& rows) const;

  /// Applies to a 3-D activation [B, T, DI] -> [B, T, DO].
  nn::Tensor query3d(const nn::Tensor& x) const;

  /// Input width DI.
  std::size_t in_dim() const { return in_dim_; }
  /// Output width DO.
  std::size_t out_dim() const { return out_dim_; }
  /// K: prototypes per subspace.
  std::size_t num_prototypes() const { return config_.num_prototypes; }
  /// C: input subspaces.
  std::size_t num_subspaces() const { return config_.num_subspaces; }

  /// Workspace code slots one `query_into` over `n` rows needs.
  std::size_t code_slots(std::size_t n) const { return config_.num_subspaces * n; }

  /// Table storage in bytes (DO*K*C entries, 4 bytes each) — the S_h term
  /// of Eq. 18.
  std::size_t table_bytes() const;

  /// The training-time configuration this kernel was built with.
  const KernelConfig& config() const { return config_; }

  /// Raw table in [C][K][DO] layout: entry ((c*K)+k)*DO+o = W_o,c · P_ck
  /// (+ b_o when c == 0). Exposed for the golden-reference tests.
  const std::vector<float>& table() const { return table_; }
  /// Per-subspace encoder (for the golden-reference tests).
  const pq::Encoder& encoder(std::size_t c) const { return *encoders_[c]; }

 private:
  LinearKernel() = default;  // from_parts fills every member

  /// Encodes `n` rows (`row_stride` apart) in every subspace through one
  /// pq::EncodeQueue; returns the SoA codes (codes[c * n + i]) allocated
  /// from `ws`.
  std::uint32_t* encode_rows(const float* rows, std::size_t n, std::size_t row_stride,
                             InferenceWorkspace& ws) const;
  /// Writes float-table output row i of a block of `n` encoded rows.
  void aggregate_row(const std::uint32_t* codes, std::size_t i, std::size_t n,
                     float* orow) const;

  KernelConfig config_;
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  std::size_t sub_dim_ = 0;
  // table_[((c * K) + k) * DO + o] = W_o,c · P_ck (+ b_o when c == 0).
  std::vector<float> table_;
  std::vector<std::unique_ptr<pq::Encoder>> encoders_;  ///< one per subspace
  QuantizedTable quant_;  ///< optional quantized mirror (empty = float path)
};

}  // namespace dart::tabular

// Vector encoders: map a subvector to the index of its (approximately)
// nearest prototype (the paper's g function, Eq. 7).
//
// Two implementations:
//  * ExactEncoder — brute-force argmin over K prototypes (O(K·V)), evaluated
//    in the dot-product form argmin_k (||P_k||²/2 − x·P_k) with the prototype
//    half-norms precomputed at construction.
//  * HashTreeEncoder — balanced binary decision tree over the prototypes
//    with one scalar comparison per level (O(log K)), standing in for the
//    locality-sensitive hashing of MADDNESS [24] that the paper's latency
//    model assumes (Eq. 16: L_g = log K). Stored as structure-of-arrays and
//    walked iteratively.
//
// The batch entry point `encode_batch` is the per-subspace path: one
// virtual call per (subspace, block of rows) instead of one per token. The
// inference hot path queues every subspace of a kernel into one
// `EncodeQueue`, whose `encode_jobs` walks all fixed-depth trees together.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/tensor.hpp"

namespace dart::pq {

class HashTreeEncoder;

/// Interface for per-subspace prototype encoders.
class Encoder {
 public:
  virtual ~Encoder() = default;

  /// Index in [0, K) of the chosen prototype for `row` (length V).
  virtual std::uint32_t encode(const float* row) const = 0;

  /// Encodes `n` rows starting at `rows`: element j of row i is
  /// `rows[i * row_stride + j * elem_stride]`, so a subspace of a wider
  /// matrix (row_stride) or a column of one (elem_stride) is encoded
  /// without a copy. Writes codes to `codes_out[0], codes_out[code_stride],
  /// ...`. Must produce exactly the same codes as per-row `encode` of the
  /// gathered rows.
  virtual void encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                            std::uint32_t* codes_out, std::size_t code_stride = 1,
                            std::size_t elem_stride = 1) const = 0;

  /// This encoder as a hash tree whose leaves all sit at one depth, or
  /// null — the encoders `encode_jobs` can walk level-synchronously.
  virtual const HashTreeEncoder* fixed_depth_tree() const { return nullptr; }

  virtual std::size_t num_prototypes() const = 0;
  virtual std::size_t vec_dim() const = 0;

  /// Scalar comparisons performed per encode (the latency model's cost).
  virtual std::size_t comparisons_per_encode() const = 0;
};

/// Brute-force nearest prototype.
class ExactEncoder final : public Encoder {
 public:
  explicit ExactEncoder(nn::Tensor prototypes);

  std::uint32_t encode(const float* row) const override { return nearest(row, 1); }
  void encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                    std::uint32_t* codes_out, std::size_t code_stride,
                    std::size_t elem_stride) const override;
  std::size_t num_prototypes() const override { return prototypes_.dim(0); }
  std::size_t vec_dim() const override { return prototypes_.dim(1); }
  std::size_t comparisons_per_encode() const override {
    return num_prototypes() * vec_dim();
  }

  const nn::Tensor& prototypes() const { return prototypes_; }

 private:
  /// The argmin of `encode` over a row whose elements are `elem_stride`
  /// floats apart.
  std::uint32_t nearest(const float* row, std::size_t elem_stride) const;

  nn::Tensor prototypes_;
  // half_norms_[k] = ||P_k||²/2, so argmin_k ||x−P_k||² = argmin_k
  // (half_norms_[k] − x·P_k): the ||x||² term is row-constant and drops out.
  std::vector<float> half_norms_;
};

/// Balanced binary hash tree: each internal node compares one input
/// dimension against a threshold; leaves hold prototype indices.
///
/// Built by recursively splitting the prototype set at the median of its
/// highest-variance dimension, so lookups cost exactly ceil(log2 K)
/// comparisons. This trades a small accuracy loss for O(log K) encoding
/// (ablated in bench_ablation_encoders).
class HashTreeEncoder final : public Encoder {
 public:
  /// One internal decision node of the flattened heap: compare
  /// `row[split_dim]` against `threshold` to pick a child. Public because
  /// the `.dart` artifact serializes the trained tree verbatim
  /// (`src/io/artifact.cpp`), keeping reloads bit-exact.
  struct HotNode {
    std::uint32_t split_dim = 0;
    float threshold = 0.0f;
  };

  /// Largest prototype count a tree may have: leaf ids are int32. Both
  /// constructors throw std::invalid_argument above it, before sizing the
  /// heap (whose depth loop would shift past 64 bits for k > 2^63).
  static constexpr std::size_t kMaxPrototypes = std::size_t{1} << 31;

  explicit HashTreeEncoder(const nn::Tensor& prototypes);

  /// Deserialization constructor: adopts a previously built tree (the
  /// `nodes()` / `leaves()` arrays) verbatim. `k`/`v` are the prototype
  /// count and input width. Validates `k` against kMaxPrototypes and the
  /// heap invariants — array sizes,
  /// `split_dim < v`, leaf ids in [0, k), and that every root-to-leaf walk
  /// terminates inside the arrays — and throws std::invalid_argument on any
  /// violation, so a corrupted artifact cannot produce an encoder whose
  /// walk reads out of bounds.
  HashTreeEncoder(std::vector<HotNode> nodes, std::vector<std::int32_t> leaves, std::size_t k,
                  std::size_t v);

  std::uint32_t encode(const float* row) const override;
  void encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                    std::uint32_t* codes_out, std::size_t code_stride,
                    std::size_t elem_stride) const override;
  const HashTreeEncoder* fixed_depth_tree() const override { return uniform_ ? this : nullptr; }
  std::size_t num_prototypes() const override { return k_; }
  std::size_t vec_dim() const override { return v_; }
  std::size_t comparisons_per_encode() const override { return depth_; }

  /// Raw decision nodes (serialization; parallel to `leaves()`).
  const std::vector<HotNode>& nodes() const { return hot_; }
  /// Raw leaf prototype ids, -1 on internal nodes (serialization).
  const std::vector<std::int32_t>& leaves() const { return protos_; }

  /// `nodes()` as two parallel arrays, padded with 8 zero entries so that a
  /// vector load of any level's first 8 nodes stays in bounds (the top
  /// levels of `encode_jobs`' walk select nodes from registers).
  const std::int32_t* split_dims() const { return split_dims_.data(); }
  /// Thresholds parallel to `split_dims()`, padded the same way.
  const float* thresholds() const { return thresholds_.data(); }

 private:
  void build(std::vector<std::uint32_t> protos, const nn::Tensor& prototypes,
             std::size_t node_idx);
  /// Derives `uniform_` and the parallel node arrays from the heap.
  void index_nodes();

  // Flattened heap (children of i at 2i+1/2i+2) split hot/cold: the walk
  // touches only the 8-byte {split_dim, threshold} pairs; leaf prototype
  // ids live in a separate array read once at the end. protos_[i] >= 0
  // marks a leaf.
  std::vector<HotNode> hot_;
  std::vector<std::int32_t> protos_;
  std::vector<std::int32_t> split_dims_;
  std::vector<float> thresholds_;
  std::size_t k_ = 0;
  std::size_t v_ = 0;
  std::size_t depth_ = 0;
  // True when every leaf sits at exactly depth_ (K a power of two): the
  // walk then needs no per-step leaf test and runs branchless.
  bool uniform_ = false;
};

/// One block of rows for `encode_jobs`: `n` rows laid out as in
/// Encoder::encode_batch, encoded by `encoder` into `codes[0..n)`.
struct EncodeJob {
  const Encoder* encoder = nullptr;  ///< the subspace's encoder
  const float* rows = nullptr;       ///< element 0 of row 0
  std::size_t row_stride = 0;        ///< floats between consecutive rows
  std::size_t elem_stride = 1;       ///< floats between a row's elements
  std::size_t n = 0;                 ///< rows to encode
  std::uint32_t* codes = nullptr;    ///< receives n codes, contiguous
};

/// Encodes every job. With AVX2, the jobs whose encoders are fixed-depth
/// hash trees of one depth share a single level-synchronous walk: 8 rows
/// per vector and up to 8 vectors, of any jobs and subspaces, in flight per
/// level, so the dependent node and row loads of different trees overlap.
/// Every other job, and every job in a build without AVX2, runs
/// Encoder::encode_batch (the scalar twin). Codes equal per-row `encode`
/// by construction: each lane makes the same comparisons.
void encode_jobs(const EncodeJob* jobs, std::size_t count);

/// A fixed-capacity list of EncodeJobs, so that a kernel can queue one job
/// per subspace (and per sample) without heap allocation. `add` runs the
/// queued jobs first when the queue is full; `run` runs the rest. Codes are
/// only complete after `run`.
class EncodeQueue {
 public:
  /// Queues `n` rows of `encoder`'s subspace (layout as in EncodeJob).
  void add(const Encoder& encoder, const float* rows, std::size_t row_stride,
           std::size_t elem_stride, std::size_t n, std::uint32_t* codes) {
    if (count_ == jobs_.size()) run();
    jobs_[count_++] = {&encoder, rows, row_stride, elem_stride, n, codes};
  }

  /// Encodes every queued job and empties the queue.
  void run() {
    encode_jobs(jobs_.data(), count_);
    count_ = 0;
  }

 private:
  std::array<EncodeJob, 16> jobs_{};
  std::size_t count_ = 0;
};

/// Factory choice used across the tabular stack.
enum class EncoderKind { kExact, kHashTree };

std::unique_ptr<Encoder> make_encoder(EncoderKind kind, const nn::Tensor& prototypes);

}  // namespace dart::pq

#include "pq/encoder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "pq/kmeans.hpp"

namespace dart::pq {

ExactEncoder::ExactEncoder(nn::Tensor prototypes) : prototypes_(std::move(prototypes)) {
  if (prototypes_.ndim() != 2) throw std::invalid_argument("ExactEncoder: prototypes must be 2-D");
  const std::size_t k = prototypes_.dim(0), v = prototypes_.dim(1);
  half_norms_.resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    const float* p = prototypes_.row(c);
    float acc = 0.0f;
    for (std::size_t j = 0; j < v; ++j) acc += p[j] * p[j];
    half_norms_[c] = 0.5f * acc;
  }
}

void ExactEncoder::encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                                std::uint32_t* codes_out, std::size_t code_stride,
                                std::size_t elem_stride) const {
  for (std::size_t i = 0; i < n; ++i) {
    codes_out[i * code_stride] = nearest(rows + i * row_stride, elem_stride);
  }
}

std::uint32_t ExactEncoder::nearest(const float* row, std::size_t elem_stride) const {
  const std::size_t k = prototypes_.dim(0), v = prototypes_.dim(1);
  const float* protos = prototypes_.data();
  std::uint32_t best = 0;
  float best_d = std::numeric_limits<float>::max();
  for (std::size_t c = 0; c < k; ++c) {
    const float* p = protos + c * v;
    float dot = 0.0f;
    for (std::size_t j = 0; j < v; ++j) dot += row[j * elem_stride] * p[j];
    const float d = half_norms_[c] - dot;
    if (d < best_d) {
      best_d = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

namespace {
/// Depth of the full heap with at least k leaves, k checked first.
std::size_t tree_depth(std::size_t k) {
  if (k > HashTreeEncoder::kMaxPrototypes) {
    throw std::invalid_argument("HashTreeEncoder: more than 2^31 prototypes");
  }
  std::size_t depth = 0;
  while ((std::size_t{1} << depth) < k) ++depth;
  return depth;
}
}  // namespace

HashTreeEncoder::HashTreeEncoder(const nn::Tensor& prototypes) {
  if (prototypes.ndim() != 2) throw std::invalid_argument("HashTreeEncoder: prototypes must be 2-D");
  k_ = prototypes.dim(0);
  v_ = prototypes.dim(1);
  depth_ = tree_depth(k_);
  // Full heap with 2^depth leaves.
  const std::size_t node_count = (1ULL << (depth_ + 1)) - 1;
  hot_.assign(node_count, HotNode{});
  protos_.assign(node_count, -1);
  std::vector<std::uint32_t> all(k_);
  std::iota(all.begin(), all.end(), 0);
  build(std::move(all), prototypes, 0);
  index_nodes();
}

HashTreeEncoder::HashTreeEncoder(std::vector<HotNode> nodes, std::vector<std::int32_t> leaves,
                                 std::size_t k, std::size_t v)
    : hot_(std::move(nodes)), protos_(std::move(leaves)), k_(k), v_(v) {
  if (k_ == 0 || v_ == 0) throw std::invalid_argument("HashTreeEncoder: empty tree");
  depth_ = tree_depth(k_);
  const std::size_t node_count = (1ULL << (depth_ + 1)) - 1;
  if (hot_.size() != node_count || protos_.size() != node_count) {
    throw std::invalid_argument("HashTreeEncoder: node arrays do not match prototype count");
  }
  // Walk safety: every reachable node must either be a valid leaf or an
  // internal node with a valid split dimension and in-bounds children.
  // Iterative DFS over the (at most node_count) reachable slots.
  std::vector<std::size_t> stack = {0};
  while (!stack.empty()) {
    const std::size_t idx = stack.back();
    stack.pop_back();
    const std::int32_t leaf = protos_[idx];
    if (leaf >= 0) {
      if (static_cast<std::size_t>(leaf) >= k_) {
        throw std::invalid_argument("HashTreeEncoder: leaf prototype id out of range");
      }
      continue;
    }
    if (2 * idx + 2 >= node_count) {
      throw std::invalid_argument("HashTreeEncoder: walk escapes the node heap");
    }
    if (hot_[idx].split_dim >= v_) {
      throw std::invalid_argument("HashTreeEncoder: split dimension out of range");
    }
    stack.push_back(2 * idx + 1);
    stack.push_back(2 * idx + 2);
  }
  index_nodes();
}

void HashTreeEncoder::index_nodes() {
  // Uniform iff no leaf sits above the last level.
  uniform_ = true;
  const std::size_t internal = (1ULL << depth_) - 1;
  for (std::size_t i = 0; i < internal; ++i) {
    if (protos_[i] >= 0) {
      uniform_ = false;
      break;
    }
  }
  split_dims_.assign(hot_.size() + 8, 0);
  thresholds_.assign(hot_.size() + 8, 0.0f);
  for (std::size_t i = 0; i < hot_.size(); ++i) {
    split_dims_[i] = static_cast<std::int32_t>(hot_[i].split_dim);
    thresholds_[i] = hot_[i].threshold;
  }
}

void HashTreeEncoder::build(std::vector<std::uint32_t> protos, const nn::Tensor& prototypes,
                            std::size_t node_idx) {
  if (protos.size() == 1 || 2 * node_idx + 2 >= protos_.size()) {
    protos_[node_idx] = static_cast<std::int32_t>(protos.front());
    return;
  }
  // Pick the dimension with the largest variance among this node's protos.
  std::size_t best_dim = 0;
  double best_var = -1.0;
  for (std::size_t d = 0; d < v_; ++d) {
    double mean = 0.0;
    for (auto p : protos) mean += prototypes.at(p, d);
    mean /= static_cast<double>(protos.size());
    double var = 0.0;
    for (auto p : protos) {
      const double diff = prototypes.at(p, d) - mean;
      var += diff * diff;
    }
    if (var > best_var) {
      best_var = var;
      best_dim = d;
    }
  }
  // Median split (by sorted order, so ties still split evenly).
  std::sort(protos.begin(), protos.end(), [&](std::uint32_t a, std::uint32_t b) {
    return prototypes.at(a, best_dim) < prototypes.at(b, best_dim);
  });
  const std::size_t mid = protos.size() / 2;
  hot_[node_idx].split_dim = static_cast<std::uint32_t>(best_dim);
  hot_[node_idx].threshold =
      0.5f * (prototypes.at(protos[mid - 1], best_dim) + prototypes.at(protos[mid], best_dim));
  protos_[node_idx] = -1;
  std::vector<std::uint32_t> left(protos.begin(), protos.begin() + mid);
  std::vector<std::uint32_t> right(protos.begin() + mid, protos.end());
  build(std::move(left), prototypes, 2 * node_idx + 1);
  build(std::move(right), prototypes, 2 * node_idx + 2);
}

std::uint32_t HashTreeEncoder::encode(const float* row) const {
  const HotNode* hot = hot_.data();
  if (uniform_) {
    // Branchless fixed-depth walk: the step direction is an integer add.
    std::size_t idx = 0;
    for (std::size_t l = 0; l < depth_; ++l) {
      const HotNode nd = hot[idx];
      idx = 2 * idx + 1 + static_cast<std::size_t>(row[nd.split_dim] > nd.threshold);
    }
    return static_cast<std::uint32_t>(protos_[idx]);
  }
  std::size_t idx = 0;
  while (protos_[idx] < 0) {
    const HotNode nd = hot[idx];
    idx = 2 * idx + 1 + static_cast<std::size_t>(row[nd.split_dim] > nd.threshold);
  }
  return static_cast<std::uint32_t>(protos_[idx]);
}

void HashTreeEncoder::encode_batch(const float* rows, std::size_t row_stride, std::size_t n,
                                   std::uint32_t* codes_out, std::size_t code_stride,
                                   std::size_t elem_stride) const {
  const HotNode* hot = hot_.data();
  const std::int32_t* leaf = protos_.data();
  if (uniform_) {
    // Level-synchronous walk over chunks of rows: the ~depth_ dependent
    // loads of different rows interleave, hiding each other's latency.
    constexpr std::size_t kChunk = 16;
    std::size_t idx[kChunk];
    for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
      const std::size_t c = std::min(kChunk, n - i0);
      for (std::size_t j = 0; j < c; ++j) idx[j] = 0;
      for (std::size_t l = 0; l < depth_; ++l) {
        for (std::size_t j = 0; j < c; ++j) {
          const HotNode nd = hot[idx[j]];
          const float x = rows[(i0 + j) * row_stride + nd.split_dim * elem_stride];
          idx[j] = 2 * idx[j] + 1 + static_cast<std::size_t>(x > nd.threshold);
        }
      }
      for (std::size_t j = 0; j < c; ++j) {
        codes_out[(i0 + j) * code_stride] = static_cast<std::uint32_t>(leaf[idx[j]]);
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = rows + i * row_stride;
    std::size_t idx = 0;
    while (leaf[idx] < 0) {
      const HotNode nd = hot[idx];
      idx = 2 * idx + 1 +
            static_cast<std::size_t>(row[nd.split_dim * elem_stride] > nd.threshold);
    }
    codes_out[i * code_stride] = static_cast<std::uint32_t>(leaf[idx]);
  }
}

namespace {

#if defined(__AVX2__)

/// Level-synchronous AVX2 walk of fixed-depth trees. A vector is 8 rows of
/// one job; up to kVectors vectors, of any jobs, descend together one level
/// at a time. Per level and vector: fetch each lane's node (split
/// dimension, threshold), gather the row element it tests, and step to
/// child 2i+1 or 2i+2 exactly as the scalar walk does. Level l holds nodes
/// [2^l - 1, 2^(l+1) - 1); levels with at most 16 nodes are selected from
/// registers by permutes, deeper ones are gathered — gathers are the walk's
/// bottleneck on hosts whose microcode slows them down.
class TreeWalk {
 public:
  /// True when `job` can join a walk: a fixed-depth tree whose row offsets
  /// (within one vector) fit the gathers' 32-bit indices.
  static bool accepts(const EncodeJob& job) {
    const HashTreeEncoder* tree = job.encoder->fixed_depth_tree();
    if (tree == nullptr) return false;
    const std::size_t span = 7 * job.row_stride + (tree->vec_dim() - 1) * job.elem_stride;
    return span <= static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max());
  }

  /// Queues the job's rows as vectors, walking whenever the flight fills or
  /// the tree depth changes.
  void add(const EncodeJob& job) {
    const HashTreeEncoder* tree = job.encoder->fixed_depth_tree();
    const std::size_t depth = tree->comparisons_per_encode();
    if (count_ > 0 && depth != depth_) walk();
    depth_ = depth;
    for (std::size_t i0 = 0; i0 < job.n; i0 += 8) {
      Vector& v = flight_[count_];
      v.rows = job.rows + i0 * job.row_stride;
      v.split = tree->split_dims();
      v.threshold = tree->thresholds();
      v.leaves = tree->leaves().data();
      v.codes = job.codes + i0;
      v.valid = std::min<std::size_t>(8, job.n - i0);
      v.elem_stride = static_cast<int>(job.elem_stride);
      // Lanes past the last row re-read it; their codes are not stored.
      alignas(32) std::int32_t off[8];
      for (std::size_t l = 0; l < 8; ++l) {
        off[l] = static_cast<std::int32_t>(std::min(l, v.valid - 1) * job.row_stride);
      }
      v.row_off = _mm256_load_si256(reinterpret_cast<const __m256i*>(off));
      if (++count_ == kVectors) walk();
    }
  }

  /// Walks every queued vector to its leaves and stores the codes.
  void walk() {
    __m256i idx[kVectors];
    for (std::size_t j = 0; j < count_; ++j) idx[j] = _mm256_setzero_si256();
    for (std::size_t l = 0; l < depth_; ++l) {
      const int first = (1 << l) - 1;
      for (std::size_t j = 0; j < count_; ++j) {
        const Vector& v = flight_[j];
        __m256i dim;
        __m256 thr;
        if (l <= 3) {
          // At most 8 nodes: one permute of the level's first 8 entries.
          const __m256i local = _mm256_sub_epi32(idx[j], _mm256_set1_epi32(first));
          dim = _mm256_permutevar8x32_epi32(load_i32(v.split + first), local);
          thr = _mm256_permutevar8x32_ps(_mm256_loadu_ps(v.threshold + first), local);
        } else if (l == 4) {
          // 16 nodes: permute both halves, keep the one bit 3 selects.
          const __m256i local = _mm256_sub_epi32(idx[j], _mm256_set1_epi32(first));
          const __m256i high = _mm256_cmpgt_epi32(local, _mm256_set1_epi32(7));
          dim = _mm256_blendv_epi8(
              _mm256_permutevar8x32_epi32(load_i32(v.split + first), local),
              _mm256_permutevar8x32_epi32(load_i32(v.split + first + 8), local), high);
          thr = _mm256_blendv_ps(
              _mm256_permutevar8x32_ps(_mm256_loadu_ps(v.threshold + first), local),
              _mm256_permutevar8x32_ps(_mm256_loadu_ps(v.threshold + first + 8), local),
              _mm256_castsi256_ps(high));
        } else {
          dim = _mm256_i32gather_epi32(v.split, idx[j], 4);
          thr = _mm256_i32gather_ps(v.threshold, idx[j], 4);
        }
        const __m256i elem = v.elem_stride == 1
                                 ? dim
                                 : _mm256_mullo_epi32(dim, _mm256_set1_epi32(v.elem_stride));
        const __m256 x = _mm256_i32gather_ps(v.rows, _mm256_add_epi32(v.row_off, elem), 4);
        // x > thr gives all-ones (-1) per lane: child = 2*idx + 1 - mask.
        const __m256i gt = _mm256_castps_si256(_mm256_cmp_ps(x, thr, _CMP_GT_OQ));
        idx[j] = _mm256_sub_epi32(
            _mm256_add_epi32(_mm256_add_epi32(idx[j], idx[j]), _mm256_set1_epi32(1)), gt);
      }
    }
    for (std::size_t j = 0; j < count_; ++j) {
      const Vector& v = flight_[j];
      const __m256i code = _mm256_i32gather_epi32(v.leaves, idx[j], 4);
      if (v.valid == 8) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(v.codes), code);
      } else {
        alignas(32) std::uint32_t lanes[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), code);
        std::copy(lanes, lanes + v.valid, v.codes);
      }
    }
    count_ = 0;
  }

 private:
  static constexpr std::size_t kVectors = 8;

  struct Vector {
    __m256i row_off;  ///< per-lane row offset from `rows`, in floats
    const float* rows;
    const std::int32_t* split;
    const float* threshold;
    const std::int32_t* leaves;
    std::uint32_t* codes;
    std::size_t valid;  ///< lanes that hold a real row
    int elem_stride;
  };

  static __m256i load_i32(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }

  Vector flight_[kVectors];
  std::size_t count_ = 0;
  std::size_t depth_ = 0;
};

#endif  // __AVX2__

}  // namespace

void encode_jobs(const EncodeJob* jobs, std::size_t count) {
#if defined(__AVX2__)
  TreeWalk walk;
  for (std::size_t i = 0; i < count; ++i) {
    const EncodeJob& job = jobs[i];
    if (job.n == 0) continue;
    if (TreeWalk::accepts(job)) {
      walk.add(job);
    } else {
      job.encoder->encode_batch(job.rows, job.row_stride, job.n, job.codes, 1,
                                job.elem_stride);
    }
  }
  walk.walk();
#else
  for (std::size_t i = 0; i < count; ++i) {
    const EncodeJob& job = jobs[i];
    job.encoder->encode_batch(job.rows, job.row_stride, job.n, job.codes, 1, job.elem_stride);
  }
#endif
}

std::unique_ptr<Encoder> make_encoder(EncoderKind kind, const nn::Tensor& prototypes) {
  switch (kind) {
    case EncoderKind::kExact:
      return std::make_unique<ExactEncoder>(prototypes);
    case EncoderKind::kHashTree:
      return std::make_unique<HashTreeEncoder>(prototypes);
  }
  throw std::invalid_argument("make_encoder: unknown kind");
}

}  // namespace dart::pq

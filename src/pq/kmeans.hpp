// K-means clustering (k-means++ seeding + Lloyd iterations) — the prototype
// learner of product quantization (the paper's Eq. 5).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace dart::pq {

struct KMeansResult {
  nn::Tensor centroids;              ///< [K, V]
  std::vector<std::uint32_t> assignment;  ///< per-row nearest centroid
  double inertia = 0.0;              ///< sum of squared distances
  std::size_t iterations = 0;        ///< Lloyd iterations actually run
};

struct KMeansOptions {
  std::size_t max_iters = 12;
  double tol = 1e-4;   ///< relative inertia improvement stop criterion
  std::uint64_t seed = 1;
};

/// A read-only [rows, cols] matrix whose rows start `stride` floats apart:
/// a column slice of a wider row-major matrix, read in place.
struct RowsView {
  const float* data = nullptr;
  std::size_t rows = 0, cols = 0, stride = 0;
  const float* row(std::size_t i) const { return data + i * stride; }
};

/// Columns [first, first + count) of the 2-D tensor `t`; throws
/// std::invalid_argument when `t` is not 2-D or the range leaves it.
RowsView columns(const nn::Tensor& t, std::size_t first, std::size_t count);

/// Clusters the rows of `data` ([N, V]) into `k` centroids.
///
/// Deterministic for a fixed seed. When N < k the surplus centroids are
/// duplicated from sampled rows (keeps downstream table shapes fixed).
/// Assignment and update steps are parallelized over rows.
KMeansResult kmeans(const RowsView& data, std::size_t k, const KMeansOptions& opt = {});
/// All columns of a 2-D tensor.
KMeansResult kmeans(const nn::Tensor& data, std::size_t k, const KMeansOptions& opt = {});

/// Index of the centroid nearest to `row` (squared L2 under the rounding
/// below; strict < in centroid order, so the first minimum wins and a NaN
/// distance never does; 0 when none is below FLT_MAX).
std::uint32_t nearest_centroid(const float* row, const nn::Tensor& centroids);

/// The rows of an [N, V] data set as `kmeans`' two distance kernels read
/// them. A squared distance sums (x - c)^2 in element order from +0.0f:
/// the first 4*floor(V/4) squares round on their own, the last V mod 4 are
/// fused (DESIGN.md §6 "Training kernels"). With AVX2 the constructor packs
/// every full group of 8 rows once, element-major, so that 8 rows share the
/// SIMD lanes ([N/8][V][8]); the kernels run 4 groups per register tile,
/// and the last N mod 8 rows go through the scalar twins (`_reference`,
/// also the whole path of builds without AVX2), which are bit-identical.
/// The memory `data` views must outlive the panel. Both kernels are
/// parallel over rows.
class RowPanel {
 public:
  explicit RowPanel(const RowsView& data);

  /// k-means++ seeding step: min_d[i] = std::min(min_d[i], |row_i - centroid|^2)
  /// for every row, `centroid` being V floats.
  void relax_min(const float* centroid, float* min_d) const;
  /// The scalar twin, over rows [r0, N).
  void relax_min_reference(const float* centroid, float* min_d, std::size_t r0 = 0) const;

  /// Lloyd assignment step: for every row its nearest of `centroids`
  /// ([K, V]) as `nearest_centroid` picks it, and the squared distance
  /// (FLT_MAX when none is below it).
  void assign(const nn::Tensor& centroids, std::uint32_t* assignment, float* dist) const;
  /// The scalar twin, over rows [r0, N).
  void assign_reference(const nn::Tensor& centroids, std::uint32_t* assignment, float* dist,
                        std::size_t r0 = 0) const;

 private:
  void check_centroids(const nn::Tensor& centroids) const;

  RowsView data_;
  std::size_t groups_ = 0;    ///< full groups of 8 rows in `panel_`
  std::vector<float> panel_;  ///< [groups_][V][8]; AVX2 builds only
};

}  // namespace dart::pq

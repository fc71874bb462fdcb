#include "pq/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/madd.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace dart::pq {

namespace {
constexpr float kFar = std::numeric_limits<float>::max();

/// |a - b|^2 under the pinned rounding (DESIGN.md §6 "Training kernels"):
/// the squared differences of the first 4*floor(v/4) elements round on
/// their own and add in index order from +0.0f, the last v mod 4 are fused.
float sq_dist(const float* a, const float* b, std::size_t v) {
  const std::size_t v4 = v - v % 4;
  float acc = 0.0f;
  std::size_t i = 0;
  for (; i < v4; ++i) {
    const float d = a[i] - b[i];
    acc += common::mul_rounded(d, d);
  }
  for (; i < v; ++i) {
    const float d = a[i] - b[i];
    acc = common::madd(d, d, acc);
  }
  return acc;
}

/// The nearest centroid of `row` and its distance: strict < in centroid
/// order from kFar, so the first minimum wins and a NaN never does.
std::uint32_t nearest(const float* row, const nn::Tensor& centroids, float& dist) {
  const std::size_t k = centroids.dim(0), v = centroids.dim(1);
  std::uint32_t best = 0;
  dist = kFar;
  for (std::size_t c = 0; c < k; ++c) {
    const float d = sq_dist(row, centroids.row(c), v);
    if (d < dist) {
      dist = d;
      best = static_cast<std::uint32_t>(c);
    }
  }
  return best;
}

#if defined(__AVX2__)
/// Squared distances of G groups of 8 rows (rows in the lanes; `p` is the
/// first group's panel block) to C centroids, each accumulated in the
/// scalar twin's order: acc[g][c] lane l is |row (8g + l) - cent[c]|^2.
/// (The group loops must unroll before GCC's scalar replacement runs, or
/// the accumulators stay in memory; hence the pragmas.)
template <int G, int C>
void group_dists(const float* p, std::size_t v, const float* const* cent, __m256 (&acc)[G][C]) {
  const std::size_t v4 = v - v % 4;
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    for (int c = 0; c < C; ++c) acc[g][c] = _mm256_setzero_ps();
  }
  std::size_t t = 0;
  for (; t < v4; ++t) {
    __m256 cv[C];
    for (int c = 0; c < C; ++c) cv[c] = _mm256_broadcast_ss(cent[c] + t);
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const __m256 x = _mm256_loadu_ps(p + (g * v + t) * 8);
      for (int c = 0; c < C; ++c) {
        const __m256 d = _mm256_sub_ps(x, cv[c]);
        acc[g][c] = _mm256_add_ps(acc[g][c], common::mul_rounded(d, d));
      }
    }
  }
  for (; t < v; ++t) {
    __m256 cv[C];
    for (int c = 0; c < C; ++c) cv[c] = _mm256_broadcast_ss(cent[c] + t);
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      const __m256 x = _mm256_loadu_ps(p + (g * v + t) * 8);
      for (int c = 0; c < C; ++c) {
        const __m256 d = _mm256_sub_ps(x, cv[c]);
        acc[g][c] = common::madd(d, d, acc[g][c]);
      }
    }
  }
}

/// G groups from group `g0` against one centroid: the seeding step.
/// std::min(m, d) is (d < m ? d : m), which is _mm256_min_ps(d, m).
template <int G>
void relax_tile(const float* panel, std::size_t v, std::size_t g0, const float* centroid,
                float* min_d) {
  __m256 acc[G][1];
  group_dists<G, 1>(panel + g0 * v * 8, v, &centroid, acc);
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    float* m = min_d + (g0 + g) * 8;
    _mm256_storeu_ps(m, _mm256_min_ps(acc[g][0], _mm256_loadu_ps(m)));
  }
}

/// G groups from group `g0` against the k centroids of `cent` ([k, v]), 2
/// per step: the assignment step. Each lane runs the scalar arg-min over
/// the centroids in order (strict <, from kFar), so no cross-lane step is
/// needed.
template <int G>
void assign_tile(const float* panel, std::size_t v, std::size_t g0, const float* cent,
                 std::size_t k, std::uint32_t* assignment, float* dist) {
  __m256 best[G];
  __m256i best_idx[G];
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    best[g] = _mm256_set1_ps(kFar);
    best_idx[g] = _mm256_setzero_si256();
  }
  auto update = [&](const __m256& d, int g, std::size_t c) {
    const __m256 lt = _mm256_cmp_ps(d, best[g], _CMP_LT_OQ);
    best[g] = _mm256_blendv_ps(best[g], d, lt);
    best_idx[g] = _mm256_castps_si256(
        _mm256_blendv_ps(_mm256_castsi256_ps(best_idx[g]),
                         _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(c))), lt));
  };
  const float* p = panel + g0 * v * 8;
  std::size_t c = 0;
  for (; c + 2 <= k; c += 2) {
    const float* pair[2] = {cent + c * v, cent + (c + 1) * v};
    __m256 acc[G][2];
    group_dists<G, 2>(p, v, pair, acc);
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) {
      update(acc[g][0], g, c);
      update(acc[g][1], g, c + 1);
    }
  }
  if (c < k) {
    const float* last = cent + c * v;
    __m256 acc[G][1];
    group_dists<G, 1>(p, v, &last, acc);
#pragma GCC unroll 4
    for (int g = 0; g < G; ++g) update(acc[g][0], g, c);
  }
#pragma GCC unroll 4
  for (int g = 0; g < G; ++g) {
    _mm256_storeu_ps(dist + (g0 + g) * 8, best[g]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(assignment + (g0 + g) * 8), best_idx[g]);
  }
}
#endif
}  // namespace

std::uint32_t nearest_centroid(const float* row, const nn::Tensor& centroids) {
  float dist;
  return nearest(row, centroids, dist);
}

RowsView columns(const nn::Tensor& t, std::size_t first, std::size_t count) {
  if (t.ndim() != 2) throw std::invalid_argument("kmeans: data must be 2-D");
  if (first > t.dim(1) || count > t.dim(1) - first) {
    throw std::invalid_argument("kmeans: column range outside the data");
  }
  return {t.data() + first, t.dim(0), count, t.dim(1)};
}

RowPanel::RowPanel(const RowsView& data) : data_(data) {
#if defined(__AVX2__)
  const std::size_t v = data.cols;
  groups_ = data.rows / 8;
  panel_.resize(groups_ * 8 * v);
  for (std::size_t i = 0; i < groups_ * 8; ++i) {
    const float* row = data.row(i);
    float* dst = panel_.data() + (i / 8) * v * 8 + i % 8;
    for (std::size_t t = 0; t < v; ++t) dst[t * 8] = row[t];
  }
#endif
}

void RowPanel::relax_min_reference(const float* centroid, float* min_d, std::size_t r0) const {
  const std::size_t v = data_.cols;
  common::parallel_for(data_.rows - r0, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = r0 + i0; i < r0 + i1; ++i) {
      min_d[i] = std::min(min_d[i], sq_dist(data_.row(i), centroid, v));
    }
  });
}

void RowPanel::relax_min(const float* centroid, float* min_d) const {
#if defined(__AVX2__)
  const std::size_t v = data_.cols;
  common::parallel_for(groups_, [&](std::size_t g0, std::size_t g1) {
    std::size_t g = g0;
    for (; g + 4 <= g1; g += 4) relax_tile<4>(panel_.data(), v, g, centroid, min_d);
    for (; g < g1; ++g) relax_tile<1>(panel_.data(), v, g, centroid, min_d);
  }, 128);
  relax_min_reference(centroid, min_d, groups_ * 8);
#else
  relax_min_reference(centroid, min_d);
#endif
}

void RowPanel::assign_reference(const nn::Tensor& centroids, std::uint32_t* assignment,
                                float* dist, std::size_t r0) const {
  check_centroids(centroids);
  common::parallel_for(data_.rows - r0, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = r0 + i0; i < r0 + i1; ++i) {
      assignment[i] = nearest(data_.row(i), centroids, dist[i]);
    }
  });
}

void RowPanel::assign(const nn::Tensor& centroids, std::uint32_t* assignment, float* dist) const {
#if defined(__AVX2__)
  check_centroids(centroids);
  const std::size_t v = data_.cols, k = centroids.dim(0);
  const float* cent = centroids.data();
  common::parallel_for(groups_, [&](std::size_t g0, std::size_t g1) {
    std::size_t g = g0;
    for (; g + 4 <= g1; g += 4) assign_tile<4>(panel_.data(), v, g, cent, k, assignment, dist);
    for (; g < g1; ++g) assign_tile<1>(panel_.data(), v, g, cent, k, assignment, dist);
  }, 128);
  assign_reference(centroids, assignment, dist, groups_ * 8);
#else
  assign_reference(centroids, assignment, dist);
#endif
}

void RowPanel::check_centroids(const nn::Tensor& centroids) const {
  if (centroids.ndim() != 2 || centroids.dim(1) != data_.cols) {
    throw std::invalid_argument("kmeans: centroids must be [K, V] for [N, V] data");
  }
}

KMeansResult kmeans(const nn::Tensor& data, std::size_t k, const KMeansOptions& opt) {
  if (data.ndim() != 2) throw std::invalid_argument("kmeans: data must be 2-D");
  return kmeans(columns(data, 0, data.dim(1)), k, opt);
}

KMeansResult kmeans(const RowsView& data, std::size_t k, const KMeansOptions& opt) {
  if (k == 0) throw std::invalid_argument("kmeans: k must be positive");
  const std::size_t n = data.rows, v = data.cols;

  KMeansResult res;
  res.centroids = nn::Tensor({k, v});
  res.assignment.assign(n, 0);
  common::Rng rng(opt.seed);
  const RowPanel rows(data);

  // --- k-means++ seeding -------------------------------------------------
  std::vector<float> min_d(n, std::numeric_limits<float>::max());
  {
    const std::size_t first = n > 0 ? static_cast<std::size_t>(rng.below(n)) : 0;
    std::copy(data.row(first), data.row(first) + v, res.centroids.row(0));
  }
  for (std::size_t c = 1; c < k; ++c) {
    rows.relax_min(res.centroids.row(c - 1), min_d.data());
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) total += min_d[i];
    if (total <= 0.0 || n < k) {
      // Degenerate data (or fewer rows than centroids): sample uniformly.
      const std::size_t j = static_cast<std::size_t>(rng.below(n));
      std::copy(data.row(j), data.row(j) + v, res.centroids.row(c));
      continue;
    }
    double target = rng.uniform(0.0, total), cum = 0.0;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      cum += min_d[i];
      if (cum >= target) {
        chosen = i;
        break;
      }
    }
    std::copy(data.row(chosen), data.row(chosen) + v, res.centroids.row(c));
  }

  // --- Lloyd iterations ---------------------------------------------------
  double prev_inertia = std::numeric_limits<double>::max();
  std::vector<double> sums(k * v);
  std::vector<std::size_t> counts(k);
  std::vector<float> dist(n);
  for (std::size_t iter = 0; iter < opt.max_iters; ++iter) {
    res.iterations = iter + 1;
    // Assignment (parallel over rows).
    rows.assign(res.centroids, res.assignment.data(), dist.data());
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) inertia += dist[i];
    res.inertia = inertia;

    // Update (serial accumulation; n*v work, cheap relative to assignment).
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = res.assignment[i];
      const float* row = data.row(i);
      double* s = sums.data() + static_cast<std::size_t>(c) * v;
      for (std::size_t j = 0; j < v; ++j) s[j] += row[j];
      ++counts[c];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed empty clusters from a random row to keep K live prototypes.
        const std::size_t j = static_cast<std::size_t>(rng.below(n));
        std::copy(data.row(j), data.row(j) + v, res.centroids.row(c));
        continue;
      }
      float* dst = res.centroids.row(c);
      const double inv = 1.0 / static_cast<double>(counts[c]);
      const double* s = sums.data() + c * v;
      for (std::size_t j = 0; j < v; ++j) dst[j] = static_cast<float>(s[j] * inv);
    }

    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double rel =
          prev_inertia > 0.0 ? (prev_inertia - inertia) / prev_inertia : 0.0;
      if (rel >= 0.0 && rel < opt.tol) break;
    }
    prev_inertia = inertia;
  }
  return res;
}

}  // namespace dart::pq

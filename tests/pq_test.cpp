// Tests for the product-quantization substrate: k-means, encoders, and the
// classic PQ train/query path of §II-B.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "pq/encoder.hpp"
#include "pq/kmeans.hpp"
#include "pq/pq.hpp"

namespace dart::pq {
namespace {

/// Well-separated clusters: k groups at distance >> intra-cluster spread.
nn::Tensor clustered_data(std::size_t n, std::size_t v, std::size_t k, std::uint64_t seed) {
  nn::Tensor data = nn::Tensor::randn({n, v}, 0.05f, seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i % k;
    for (std::size_t j = 0; j < v; ++j) {
      data.at(i, j) += static_cast<float>(c) * 2.0f + static_cast<float>(j % 2);
    }
  }
  return data;
}

TEST(KMeans, RecoversSeparatedClusters) {
  const std::size_t k = 4;
  nn::Tensor data = clustered_data(400, 3, k, 1);
  KMeansResult res = kmeans(data, k, {20, 1e-6, 7});
  // Every point must be close to its centroid (within the cluster spread).
  for (std::size_t i = 0; i < data.dim(0); ++i) {
    const float* row = data.row(i);
    const float* c = res.centroids.row(res.assignment[i]);
    float d = 0.0f;
    for (std::size_t j = 0; j < 3; ++j) d += (row[j] - c[j]) * (row[j] - c[j]);
    EXPECT_LT(std::sqrt(d), 0.8f);
  }
}

TEST(KMeans, DeterministicForSeed) {
  nn::Tensor data = clustered_data(100, 4, 3, 2);
  KMeansResult a = kmeans(data, 8, {10, 1e-4, 5});
  KMeansResult b = kmeans(data, 8, {10, 1e-4, 5});
  for (std::size_t i = 0; i < a.centroids.numel(); ++i) {
    EXPECT_EQ(a.centroids[i], b.centroids[i]);
  }
}

TEST(KMeans, InertiaDecreasesWithMoreClusters) {
  nn::Tensor data = nn::Tensor::randn({500, 4}, 1.0f, 3);
  const double i2 = kmeans(data, 2, {15, 1e-6, 9}).inertia;
  const double i16 = kmeans(data, 16, {15, 1e-6, 9}).inertia;
  EXPECT_LT(i16, i2);
}

TEST(KMeans, HandlesFewerRowsThanCentroids) {
  nn::Tensor data = nn::Tensor::randn({3, 2}, 1.0f, 4);
  KMeansResult res = kmeans(data, 8, {5, 1e-4, 1});
  EXPECT_EQ(res.centroids.dim(0), 8u);
  for (auto a : res.assignment) EXPECT_LT(a, 8u);
}

TEST(KMeans, RejectsBadInput) {
  nn::Tensor bad({2, 2, 2});
  EXPECT_THROW(kmeans(bad, 2), std::invalid_argument);
  EXPECT_THROW(columns(bad, 0, 1), std::invalid_argument);
  nn::Tensor ok({4, 2});
  EXPECT_THROW(kmeans(ok, 0), std::invalid_argument);
  EXPECT_THROW(columns(ok, 1, 2), std::invalid_argument);
  EXPECT_THROW(columns(ok, 3, 0), std::invalid_argument);
}

TEST(KMeans, ColumnSliceMatchesCopiedColumns) {
  const nn::Tensor wide = clustered_data(203, 7, 5, 9);
  nn::Tensor copy({203, 3});
  for (std::size_t i = 0; i < 203; ++i) std::copy(wide.row(i) + 2, wide.row(i) + 5, copy.row(i));
  const KMeansResult a = kmeans(columns(wide, 2, 3), 5, {10, 1e-6, 4});
  const KMeansResult b = kmeans(copy, 5, {10, 1e-6, 4});
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(std::memcmp(a.centroids.data(), b.centroids.data(), 5 * 3 * sizeof(float)), 0);
}

// ---- bit-exact distance kernels (DESIGN.md §6 "Training kernels") ---------

// The rounding contract spelled out without common/madd.hpp: a volatile
// store rounds a product on its own, std::fmaf fuses where the build has
// FMA (without FMA every product rounds on its own).
float rounded_product(float a, float b) {
  volatile float p = a * b;
  return p;
}

float fused(float a, float b, float c) {
#if defined(__FMA__)
  return std::fmaf(a, b, c);
#else
  return rounded_product(a, b) + c;
#endif
}

/// |x - c|^2 from +0.0f in element order: the first 4*floor(v/4) squares
/// round on their own, the last v mod 4 are fused.
float contract_sq_dist(const float* x, const float* c, std::size_t v) {
  float acc = 0.0f;
  for (std::size_t t = 0; t < v; ++t) {
    const float d = x[t] - c[t];
    acc = t < v - v % 4 ? acc + rounded_product(d, d) : fused(d, d, acc);
  }
  return acc;
}

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/// Rows and centroids that reach the kernels' edge cases: values over six
/// binary orders of magnitude, centroid 1 a duplicate of centroid 0 (ties),
/// rows equal to a centroid but with -0.0 where it has +0.0 (zero
/// distances), and a NaN in one row (every distance NaN).
struct DistanceCase {
  nn::Tensor data, centroids;
  DistanceCase(std::size_t n, std::size_t k, std::size_t v, std::uint64_t seed)
      : data(nn::Tensor::randn({n, v}, 1.0f, seed)),
        centroids(nn::Tensor::randn({k, v}, 1.0f, seed + 1)) {
    for (std::size_t i = 0; i < data.numel(); ++i) {
      data[i] = std::ldexp(data[i], static_cast<int>(i % 7) - 3);
    }
    centroids.at(0, 0) = 0.0f;
    if (k > 1) std::copy(centroids.row(0), centroids.row(0) + v, centroids.row(1));
    for (std::size_t i = 0; i < n; i += 3) {
      std::copy(centroids.row(i % k), centroids.row(i % k) + v, data.row(i));
      if (i % k < 2) data.at(i, 0) = -0.0f;
    }
    if (n > 4) data.at(4, v - 1) = std::numeric_limits<float>::quiet_NaN();
  }
};

class DistanceTwins : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// v covers v mod 4 in {0,1,2,3} and v < 4; n covers n mod 8 != 0 and more
// than one 4-group tile; k covers odd counts; and 1x1x1.
TEST_P(DistanceTwins, SimdAndScalarMatchTheRoundingContractBitwise) {
  const auto [ni, ki, vi] = GetParam();
  const std::size_t n = ni, k = ki, v = vi;
  const DistanceCase dc(n, k, v, 20 + n + k + v);
  // The panel reads the rows in place from inside a wider matrix.
  nn::Tensor wide({n, v + 3});
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(dc.data.row(i), dc.data.row(i) + v, wide.row(i) + 2);
  }
  const RowPanel rows(columns(wide, 2, v));

  // Assignment: strict < in centroid order from FLT_MAX.
  std::vector<std::uint32_t> want_a(n, 0), simd_a(n), scalar_a(n);
  std::vector<float> want_d(n, std::numeric_limits<float>::max()), simd_d(n), scalar_d(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < k; ++c) {
      const float d = contract_sq_dist(dc.data.row(i), dc.centroids.row(c), v);
      if (d < want_d[i]) {
        want_d[i] = d;
        want_a[i] = static_cast<std::uint32_t>(c);
      }
    }
  }
  rows.assign(dc.centroids, simd_a.data(), simd_d.data());
  rows.assign_reference(dc.centroids, scalar_a.data(), scalar_d.data());
  EXPECT_EQ(simd_a, want_a);
  EXPECT_EQ(scalar_a, want_a);
  EXPECT_TRUE(same_bits(simd_d, want_d));
  EXPECT_TRUE(same_bits(scalar_d, want_d));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(nearest_centroid(dc.data.row(i), dc.centroids), want_a[i]);
  }

  // Seeding: std::min(m, d) per row, from a start that holds FLT_MAX, 0,
  // -0.0, NaN and ordinary values.
  std::vector<float> want_m(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float starts[] = {std::numeric_limits<float>::max(), 0.0f, -0.0f,
                            std::numeric_limits<float>::quiet_NaN(), 0.25f, 3.0f};
    want_m[i] = starts[i % 6];
  }
  std::vector<float> simd_m = want_m, scalar_m = want_m;
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      want_m[i] = std::min(want_m[i], contract_sq_dist(dc.data.row(i), dc.centroids.row(c), v));
    }
    rows.relax_min(dc.centroids.row(c), simd_m.data());
    rows.relax_min_reference(dc.centroids.row(c), scalar_m.data());
  }
  EXPECT_TRUE(same_bits(simd_m, want_m));
  EXPECT_TRUE(same_bits(scalar_m, want_m));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistanceTwins,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(7, 2, 2),
                      std::make_tuple(8, 3, 3), std::make_tuple(9, 5, 4),
                      std::make_tuple(33, 16, 5), std::make_tuple(40, 17, 6),
                      std::make_tuple(67, 9, 7), std::make_tuple(100, 33, 8),
                      std::make_tuple(129, 128, 13)));

TEST(HashTreeEncoder, RejectsPrototypeCountsAboveTheBoundAtOnce) {
  // A corrupt artifact's u64 k reaches the raw constructor unchecked; the
  // heap-depth loop must not run for it (it never ends for k > 2^63).
  for (const std::uint64_t k :
       {(std::uint64_t{1} << 62) + 1, std::numeric_limits<std::uint64_t>::max(),
        std::uint64_t{HashTreeEncoder::kMaxPrototypes} + 1}) {
    EXPECT_THROW(HashTreeEncoder({}, {}, k, 4), std::invalid_argument) << k;
  }
}

TEST(ExactEncoder, PicksNearestPrototype) {
  nn::Tensor protos({3, 2});
  protos.at(0, 0) = 0.0f;
  protos.at(1, 0) = 5.0f;
  protos.at(2, 0) = 10.0f;
  ExactEncoder enc(protos);
  float q1[2] = {1.0f, 0.0f};
  float q2[2] = {7.9f, 0.0f};
  EXPECT_EQ(enc.encode(q1), 0u);
  EXPECT_EQ(enc.encode(q2), 2u);
}

class HashTreeSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HashTreeSizes, LogDepthAndValidIndices) {
  const std::size_t k = GetParam();
  nn::Tensor data = clustered_data(std::max<std::size_t>(4 * k, 64), 4, k, 5);
  KMeansResult res = kmeans(data, k, {10, 1e-4, 3});
  HashTreeEncoder enc(res.centroids);
  std::size_t expect_depth = 0;
  while ((1ULL << expect_depth) < k) ++expect_depth;
  EXPECT_EQ(enc.comparisons_per_encode(), expect_depth);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_LT(enc.encode(data.row(i)), k);
  }
}

TEST_P(HashTreeSizes, AgreesWithExactOnClusteredData) {
  const std::size_t k = GetParam();
  nn::Tensor data = clustered_data(std::max<std::size_t>(8 * k, 128), 4, k, 6);
  KMeansResult res = kmeans(data, k, {15, 1e-5, 11});
  HashTreeEncoder tree(res.centroids);
  ExactEncoder exact(res.centroids);
  std::size_t agree = 0;
  const std::size_t probes = 128;
  for (std::size_t i = 0; i < probes; ++i) {
    if (tree.encode(data.row(i)) == exact.encode(data.row(i))) ++agree;
  }
  // The hash tree is an approximation, but on well-clustered data it should
  // agree with exact assignment for the large majority of points.
  EXPECT_GT(agree, probes * 6 / 10);
}

INSTANTIATE_TEST_SUITE_P(PrototypeCounts, HashTreeSizes, ::testing::Values(2, 4, 8, 16, 32));

TEST(ProductQuantizer, ReconstructionIsNearestPrototypeConcat) {
  nn::Tensor data = clustered_data(200, 8, 4, 7);
  PqConfig cfg;
  cfg.num_subspaces = 2;
  cfg.num_prototypes = 8;
  ProductQuantizer pq(data, cfg);
  const auto rec = pq.reconstruct(data.row(0));
  ASSERT_EQ(rec.size(), 8u);
  // Reconstruction error must be bounded by cluster spread.
  float err = 0.0f;
  for (std::size_t j = 0; j < 8; ++j) {
    err += (rec[j] - data.at(0, j)) * (rec[j] - data.at(0, j));
  }
  EXPECT_LT(std::sqrt(err), 1.0f);
}

TEST(ProductQuantizer, DotProductApproximation) {
  nn::Tensor data = clustered_data(500, 8, 8, 8);
  PqConfig cfg;
  cfg.num_subspaces = 4;
  cfg.num_prototypes = 16;
  ProductQuantizer pq(data, cfg);
  nn::Tensor w = nn::Tensor::randn({8}, 1.0f, 9);
  const auto table = pq.build_table(w.data());
  double max_err = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    const auto code = pq.encode(data.row(i));
    const float approx = ProductQuantizer::query(table, code, cfg.num_prototypes);
    float exact = 0.0f;
    for (std::size_t j = 0; j < 8; ++j) exact += data.at(i, j) * w[j];
    max_err = std::max(max_err, static_cast<double>(std::fabs(approx - exact)));
  }
  EXPECT_LT(max_err, 1.5);  // bounded by quantization error * |w|
}

class PqPrototypeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PqPrototypeSweep, ErrorShrinksAsPrototypesGrow) {
  // Property: average quantization error with K prototypes is no worse than
  // with K/4 prototypes (monotone improvement, Fig. 8's mechanism).
  const std::size_t k = GetParam();
  nn::Tensor data = nn::Tensor::randn({600, 8}, 1.0f, 10);
  auto avg_err = [&](std::size_t protos) {
    PqConfig cfg;
    cfg.num_subspaces = 2;
    cfg.num_prototypes = protos;
    ProductQuantizer pq(data, cfg);
    double err = 0.0;
    for (std::size_t i = 0; i < 200; ++i) {
      const auto rec = pq.reconstruct(data.row(i));
      for (std::size_t j = 0; j < 8; ++j) {
        err += (rec[j] - data.at(i, j)) * (rec[j] - data.at(i, j));
      }
    }
    return err;
  };
  EXPECT_LE(avg_err(k), avg_err(std::max<std::size_t>(1, k / 4)) * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Ks, PqPrototypeSweep, ::testing::Values(8, 16, 32, 64));

TEST(ProductQuantizer, RejectsIndivisibleSubspaces) {
  nn::Tensor data({10, 7});
  PqConfig cfg;
  cfg.num_subspaces = 2;
  EXPECT_THROW(ProductQuantizer(data, cfg), std::invalid_argument);
}

TEST(ProductQuantizer, EncodeAllMatchesEncode) {
  nn::Tensor data = clustered_data(64, 4, 4, 11);
  PqConfig cfg;
  cfg.num_subspaces = 2;
  cfg.num_prototypes = 4;
  ProductQuantizer pq(data, cfg);
  const auto codes = pq.encode_all(data);
  for (std::size_t i = 0; i < 64; ++i) {
    const auto one = pq.encode(data.row(i));
    for (std::size_t c = 0; c < 2; ++c) EXPECT_EQ(codes[i * 2 + c], one[c]);
  }
}

}  // namespace
}  // namespace dart::pq

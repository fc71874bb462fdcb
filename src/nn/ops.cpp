#include "nn/ops.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/madd.hpp"
#include "common/thread_pool.hpp"

namespace dart::nn::ops {

namespace {
void check2d(const Tensor& t, const char* name) {
  if (t.ndim() != 2) throw std::invalid_argument(std::string(name) + ": expected 2-D tensor");
}

/// One dense product C(i,j) = sum over t of A(i,t) * B(t,j), as each of the
/// three matmuls lays it out: A(i,t) = a[i*a_row + t*a_term],
/// B(t,j) = b[t*b_term + j*b_col], C(i,j) = c[i*n + j]. Every element starts
/// from +0.0f and takes its terms in t order; terms [0, split) round the
/// product on its own before adding it, terms [split, terms) are fused
/// (DESIGN.md §6 "Training kernels").
struct Gemm {
  const float* a;
  std::size_t a_row, a_term;
  const float* b;
  std::size_t b_term, b_col;
  float* c;
  std::size_t rows, n, terms, split;
};

/// The scalar twin: rows [r0, r1), columns [j0, j1). Every view has unit
/// stride either along B's terms (matmul_nt: one dot product per element)
/// or along B's columns (matmul, matmul_tn: the C row takes one term at a
/// time, so the inner loop runs along the row and each element still sums
/// its terms in t order).
void gemm_scalar(const Gemm& g, std::size_t r0, std::size_t r1, std::size_t j0,
                 std::size_t j1) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = g.a + i * g.a_row;
    float* crow = g.c + i * g.n;
    if (g.b_term == 1) {
      for (std::size_t j = j0; j < j1; ++j) {
        const float* bcol = g.b + j * g.b_col;
        float acc = 0.0f;
        std::size_t t = 0;
        for (; t < g.split; ++t) acc += common::mul_rounded(arow[t * g.a_term], bcol[t]);
        for (; t < g.terms; ++t) acc = common::madd(arow[t * g.a_term], bcol[t], acc);
        crow[j] = acc;
      }
      continue;
    }
    for (std::size_t j = j0; j < j1; ++j) crow[j] = 0.0f;
    std::size_t t = 0;
    for (; t < g.split; ++t) {
      const float av = arow[t * g.a_term];
      const float* brow = g.b + t * g.b_term;
      for (std::size_t j = j0; j < j1; ++j) crow[j] += common::mul_rounded(av, brow[j]);
    }
    for (; t < g.terms; ++t) {
      const float av = arow[t * g.a_term];
      const float* brow = g.b + t * g.b_term;
      for (std::size_t j = j0; j < j1; ++j) crow[j] = common::madd(av, brow[j], crow[j]);
    }
  }
}

#if defined(__AVX2__)
/// R rows by V vectors of 8 columns, starting at row i0 and at the columns
/// whose B values `panel` holds: B(t, j0 + 8v + l) = panel[v*vstride +
/// t*tstride + l]. The R*V accumulators stay in registers over all terms;
/// lane l of each keeps the scalar twin's order for its own element. (The
/// row loops must unroll before GCC's scalar replacement runs, or the
/// accumulators stay in memory; hence the pragmas.)
template <int R, int V>
void gemm_tile(const Gemm& g, std::size_t i0, std::size_t j0, const float* panel,
               std::size_t tstride, std::size_t vstride) {
  const std::size_t a_row = g.a_row, a_term = g.a_term, split = g.split, terms = g.terms;
  const float* a = g.a + i0 * a_row;
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  std::size_t t = 0;
  for (; t < split; ++t) {
    __m256 b[V];
    for (int v = 0; v < V; ++v) b[v] = _mm256_loadu_ps(panel + v * vstride + t * tstride);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * a_row + t * a_term);
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], common::mul_rounded(av, b[v]));
      }
    }
  }
  for (; t < terms; ++t) {
    __m256 b[V];
    for (int v = 0; v < V; ++v) b[v] = _mm256_loadu_ps(panel + v * vstride + t * tstride);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * a_row + t * a_term);
      for (int v = 0; v < V; ++v) acc[r][v] = common::madd(av, b[v], acc[r][v]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) _mm256_storeu_ps(g.c + (i0 + r) * g.n + j0 + 8 * v, acc[r][v]);
  }
}

/// Rows [r0, r1) of one column block: 4-row tiles, then single rows.
template <int V>
void gemm_rows(const Gemm& g, std::size_t r0, std::size_t r1, std::size_t j0,
               const float* panel, std::size_t tstride, std::size_t vstride) {
  std::size_t i = r0;
  for (; i + 4 <= r1; i += 4) gemm_tile<4, V>(g, i, j0, panel, tstride, vstride);
  for (; i < r1; ++i) gemm_tile<1, V>(g, i, j0, panel, tstride, vstride);
}
#endif

/// The whole product through the scalar twin, split over rows on the pool.
void gemm_reference(const Gemm& g) {
  common::parallel_for(
      g.rows, [&](std::size_t r0, std::size_t r1) { gemm_scalar(g, r0, r1, 0, g.n); }, 16);
}

/// C = the product `g` describes, split over rows on the pool. With AVX2
/// the output columns sit in the lanes: full blocks of 8 go through the
/// register tiles, the last n mod 8 columns through the scalar twin. B is
/// read in place when its columns are contiguous (matmul, matmul_tn) and
/// packed per call into [n/8][terms][8] blocks when they are not
/// (matmul_nt's B^T).
void gemm(const Gemm& g) {
#if defined(__AVX2__)
  const std::size_t n8 = g.n - g.n % 8;
  const float* panel = g.b;
  std::size_t tstride = g.b_term, vstride = 8;
  std::vector<float> packed;
  if (g.b_col != 1) {
    packed.resize(n8 * g.terms);
    for (std::size_t j = 0; j < n8; ++j) {
      float* dst = packed.data() + (j / 8) * g.terms * 8 + j % 8;
      for (std::size_t t = 0; t < g.terms; ++t) dst[t * 8] = g.b[t * g.b_term + j * g.b_col];
    }
    panel = packed.data();
    tstride = 8;
    vstride = g.terms * 8;
  }
  common::parallel_for(
      g.rows,
      [&](std::size_t r0, std::size_t r1) {
        std::size_t j = 0;
        for (; j + 16 <= n8; j += 16) {
          gemm_rows<2>(g, r0, r1, j, panel + (j / 8) * vstride, tstride, vstride);
        }
        if (j < n8) gemm_rows<1>(g, r0, r1, j, panel + (j / 8) * vstride, tstride, vstride);
        gemm_scalar(g, r0, r1, n8, g.n);
      },
      16);
#else
  gemm_reference(g);
#endif
}

Tensor& shaped(Tensor& c, std::size_t rows, std::size_t cols) {
  if (c.ndim() != 2 || c.dim(0) != rows || c.dim(1) != cols) c = Tensor({rows, cols});
  return c;
}

// The three products as Gemm views. matmul and matmul_tn fuse every term;
// matmul_nt rounds the products of the first 4*floor(k/4) terms on their
// own (DESIGN.md §6).
Gemm matmul_view(const Tensor& a, const Tensor& b, Tensor& c) {
  check2d(a, "matmul A");
  check2d(b, "matmul B");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dim mismatch");
  return {a.data(), k, 1, b.data(), n, 1, shaped(c, m, n).data(), m, n, k, 0};
}

Gemm matmul_nt_view(const Tensor& a, const Tensor& b, Tensor& c) {
  check2d(a, "matmul_nt A");
  check2d(b, "matmul_nt B");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) throw std::invalid_argument("matmul_nt: inner dim mismatch");
  return {a.data(), k, 1, b.data(), 1, k, shaped(c, m, n).data(), m, n, k, k - k % 4};
}

Gemm matmul_tn_view(const Tensor& a, const Tensor& b, Tensor& c) {
  check2d(a, "matmul_tn A");
  check2d(b, "matmul_tn B");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != m) throw std::invalid_argument("matmul_tn: outer dim mismatch");
  return {a.data(), 1, k, b.data(), n, 1, shaped(c, k, n).data(), k, n, m, 0};
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c) { gemm(matmul_view(a, b, c)); }
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& c) { gemm(matmul_nt_view(a, b, c)); }
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& c) { gemm(matmul_tn_view(a, b, c)); }

void matmul_reference(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm_reference(matmul_view(a, b, c));
}
void matmul_nt_reference(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm_reference(matmul_nt_view(a, b, c));
}
void matmul_tn_reference(const Tensor& a, const Tensor& b, Tensor& c) {
  gemm_reference(matmul_tn_view(a, b, c));
}

void linear_forward(const Tensor& x, const Tensor& w, const Tensor& b, Tensor& y) {
  check2d(x, "linear x");
  check2d(w, "linear W");
  const std::size_t m = x.dim(0), din = x.dim(1), dout = w.dim(0);
  if (w.dim(1) != din) throw std::invalid_argument("linear_forward: W/x dim mismatch");
  if (b.numel() != dout) throw std::invalid_argument("linear_forward: bias dim mismatch");
  matmul_nt(x, w, y);
  const float* pb = b.data();
  float* py = y.data();
  common::parallel_for(
      m,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
          float* yrow = py + i * dout;
          for (std::size_t j = 0; j < dout; ++j) yrow[j] += pb[j];
        }
      },
      64);
}

void softmax_rows(Tensor& x) {
  check2d(x, "softmax x");
  const std::size_t m = x.dim(0), n = x.dim(1);
  float* px = x.data();
  common::parallel_for(
      m,
      [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) {
          float* row = px + i * n;
          float mx = row[0];
          for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
          float denom = 0.0f;
          for (std::size_t j = 0; j < n; ++j) {
            row[j] = std::exp(row[j] - mx);
            denom += row[j];
          }
          const float inv = 1.0f / denom;
          for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
        }
      },
      64);
}

float sigmoid(float x) {
  if (x >= 0.0f) {
    return 1.0f / (1.0f + std::exp(-x));
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

void relu(const Tensor& x, Tensor& y) {
  if (y.numel() != x.numel()) y = Tensor(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void sigmoid(const Tensor& x, Tensor& y) {
  if (y.numel() != x.numel()) y = Tensor(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) y[i] = sigmoid(x[i]);
}

void relu_backward(const Tensor& x, const Tensor& dy, Tensor& dx) {
  if (dx.numel() != x.numel()) dx = Tensor(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
}

double cosine_similarity(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel() || a.numel() == 0) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace dart::nn::ops

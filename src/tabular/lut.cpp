#include "tabular/lut.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace dart::tabular {

SigmoidLut::SigmoidLut() {
  // Entry i holds sigmoid at the midpoint of its cell, halving the
  // worst-case quantization error vs sampling at cell edges.
  const float step = 2.0f * kRange / static_cast<float>(kEntries);
  inv_step_ = 1.0f / step;
  for (std::size_t i = 0; i < kEntries; ++i) {
    const float x = -kRange + (static_cast<float>(i) + 0.5f) * step;
    table_[i] = 1.0f / (1.0f + std::exp(-x));
  }
}

void SigmoidLut::set_table(const float* values, std::size_t n) {
  if (n != kEntries) throw std::invalid_argument("SigmoidLut::set_table: size mismatch");
  std::copy(values, values + n, table_.begin());
}

void SigmoidLut::apply_batch(const float* x, std::size_t n, float* out) const {
  std::size_t i = 0;
#if defined(__AVX2__)
  const __m256 lo = _mm256_set1_ps(-kRange);
  const __m256 hi = _mm256_set1_ps(kRange);
  const __m256 inv = _mm256_set1_ps(inv_step_);
  const __m256i last = _mm256_set1_epi32(static_cast<int>(kEntries - 1));
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256i cell = _mm256_cvttps_epi32(_mm256_mul_ps(_mm256_add_ps(v, hi), inv));
    __m256 y = _mm256_i32gather_ps(table_.data(), _mm256_min_epu32(cell, last), 4);
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(), _mm256_cmp_ps(v, lo, _CMP_LE_OQ));
    y = _mm256_blendv_ps(y, _mm256_set1_ps(1.0f), _mm256_cmp_ps(v, hi, _CMP_GE_OQ));
    _mm256_storeu_ps(out + i, y);
  }
#endif
  apply_batch_reference(x + i, n - i, out + i);
}

nn::Tensor SigmoidLut::apply(const nn::Tensor& x) const {
  nn::Tensor out(x.shape());
  apply_batch(x.data(), x.numel(), out.data());
  return out;
}

}  // namespace dart::tabular

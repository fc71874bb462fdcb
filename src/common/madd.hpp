// The two roundings every SIMD kernel and its scalar twin are pinned to
// (DESIGN.md §6): `madd`, a * b + c fused where the ISA has FMA, and
// `mul_rounded`, a product rounded on its own before anything adds it.
//
// GCC's C++ default (-ffp-contract=fast, also under -std=c++17) contracts a
// product feeding an add into one FMA wherever the ISA has one, intrinsics
// included: `_mm256_mul_ps` followed by `_mm256_add_ps` becomes one
// `vfmadd`. Which of the two a loop got is what the replaced scalar code
// computed and what perfbench/records.tsv pins. Spelling both out keeps
// every SIMD path and its scalar twin bit-identical whatever contraction a
// compiler would choose on its own.
#pragma once

#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace dart::common {

/// a * b + c, fused where the ISA has FMA.
inline float madd(float a, float b, float c) {
#if defined(__FMA__)
  return std::fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

/// a * b, rounded to float on its own. The empty asm is opaque to the
/// optimizer, so an add that consumes the product cannot be contracted into
/// an FMA with it (only a build with FMA could contract).
inline float mul_rounded(float a, float b) {
  float p = a * b;
#if defined(__FMA__)
  __asm__("" : "+x"(p));
#endif
  return p;
}

#if defined(__AVX2__)
/// Per-lane twins of the scalar helpers above.
inline __m128 madd(__m128 a, __m128 b, __m128 c) {
#if defined(__FMA__)
  return _mm_fmadd_ps(a, b, c);
#else
  return _mm_add_ps(_mm_mul_ps(a, b), c);
#endif
}

inline __m256 madd(__m256 a, __m256 b, __m256 c) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, c);
#else
  return _mm256_add_ps(_mm256_mul_ps(a, b), c);
#endif
}

inline __m256 mul_rounded(__m256 a, __m256 b) {
  __m256 p = _mm256_mul_ps(a, b);
#if defined(__FMA__)
  __asm__("" : "+x"(p));
#endif
  return p;
}
#endif

}  // namespace dart::common

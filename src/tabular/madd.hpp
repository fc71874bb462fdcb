// a * b + c with the rounding the query path is pinned to (DESIGN.md §6).
//
// On an ISA with FMA the product and sum round once, as a fused
// multiply-add: that is what GCC's C++ default (-ffp-contract=fast, also
// under -std=c++17) makes of a plain `a * b + c`, and so what the scalar
// query path computed and perfbench/records.tsv pins. Without FMA the
// product and the sum round separately. Spelling the contraction out keeps
// every SIMD path (`_mm*_fmadd_ps` under __FMA__) and its scalar twin
// bit-identical whatever contraction a compiler would choose on its own.
#pragma once

#include <cmath>

namespace dart::tabular {

/// a * b + c, fused where the ISA has FMA.
inline float madd(float a, float b, float c) {
#if defined(__FMA__)
  return std::fmaf(a, b, c);
#else
  return a * b + c;
#endif
}

}  // namespace dart::tabular

#include "tabular/quant.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/madd.hpp"

namespace dart::tabular {

namespace {

// Integer magnitude cap per mode. Ranges leave accumulation headroom so no
// saturating add along the C-term sum can actually saturate (DESIGN.md §10):
//  - int16 rows accumulate in 16-bit lanes: cap ⌊32767/C⌋.
//  - int8 rows widen to 16-bit before accumulating: cap 127 (C·127 fits in
//    int16 for any realistic C; beyond 258 subspaces fall back to ⌊32767/C⌋).
//  - int8 shuffle LUTs (K ≤ 16) accumulate in 8-bit lanes: cap ⌊127/C⌋.
int quant_cap(QuantMode mode, std::size_t c, std::size_t k) {
  if (mode == QuantMode::kInt16) return static_cast<int>(32767 / c);
  if (k <= 16) return static_cast<int>(127 / c);
  return c <= 258 ? 127 : static_cast<int>(32767 / c);
}

// One dequantization step: y = s * acc + z. The SIMD paths use fused
// multiply-add where the ISA has it, so the scalar twin rounds identically
// through madd (one rounding with FMA, mul+add without).
inline float dequant1(float s, int acc, float z) {
  return common::madd(s, static_cast<float>(acc), z);
}

inline int sat16(int v) { return std::clamp(v, -32768, 32767); }
inline int sat8(int v) { return std::clamp(v, -128, 127); }

// Scalar twins of the SIMD kernels: identical accumulation semantics
// (element widths, saturation points, one fused dequant per output).

void rows16_scalar(const QuantizedTable& qt, const std::uint32_t* codes, std::size_t n,
                   float* out, std::size_t out_stride) {
  const std::size_t k = qt.k, dout = qt.out_dim, cc = qt.c;
  for (std::size_t i = 0; i < n; ++i) {
    float* orow = out + i * out_stride;
    const std::int16_t* r0 = qt.q16.data() + codes[i] * dout;
    for (std::size_t o = 0; o < dout; ++o) {
      int acc = r0[o];
      for (std::size_t c = 1; c < cc; ++c) {
        const std::int16_t* rc = qt.q16.data() + (c * k + codes[c * n + i]) * dout;
        acc = sat16(acc + rc[o]);
      }
      orow[o] = dequant1(qt.scales[o], acc, qt.offsets[o]);
    }
  }
}

void rows8_scalar(const QuantizedTable& qt, const std::uint32_t* codes, std::size_t n,
                  float* out, std::size_t out_stride) {
  const std::size_t k = qt.k, dout = qt.out_dim, cc = qt.c;
  for (std::size_t i = 0; i < n; ++i) {
    float* orow = out + i * out_stride;
    const std::int8_t* r0 = qt.q8.data() + codes[i] * dout;
    for (std::size_t o = 0; o < dout; ++o) {
      int acc = r0[o];  // widened to 16-bit accumulation, as in the SIMD path
      for (std::size_t c = 1; c < cc; ++c) {
        const std::int8_t* rc = qt.q8.data() + (c * k + codes[c * n + i]) * dout;
        acc = sat16(acc + rc[o]);
      }
      orow[o] = dequant1(qt.scales[o], acc, qt.offsets[o]);
    }
  }
}

// The shuffle path keeps the accumulator in 8-bit lanes; headroom
// quantization (±⌊127/C⌋) makes the saturating adds exact.
void shuffle_scalar(const QuantizedTable& qt, const std::uint32_t* codes, std::size_t n,
                    float* out, std::size_t out_stride) {
  const std::size_t k = qt.k, dout = qt.out_dim, cc = qt.c;
  for (std::size_t i = 0; i < n; ++i) {
    float* orow = out + i * out_stride;
    const std::int8_t* r0 = qt.q8.data() + codes[i] * dout;
    for (std::size_t o = 0; o < dout; ++o) {
      int acc = r0[o];
      for (std::size_t c = 1; c < cc; ++c) {
        const std::int8_t* rc = qt.q8.data() + (c * k + codes[c * n + i]) * dout;
        acc = sat8(acc + rc[o]);
      }
      orow[o] = dequant1(qt.scales[o], acc, qt.offsets[o]);
    }
  }
}

#if defined(__AVX2__)

// int16 rows: 8 outputs per iteration. Load 8 int16 per subspace row,
// saturating-add across subspaces in 16-bit lanes, widen once, dequantize.
void rows16_avx2(const QuantizedTable& qt, const std::uint32_t* codes, std::size_t n,
                 float* out, std::size_t out_stride) {
  const std::size_t k = qt.k, dout = qt.out_dim, cc = qt.c;
  const std::size_t d8 = dout - dout % 8;
  for (std::size_t i = 0; i < n; ++i) {
    float* orow = out + i * out_stride;
    const std::int16_t* r0 = qt.q16.data() + codes[i] * dout;
    for (std::size_t o = 0; o < d8; o += 8) {
      __m128i acc = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + o));
      for (std::size_t c = 1; c < cc; ++c) {
        const std::int16_t* rc = qt.q16.data() + (c * k + codes[c * n + i]) * dout;
        acc = _mm_adds_epi16(acc, _mm_loadu_si128(reinterpret_cast<const __m128i*>(rc + o)));
      }
      __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(acc));
      __m256 s = _mm256_loadu_ps(qt.scales.data() + o);
      __m256 z = _mm256_loadu_ps(qt.offsets.data() + o);
      _mm256_storeu_ps(orow + o, common::madd(s, f, z));
    }
    for (std::size_t o = d8; o < dout; ++o) {
      int acc = r0[o];
      for (std::size_t c = 1; c < cc; ++c) {
        acc = sat16(acc + qt.q16[(c * k + codes[c * n + i]) * dout + o]);
      }
      orow[o] = dequant1(qt.scales[o], acc, qt.offsets[o]);
    }
  }
}

// int8 rows (K > 16): 8 outputs per iteration — load 8 bytes per subspace
// row, sign-extend to 16-bit, saturating-add, widen, dequantize.
void rows8_avx2(const QuantizedTable& qt, const std::uint32_t* codes, std::size_t n,
                float* out, std::size_t out_stride) {
  const std::size_t k = qt.k, dout = qt.out_dim, cc = qt.c;
  const std::size_t d8 = dout - dout % 8;
  for (std::size_t i = 0; i < n; ++i) {
    float* orow = out + i * out_stride;
    const std::int8_t* r0 = qt.q8.data() + codes[i] * dout;
    for (std::size_t o = 0; o < d8; o += 8) {
      __m128i acc = _mm_cvtepi8_epi16(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r0 + o)));
      for (std::size_t c = 1; c < cc; ++c) {
        const std::int8_t* rc = qt.q8.data() + (c * k + codes[c * n + i]) * dout;
        acc = _mm_adds_epi16(acc, _mm_cvtepi8_epi16(_mm_loadl_epi64(
                                      reinterpret_cast<const __m128i*>(rc + o))));
      }
      __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(acc));
      __m256 s = _mm256_loadu_ps(qt.scales.data() + o);
      __m256 z = _mm256_loadu_ps(qt.offsets.data() + o);
      _mm256_storeu_ps(orow + o, common::madd(s, f, z));
    }
    for (std::size_t o = d8; o < dout; ++o) {
      int acc = r0[o];
      for (std::size_t c = 1; c < cc; ++c) {
        acc = sat16(acc + qt.q8[(c * k + codes[c * n + i]) * dout + o]);
      }
      orow[o] = dequant1(qt.scales[o], acc, qt.offsets[o]);
    }
  }
}

// vpshufb path (int8, K ≤ 16, C ≤ 16): each (subspace, output) pair owns a
// 16-byte in-register codebook; one _mm256_shuffle_epi8 looks 32 rows'
// codes up at once, and subspaces combine with 8-bit saturating adds. The
// [DO][32] int8 tile is then dequantize-transposed into row-major floats.
// Output columns are tiled so the staging buffer stays on the stack.
void shuffle_avx2(const QuantizedTable& qt, const std::uint32_t* codes, std::size_t n,
                  float* out, std::size_t out_stride) {
  constexpr std::size_t kRows = 32;   // rows per shuffle block
  constexpr std::size_t kOTile = 64;  // output columns per staging tile
  const std::size_t dout = qt.out_dim, cc = qt.c;
  const std::size_t nb = n - n % kRows;
  alignas(32) std::uint8_t idx_bytes[kRows];
  alignas(32) std::int8_t tile[kOTile * kRows];
  std::array<__m256i, 16> idx;  // per-subspace code bytes for this block
  for (std::size_t i0 = 0; i0 < nb; i0 += kRows) {
    for (std::size_t c = 0; c < cc; ++c) {
      for (std::size_t j = 0; j < kRows; ++j) {
        idx_bytes[j] = static_cast<std::uint8_t>(codes[c * n + i0 + j]);
      }
      idx[c] = _mm256_load_si256(reinterpret_cast<const __m256i*>(idx_bytes));
    }
    for (std::size_t o0 = 0; o0 < dout; o0 += kOTile) {
      const std::size_t ow = std::min(kOTile, dout - o0);
      for (std::size_t o = 0; o < ow; ++o) {
        __m256i lut = _mm256_broadcastsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i*>(qt.lut8.data() + (o0 + o) * 16)));
        __m256i acc = _mm256_shuffle_epi8(lut, idx[0]);
        for (std::size_t c = 1; c < cc; ++c) {
          lut = _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(
              qt.lut8.data() + (c * dout + o0 + o) * 16)));
          acc = _mm256_adds_epi8(acc, _mm256_shuffle_epi8(lut, idx[c]));
        }
        _mm256_store_si256(reinterpret_cast<__m256i*>(tile + o * kRows), acc);
      }
      for (std::size_t j = 0; j < kRows; ++j) {
        float* orow = out + (i0 + j) * out_stride + o0;
        for (std::size_t o = 0; o < ow; ++o) {
          orow[o] = dequant1(qt.scales[o0 + o], tile[o * kRows + j], qt.offsets[o0 + o]);
        }
      }
    }
  }
  // Tail rows (< 32) take the scalar twin — same 8-bit saturating
  // accumulation over the row-layout payload, so results stay identical.
  for (std::size_t i = nb; i < n; ++i) {
    float* orow = out + i * out_stride;
    const std::int8_t* r0 = qt.q8.data() + codes[i] * dout;
    for (std::size_t o = 0; o < dout; ++o) {
      int acc = r0[o];
      for (std::size_t c = 1; c < cc; ++c) {
        const std::int8_t* rc = qt.q8.data() + (c * qt.k + codes[c * n + i]) * dout;
        acc = sat8(acc + rc[o]);
      }
      orow[o] = dequant1(qt.scales[o], acc, qt.offsets[o]);
    }
  }
}

#endif  // __AVX2__

}  // namespace

const char* quant_mode_name(QuantMode mode) {
  switch (mode) {
    case QuantMode::kOff:
      return "off";
    case QuantMode::kInt16:
      return "int16";
    case QuantMode::kInt8:
      return "int8";
  }
  return "off";
}

QuantMode parse_quant_mode(const std::string& text) {
  if (text == "off") return QuantMode::kOff;
  if (text == "int16") return QuantMode::kInt16;
  if (text == "int8") return QuantMode::kInt8;
  throw std::invalid_argument("invalid quantization mode '" + text +
                              "' (expected off|int16|int8)");
}

QuantizedTable quantize_table(const float* table, std::size_t c, std::size_t k,
                              std::size_t out_dim, QuantMode mode) {
  if (mode == QuantMode::kOff) {
    throw std::invalid_argument("quantize_table: mode must be int16 or int8");
  }
  if (c == 0 || k == 0 || out_dim == 0) {
    throw std::invalid_argument("quantize_table: zero dimension");
  }
  QuantizedTable qt;
  qt.mode = mode;
  qt.c = c;
  qt.k = k;
  qt.out_dim = out_dim;
  qt.scales.assign(out_dim, 0.0f);
  qt.offsets.assign(out_dim, 0.0f);
  const int cap = quant_cap(mode, c, k);

  // Per-column affine: map [lo_o, hi_o] onto [-cap, +cap] around the
  // midpoint. A constant column gets scale 0 and quantizes exactly into
  // the offset.
  std::vector<float> mid(out_dim);
  for (std::size_t o = 0; o < out_dim; ++o) {
    float lo = table[o], hi = table[o];
    for (std::size_t e = o; e < c * k * out_dim; e += out_dim) {
      lo = std::min(lo, table[e]);
      hi = std::max(hi, table[e]);
    }
    mid[o] = 0.5f * (hi + lo);
    const float half = 0.5f * (hi - lo);
    qt.scales[o] = half > 0.0f ? half / static_cast<float>(cap) : 0.0f;
    qt.offsets[o] = static_cast<float>(c) * mid[o];
  }

  auto encode1 = [&](std::size_t e, std::size_t o) {
    if (qt.scales[o] == 0.0f) return 0;
    const int q = static_cast<int>(std::lrintf((table[e] - mid[o]) / qt.scales[o]));
    return std::clamp(q, -cap, cap);
  };
  const std::size_t total = c * k * out_dim;
  if (mode == QuantMode::kInt16) {
    qt.q16.resize(total);
    for (std::size_t e = 0; e < total; ++e) {
      qt.q16[e] = static_cast<std::int16_t>(encode1(e, e % out_dim));
    }
  } else {
    qt.q8.resize(total);
    for (std::size_t e = 0; e < total; ++e) {
      qt.q8[e] = static_cast<std::int8_t>(encode1(e, e % out_dim));
    }
    rebuild_shuffle_lut(qt);
  }
  return qt;
}

void rebuild_shuffle_lut(QuantizedTable& qt) {
  qt.lut8.clear();
  if (qt.mode != QuantMode::kInt8 || qt.k > 16 || qt.c > 16) return;
  // [C][K][DO] -> [C][DO][16]; prototype slots past K stay zero (codes are
  // always < K, so they are never shuffled in).
  qt.lut8.assign(qt.c * qt.out_dim * 16, 0);
  for (std::size_t c = 0; c < qt.c; ++c) {
    for (std::size_t kk = 0; kk < qt.k; ++kk) {
      const std::int8_t* row = qt.q8.data() + (c * qt.k + kk) * qt.out_dim;
      for (std::size_t o = 0; o < qt.out_dim; ++o) {
        qt.lut8[(c * qt.out_dim + o) * 16 + kk] = row[o];
      }
    }
  }
}

void aggregate_quantized(const QuantizedTable& qt, const std::uint32_t* codes, std::size_t n,
                         float* out, std::size_t out_stride) {
#if defined(__AVX2__)
  if (qt.mode == QuantMode::kInt16) {
    rows16_avx2(qt, codes, n, out, out_stride);
  } else if (qt.shuffle()) {
    shuffle_avx2(qt, codes, n, out, out_stride);
  } else {
    rows8_avx2(qt, codes, n, out, out_stride);
  }
#else
  aggregate_quantized_reference(qt, codes, n, out, out_stride);
#endif
}

void aggregate_quantized_reference(const QuantizedTable& qt, const std::uint32_t* codes,
                                   std::size_t n, float* out, std::size_t out_stride) {
  if (qt.mode == QuantMode::kInt16) {
    rows16_scalar(qt, codes, n, out, out_stride);
  } else if (qt.shuffle()) {
    shuffle_scalar(qt, codes, n, out, out_stride);
  } else {
    rows8_scalar(qt, codes, n, out, out_stride);
  }
}

}  // namespace dart::tabular

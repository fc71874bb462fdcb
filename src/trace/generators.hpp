// Synthetic SPEC-like workload generators.
//
// Substitution (DESIGN.md §3): SPEC CPU 2006/2017 traces cannot be shipped,
// so each generator synthesizes an LLC access stream tuned to reproduce the
// published trace statistics of the paper's Table IV (#unique addresses,
// #pages, #deltas) and the qualitative pattern classes of Fig. 7. Prediction
// difficulty in the paper is governed by delta/page cardinality, so
// preserving those preserves the relative ordering of results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace dart::trace {

/// The eight benchmark applications of Table IV.
enum class App {
  kBwaves,      // 410.bwaves — multi-stream regular stride (SPEC 2006)
  kMilc,        // 433.milc — strided sweeps over many pages
  kLeslie3d,    // 437.leslie3d — few pages, small delta set
  kLibquantum,  // 462.libquantum — near-pure sequential
  kGcc,         // 602.gcc — mixed locality (SPEC 2017)
  kMcf,         // 605.mcf — pointer chasing, huge delta diversity
  kLbm,         // 619.lbm — structured grid, few deltas
  kWrf,         // 621.wrf — nested loops, moderate delta set
};

/// All apps in Table IV order.
const std::vector<App>& all_apps();

/// Paper-style display name, e.g. "410.bwaves".
std::string app_name(App app);

/// Parses an app by its full name ("410.bwaves"), the exact name after the
/// number ("bwaves") or the number ("410"); throws std::invalid_argument
/// on anything else, a prefix or substring of a name included.
App app_from_name(const std::string& name);

/// Generates `n` LLC accesses for `app`, deterministically for a seed.
MemoryTrace generate(App app, std::size_t n, std::uint64_t seed = 1);

// Building-block generators (also usable directly for tests/examples):

/// `streams` interleaved sequential streams advancing `stride_elems`
/// elements of `element_bytes` per access (word-granular accesses hit the
/// same cache line several times, setting a realistic LLC demand rate).
MemoryTrace gen_multi_stream(std::size_t n, std::size_t streams, std::size_t stride_elems,
                             std::size_t element_bytes, std::uint64_t region_bytes,
                             std::uint64_t seed);

/// Pointer-chasing walk over `nodes` heap nodes with random jumps.
MemoryTrace gen_pointer_chase(std::size_t n, std::size_t nodes, std::uint64_t seed);

/// Row-major nested-loop sweeps over a `rows x cols` grid of
/// `element_bytes`-sized elements, touching `arrays` arrays per iteration.
MemoryTrace gen_grid_sweep(std::size_t n, std::size_t rows, std::size_t cols,
                           std::size_t arrays, std::size_t element_bytes, std::uint64_t seed);

/// Mix of sequential bursts and skewed random jumps (gcc-like).
MemoryTrace gen_mixed(std::size_t n, double sequential_frac, std::size_t hot_pages,
                      std::uint64_t seed);

}  // namespace dart::trace

// LLC prefetcher interface (Fig. 3's integration point).
//
// The simulator calls `on_access` for every LLC demand access; the
// prefetcher may append candidate block addresses to `out`. Issued
// predictions become visible to the cache only after
// `prediction_latency()` cycles — this is how the evaluation separates
// practical prefetchers from the zero-latency "-I" ideals (Table IX).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dart::sim {

/// Abstract LLC prefetcher driven by the timing simulator (Fig. 3's
/// integration point). Implementations observe demand accesses/fills and
/// emit candidate block addresses; the simulator applies queueing, latency,
/// and degree limits. Instances are constructed from spec strings through
/// `sim::PrefetcherRegistry` (registry.hpp) — new prefetchers should
/// register a factory there rather than extend any driver.
class Prefetcher {
 public:
  virtual ~Prefetcher() = default;

  /// Observes an LLC demand access (post L1/L2 filtering).
  /// `block` is the 64-byte line index, `hit` the LLC outcome, `cycle` the
  /// current simulation cycle (used by latency-bound predictors to throttle
  /// their trigger rate to one outstanding prediction).
  virtual void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                         std::vector<std::uint64_t>& out) = 0;

  /// Called when a line fills the LLC (demand or prefetch) — several
  /// rule-based prefetchers (BO) train on fills.
  virtual void on_fill(std::uint64_t block, bool was_prefetch) {
    (void)block;
    (void)was_prefetch;
  }

  /// True when `on_fill` observes fill events. Prefetchers whose `on_fill`
  /// is a no-op may return false so the simulator skips demand-fill event
  /// queueing entirely (observationally identical, cheaper replay). The
  /// conservative default keeps any overridden `on_fill` working.
  virtual bool trains_on_fill() const { return true; }

  /// Cycles between a trigger access and the prefetch becoming issueable.
  virtual std::size_t prediction_latency() const { return 0; }

  /// Metadata/model storage footprint in bytes (Table IX column).
  virtual std::size_t storage_bytes() const = 0;

  /// Retired: nothing under src/ overrides or reads this any more. Every
  /// prefetcher owns its mutable state, and the model-backed adapters
  /// share trained models only through const inference, so cells, shards
  /// and serve shards need no serialization. Kept (always false) only
  /// because the benchmark's tracing decorator (perfbench/src/replay.cpp)
  /// still overrides it; delete it once that override is gone.
  virtual bool shares_mutable_model() const { return false; }

  /// Display name used in result tables ("BO", "DART-L", ...). Distinct
  /// configurations may share a name; reporting layers disambiguate by
  /// spec string when they collide.
  virtual std::string name() const = 0;
};

}  // namespace dart::sim

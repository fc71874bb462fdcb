// Rule-based baseline prefetchers (Table IX):
//  * NextLine  — trivial sequential reference.
//  * Stride    — classic per-PC stride with confidence.
//  * BestOffset (BO) — Michaud, HPCA'16: offset scoring against a recent
//    request table.
//  * Isb       — Jain & Lin, MICRO'13: PC-localized temporal streams via a
//    structural address space.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/prefetcher.hpp"
#include "sim/workspace.hpp"

namespace dart::prefetch {

class NextLinePrefetcher final : public sim::Prefetcher {
 public:
  explicit NextLinePrefetcher(std::size_t degree = 1) : degree_(degree) {}

  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) override;
  bool trains_on_fill() const override { return false; }
  std::size_t storage_bytes() const override { return 0; }
  std::string name() const override { return "NextLine"; }

 private:
  std::size_t degree_;
};

/// Upper bounds the registry factories enforce on spec values (every
/// rejection a std::invalid_argument through common::Spec::fail), so that
/// no single spec can allocate or loop without limit. Tables allocated up
/// front — `stride:table=`, `bo:rr=` — hold 1 to 2^20 entries;
/// `bo:max_offset=` is 1 to 2^16 (the BO constructor walks every offset
/// up to it); `isb:mappings=` is at most 2^24. `bo:score_max=`,
/// `round_max=` and `bad_score=` fill `int` fields and so are at most
/// INT_MAX.
inline constexpr std::size_t kMaxTableEntries = std::size_t{1} << 20;
inline constexpr std::size_t kMaxBoOffset = std::size_t{1} << 16;
inline constexpr std::size_t kMaxIsbMappings = std::size_t{1} << 24;

class StridePrefetcher final : public sim::Prefetcher {
 public:
  explicit StridePrefetcher(std::size_t table_entries = 256, std::size_t degree = 2);

  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) override;
  bool trains_on_fill() const override { return false; }
  std::size_t storage_bytes() const override;
  std::string name() const override { return "Stride"; }

 private:
  struct Entry {
    std::uint64_t pc_tag = 0;
    std::uint64_t last_block = 0;
    std::int64_t stride = 0;
    int confidence = 0;
    bool valid = false;
  };
  std::size_t index_of(std::uint64_t pc) const {
    return mask_ != 0 ? static_cast<std::size_t>(pc & mask_)
                      : static_cast<std::size_t>(pc % table_.size());
  }
  std::vector<Entry> table_;
  std::uint64_t mask_ = 0;  ///< table_.size() - 1 when a power of two
  std::size_t degree_;
};

/// Best-Offset prefetcher [6]. Offsets are scored in rounds: each trigger
/// tests one candidate offset d — if (X - d) sits in the recent-request (RR)
/// table, X would have been prefetched by offset d in time, so d scores.
/// The best-scoring offset becomes the active prefetch offset.
class BestOffsetPrefetcher final : public sim::Prefetcher {
 public:
  struct Options {
    std::size_t rr_entries = 256;
    int score_max = 31;      ///< early selection threshold
    int round_max = 100;     ///< rounds before forced selection
    int bad_score = 1;       ///< below this, prefetching is disabled
    std::size_t max_offset = 128;
    std::size_t degree = 1;
    std::size_t latency = 60;  ///< Table IX: ~60 cycles
  };

  BestOffsetPrefetcher();
  explicit BestOffsetPrefetcher(const Options& options);

  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) override;
  void on_fill(std::uint64_t block, bool was_prefetch) override;
  std::size_t prediction_latency() const override { return opts_.latency; }
  std::size_t storage_bytes() const override;
  std::string name() const override { return "BO"; }

  std::int64_t current_offset() const { return best_offset_; }

 private:
  std::size_t rr_index(std::uint64_t block) const {
    return rr_mask_ != 0 ? static_cast<std::size_t>(block & rr_mask_)
                         : static_cast<std::size_t>(block % rr_.size());
  }
  void rr_insert(std::uint64_t block);
  bool rr_contains(std::uint64_t block) const;
  void end_learning_phase();

  Options opts_;
  std::vector<std::int64_t> offsets_;  ///< candidate list (±, factors 2/3/5)
  std::vector<int> scores_;
  std::vector<std::uint64_t> rr_;  ///< direct-mapped recent-request table
  std::uint64_t rr_mask_ = 0;      ///< rr_.size() - 1 when a power of two
  std::size_t test_index_ = 0;     ///< next offset to test
  int round_ = 0;
  std::int64_t best_offset_ = 1;
  bool prefetch_enabled_ = true;
};

/// Irregular Stream Buffer [7]: maps correlated physical blocks to
/// consecutive *structural* addresses per trigger PC, then prefetches the
/// successors of the current block's structural address.
class IsbPrefetcher final : public sim::Prefetcher {
 public:
  struct Options {
    /// PS/SP mapping capacity. The real ISB keeps these maps in off-chip
    /// memory and caches them on chip (Table IX charges only the ~8KB
    /// on-chip structures), so the effective capacity is large.
    std::size_t max_mappings = 262144;
    std::size_t degree = 2;
    std::size_t stream_granularity = 256;  ///< structural stream spacing
    std::size_t latency = 30;  ///< Table IX: ~30 cycles
  };

  IsbPrefetcher();
  explicit IsbPrefetcher(const Options& options);

  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) override;
  bool trains_on_fill() const override { return false; }
  std::size_t prediction_latency() const override { return opts_.latency; }
  std::size_t storage_bytes() const override;
  std::string name() const override { return "ISB"; }

 private:
  std::uint64_t assign_structural(std::uint64_t block);
  void record_mapping(std::uint64_t block, std::uint64_t structural);

  /// Growable power-of-two ring over a reusable vector: the deque's FIFO
  /// semantics (push_back / pop_front) without per-segment allocation.
  class FifoRing {
   public:
    std::size_t size() const { return size_; }
    std::uint64_t front() const { return buf_[head_]; }
    void pop_front() {
      head_ = (head_ + 1) & (buf_.size() - 1);
      --size_;
    }
    void push_back(std::uint64_t v) {
      if (size_ == buf_.size()) grow();
      buf_[(head_ + size_) & (buf_.size() - 1)] = v;
      ++size_;
    }

   private:
    void grow() {
      std::vector<std::uint64_t> bigger(buf_.empty() ? 1024 : buf_.size() * 2);
      for (std::size_t i = 0; i < size_; ++i) {
        bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
      }
      buf_.swap(bigger);
      head_ = 0;
    }
    std::vector<std::uint64_t> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  Options opts_;
  sim::FlatMap64 ps_;  ///< physical -> structural
  sim::FlatMap64 sp_;  ///< structural -> physical
  FifoRing fifo_;      ///< insertion order of physical keys
  sim::FlatMap64 training_unit_;  ///< pc -> last block
  std::uint64_t next_stream_base_ = 0;
};

}  // namespace dart::prefetch

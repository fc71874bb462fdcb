#include "prefetch/rule_based.hpp"

#include <algorithm>

#include "sim/registry.hpp"

namespace dart::prefetch {

// ------------------------------------------------------------------ NextLine

void NextLinePrefetcher::on_access(std::uint64_t block, std::uint64_t /*pc*/, bool /*hit*/,
                                   std::uint64_t /*cycle*/, std::vector<std::uint64_t>& out) {
  for (std::size_t d = 1; d <= degree_; ++d) out.push_back(block + d);
}

// -------------------------------------------------------------------- Stride

StridePrefetcher::StridePrefetcher(std::size_t table_entries, std::size_t degree)
    : table_(table_entries), degree_(degree) {
  if (table_entries != 0 && (table_entries & (table_entries - 1)) == 0) mask_ = table_entries - 1;
}

void StridePrefetcher::on_access(std::uint64_t block, std::uint64_t pc, bool /*hit*/,
                                 std::uint64_t /*cycle*/, std::vector<std::uint64_t>& out) {
  Entry& e = table_[index_of(pc)];
  if (!e.valid || e.pc_tag != pc) {
    e = Entry{pc, block, 0, 0, true};
    return;
  }
  const std::int64_t stride =
      static_cast<std::int64_t>(block) - static_cast<std::int64_t>(e.last_block);
  if (stride == e.stride && stride != 0) {
    e.confidence = std::min(e.confidence + 1, 3);
  } else {
    e.confidence = 0;
    e.stride = stride;
  }
  e.last_block = block;
  if (e.confidence >= 2) {
    for (std::size_t d = 1; d <= degree_; ++d) {
      out.push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(block) +
                                               e.stride * static_cast<std::int64_t>(d)));
    }
  }
}

std::size_t StridePrefetcher::storage_bytes() const {
  return table_.size() * sizeof(Entry);
}

// ----------------------------------------------------------------- BestOffset

BestOffsetPrefetcher::BestOffsetPrefetcher() : BestOffsetPrefetcher(Options()) {}

BestOffsetPrefetcher::BestOffsetPrefetcher(const Options& options) : opts_(options) {
  // Candidate offsets with prime factors {2, 3, 5} (the BO paper's list),
  // both directions, bounded by max_offset.
  for (std::int64_t o = 1; o <= static_cast<std::int64_t>(opts_.max_offset); ++o) {
    std::int64_t r = o;
    for (int p : {2, 3, 5}) {
      while (r % p == 0) r /= p;
    }
    if (r == 1) {
      offsets_.push_back(o);
      offsets_.push_back(-o);
    }
  }
  scores_.assign(offsets_.size(), 0);
  rr_.assign(opts_.rr_entries, ~0ULL);
  if (!rr_.empty() && (rr_.size() & (rr_.size() - 1)) == 0) rr_mask_ = rr_.size() - 1;
}

void BestOffsetPrefetcher::rr_insert(std::uint64_t block) {
  rr_[rr_index(block)] = block;
}

bool BestOffsetPrefetcher::rr_contains(std::uint64_t block) const {
  return rr_[rr_index(block)] == block;
}

void BestOffsetPrefetcher::end_learning_phase() {
  const auto best = std::max_element(scores_.begin(), scores_.end());
  const std::size_t idx = static_cast<std::size_t>(best - scores_.begin());
  prefetch_enabled_ = *best >= opts_.bad_score;
  if (prefetch_enabled_) best_offset_ = offsets_[idx];
  std::fill(scores_.begin(), scores_.end(), 0);
  round_ = 0;
  test_index_ = 0;
}

void BestOffsetPrefetcher::on_access(std::uint64_t block, std::uint64_t /*pc*/, bool hit,
                                     std::uint64_t /*cycle*/, std::vector<std::uint64_t>& out) {
  // Learning: test the next candidate offset against the RR table.
  const std::int64_t d = offsets_[test_index_];
  const std::uint64_t base = static_cast<std::uint64_t>(static_cast<std::int64_t>(block) - d);
  if (rr_contains(base)) {
    if (++scores_[test_index_] >= opts_.score_max) {
      best_offset_ = d;
      prefetch_enabled_ = true;
      std::fill(scores_.begin(), scores_.end(), 0);
      round_ = 0;
      test_index_ = 0;
    }
  }
  if (++test_index_ >= offsets_.size()) {
    test_index_ = 0;
    if (++round_ >= opts_.round_max) end_learning_phase();
  }
  // Prefetch on miss or prefetched hit (the BO trigger condition).
  if (prefetch_enabled_ && !hit) {
    for (std::size_t deg = 1; deg <= opts_.degree; ++deg) {
      out.push_back(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(block) + best_offset_ * static_cast<std::int64_t>(deg)));
    }
  }
}

void BestOffsetPrefetcher::on_fill(std::uint64_t block, bool was_prefetch) {
  // Completed prefetch for X+D fills: record the base X (it was timely);
  // demand fills record themselves.
  if (was_prefetch) {
    rr_insert(static_cast<std::uint64_t>(static_cast<std::int64_t>(block) - best_offset_));
  } else {
    rr_insert(block);
  }
}

std::size_t BestOffsetPrefetcher::storage_bytes() const {
  // RR table (4-byte tags) + per-offset scores + control state: ~4 KB as in
  // Table IX.
  return rr_.size() * 4 + scores_.size() * sizeof(int) + 64;
}

// ----------------------------------------------------------------------- ISB

IsbPrefetcher::IsbPrefetcher() : IsbPrefetcher(Options()) {}

IsbPrefetcher::IsbPrefetcher(const Options& options) : opts_(options) {}

void IsbPrefetcher::record_mapping(std::uint64_t block, std::uint64_t structural) {
  ps_.assign(block, structural);
  sp_.assign(structural, block);
  fifo_.push_back(block);
  if (fifo_.size() > opts_.max_mappings) {
    const std::uint64_t victim = fifo_.front();
    fifo_.pop_front();
    if (const std::uint64_t* vs = ps_.find(victim)) {
      sp_.erase(*vs);
      ps_.erase(victim);
    }
  }
}

std::uint64_t IsbPrefetcher::assign_structural(std::uint64_t block) {
  if (const std::uint64_t* s = ps_.find(block)) return *s;
  const std::uint64_t s = next_stream_base_;
  next_stream_base_ += opts_.stream_granularity;
  record_mapping(block, s);
  return s;
}

void IsbPrefetcher::on_access(std::uint64_t block, std::uint64_t pc, bool /*hit*/,
                              std::uint64_t /*cycle*/, std::vector<std::uint64_t>& out) {
  // Training: link the previous block on this PC's stream to this one by
  // assigning consecutive structural addresses.
  const std::uint64_t* tu = training_unit_.find(pc);
  if (tu != nullptr && *tu != block) {
    const std::uint64_t prev_struct = assign_structural(*tu);
    // Map this block right after its predecessor unless already mapped.
    if (ps_.find(block) == nullptr) {
      const std::uint64_t s = prev_struct + 1;
      // Avoid overwriting an existing mapping at s.
      if (sp_.find(s) == nullptr) {
        record_mapping(block, s);
      } else {
        assign_structural(block);
      }
    }
  }
  training_unit_.assign(pc, block);

  // Prediction: successors of this block's structural address.
  const std::uint64_t* st = ps_.find(block);
  if (st == nullptr) return;
  for (std::size_t d = 1; d <= opts_.degree; ++d) {
    if (const std::uint64_t* nxt = sp_.find(*st + d)) out.push_back(*nxt);
  }
}

std::size_t IsbPrefetcher::storage_bytes() const {
  // On-chip budget (training unit + PS/SP caches) as in Table IX; the full
  // maps live in off-chip memory in the original design.
  return 8 * 1024;
}

}  // namespace dart::prefetch

// ------------------------------------------------------- registry entries

namespace dart::sim {

void register_rule_based_prefetchers(PrefetcherRegistry& registry) {
  using prefetch::BestOffsetPrefetcher;
  using prefetch::IsbPrefetcher;
  using prefetch::NextLinePrefetcher;
  using prefetch::StridePrefetcher;

  registry.add("nextline", [](common::Spec& spec, PrefetcherContext&) {
    return std::make_unique<NextLinePrefetcher>(spec.get_uint("degree", 2));
  });
  registry.add("stride", [](common::Spec& spec, PrefetcherContext&) {
    return std::make_unique<StridePrefetcher>(spec.get_uint("table", 256),
                                              spec.get_uint("degree", 2));
  });
  registry.add("bo", [](common::Spec& spec, PrefetcherContext&) {
    BestOffsetPrefetcher::Options o;
    o.rr_entries = spec.get_uint("rr", o.rr_entries);
    o.score_max = static_cast<int>(spec.get_uint("score_max", o.score_max));
    o.round_max = static_cast<int>(spec.get_uint("round_max", o.round_max));
    o.bad_score = static_cast<int>(spec.get_uint("bad_score", o.bad_score));
    o.max_offset = spec.get_uint("max_offset", o.max_offset);
    o.degree = spec.get_uint("degree", o.degree);
    o.latency = spec.get_uint("latency", o.latency);
    return std::make_unique<BestOffsetPrefetcher>(o);
  });
  registry.add("isb", [](common::Spec& spec, PrefetcherContext&) {
    IsbPrefetcher::Options o;
    o.max_mappings = spec.get_uint("mappings", o.max_mappings);
    o.degree = spec.get_uint("degree", o.degree);
    o.stream_granularity = spec.get_uint("granularity", o.stream_granularity);
    o.latency = spec.get_uint("latency", o.latency);
    return std::make_unique<IsbPrefetcher>(o);
  });
}

}  // namespace dart::sim

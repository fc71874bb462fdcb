#include "prefetch/nn_prefetchers.hpp"

#include <algorithm>

#include "nn/ops.hpp"

namespace dart::prefetch {

NnPrefetcherBase::NnPrefetcherBase(const NnAdapterOptions& options) : opts_(options) {
  if (opts_.initiation_interval == 0) opts_.initiation_interval = 1;
  if (opts_.trigger_sample == 0) opts_.trigger_sample = 1;
  hist_blocks_.assign(opts_.prep.history, 0);
  hist_pcs_.assign(opts_.prep.history, 0);
  addr_ = nn::Tensor({1, opts_.prep.history, opts_.prep.addr_segments});
  pc_ = nn::Tensor({1, opts_.prep.history, opts_.prep.pc_segments});
}

void NnPrefetcherBase::on_access(std::uint64_t block, std::uint64_t pc, bool /*hit*/,
                                 std::uint64_t cycle, std::vector<std::uint64_t>& out) {
  // Record history unconditionally (cheap), predict only when allowed.
  hist_blocks_[hist_pos_] = block;
  hist_pcs_[hist_pos_] = pc;
  hist_pos_ = (hist_pos_ + 1) % opts_.prep.history;
  if (hist_count_ < opts_.prep.history) {
    ++hist_count_;
    return;
  }
  if (++access_counter_ % opts_.trigger_sample != 0) return;
  if (cycle < next_allowed_cycle_) return;
  next_allowed_cycle_ = cycle + std::max<std::size_t>(1, opts_.initiation_interval);

  const std::size_t t_len = opts_.prep.history;
  for (std::size_t t = 0; t < t_len; ++t) {
    const std::size_t idx = (hist_pos_ + t) % t_len;  // oldest -> newest
    trace::segment_value(hist_blocks_[idx], opts_.prep.addr_segments, opts_.prep.segment_bits,
                         addr_.data() + t * opts_.prep.addr_segments);
    trace::segment_value(hist_pcs_[idx] >> 2, opts_.prep.pc_segments, opts_.prep.segment_bits,
                         pc_.data() + t * opts_.prep.pc_segments);
  }
  predict(addr_, pc_, probs_);

  // Decode the delta bitmap: strongest deltas first, up to `degree`.
  fired_.clear();
  for (std::size_t j = 0; j < probs_.size(); ++j) {
    if (probs_[j] >= opts_.threshold) fired_.emplace_back(probs_[j], j);
  }
  std::sort(fired_.begin(), fired_.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  const std::size_t take = std::min(opts_.degree, fired_.size());
  for (std::size_t i = 0; i < take; ++i) {
    const std::int64_t delta = trace::bit_to_delta(fired_[i].second, opts_.prep.bitmap_size);
    out.push_back(static_cast<std::uint64_t>(static_cast<std::int64_t>(block) + delta));
  }
}

// ---------------------------------------------------------------------- DART

DartPrefetcher::DartPrefetcher(std::shared_ptr<const tabular::TabularPredictor> predictor,
                               const NnAdapterOptions& options, std::string display_name)
    : NnPrefetcherBase(options),
      predictor_(std::move(predictor)),
      ws_(predictor_->tabular_arch()),
      name_(std::move(display_name)) {}

void DartPrefetcher::predict(const nn::Tensor& addr, const nn::Tensor& pc,
                             std::vector<float>& probs) {
  // The batch-1 query itself, with no pool fork and no allocation; the
  // outputs are already probabilities (sigmoid LUT).
  probs.resize(predictor_->arch().out_dim);
  predictor_->forward_sample_into(addr.data(), pc.data(), probs.data(), ws_);
}

// ----------------------------------------------------------- TransFetch-like

AttentionPrefetcher::AttentionPrefetcher(std::shared_ptr<nn::AddressPredictor> model,
                                         const NnAdapterOptions& options,
                                         std::string display_name)
    : NnPrefetcherBase(options), model_(std::move(model)), name_(std::move(display_name)) {}

void AttentionPrefetcher::predict(const nn::Tensor& addr, const nn::Tensor& pc,
                                  std::vector<float>& probs) {
  nn::Tensor logits = model_->forward(addr, pc);
  nn::Tensor p;
  nn::ops::sigmoid(logits, p);
  probs.assign(p.data(), p.data() + p.numel());
}

std::size_t AttentionPrefetcher::storage_bytes() const {
  return model_->num_params() * sizeof(float);
}

// --------------------------------------------------------------- Voyager-like

LstmPrefetcher::LstmPrefetcher(std::shared_ptr<nn::LstmPredictor> model,
                               const NnAdapterOptions& options, std::string display_name)
    : NnPrefetcherBase(options), model_(std::move(model)), name_(std::move(display_name)) {}

void LstmPrefetcher::predict(const nn::Tensor& addr, const nn::Tensor& pc,
                             std::vector<float>& probs) {
  nn::Tensor logits = model_->forward(addr, pc);
  nn::Tensor p;
  nn::ops::sigmoid(logits, p);
  probs.assign(p.data(), p.data() + p.numel());
}

std::size_t LstmPrefetcher::storage_bytes() const {
  return model_->num_params() * sizeof(float);
}

}  // namespace dart::prefetch

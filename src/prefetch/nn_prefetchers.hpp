// Neural / tabular prefetcher adapters (Table IX):
//  * DartPrefetcher       — the paper's contribution: table-hierarchy
//    predictor at the LLC (latency from the Eq. 22 complexity model).
//  * AttentionPrefetcher  — TransFetch-like baseline wrapping the
//    attention NN directly (latency ≈ 4.5K cycles; "-I" ideal = 0).
//  * LstmPrefetcher       — Voyager-like baseline wrapping the LSTM
//    predictor (latency ≈ 27.7K cycles; "-I" ideal = 0).
//
// All adapters share the same mechanics: keep the last T LLC accesses,
// build the segmented addr/PC input of §VI-A, run the predictor, turn
// bitmap bits with probability >= threshold into block addresses
// (current block + delta), strongest bits first. The input tensors, the
// probability buffer and the fired-bit list are reused across calls, and
// DART queries through `forward_sample_into` on a workspace it owns, so
// its `on_access` performs no heap allocation.
//
// Latency-bound triggering: a predictor with prediction latency L cannot
// start a new inference while one is outstanding (it is not pipelined), so
// a trigger is accepted at most once every `initiation_interval` cycles —
// by default equal to the prediction latency. The "-I" ideal variants have
// zero latency and trigger on every access, exactly how the paper separates
// TransFetch/Voyager from TransFetch-I/Voyager-I.
#pragma once

#include <memory>

#include "nn/lstm.hpp"
#include "nn/transformer.hpp"
#include "sim/prefetcher.hpp"
#include "tabular/tabular_predictor.hpp"
#include "trace/preprocess.hpp"

namespace dart::prefetch {

struct NnAdapterOptions {
  trace::PreprocessOptions prep;     ///< must match the training pipeline
  float threshold = 0.5f;            ///< bitmap probability cutoff
  std::size_t degree = 16;           ///< max predictions per trigger
  std::size_t latency = 0;           ///< prediction latency in cycles
  /// Minimum cycles between two inference launches (1 = fully pipelined
  /// predictor, the default; set to `latency` to model a non-pipelined
  /// engine with a single outstanding prediction).
  std::size_t initiation_interval = 1;
  /// Predict on every Nth trigger access (simulation-cost sampling for the
  /// heavyweight NN baselines; predictions within a few accesses are nearly
  /// identical because the history window barely moves).
  std::size_t trigger_sample = 1;
};

/// Shared history-window + bitmap-decoding machinery.
class NnPrefetcherBase : public sim::Prefetcher {
 public:
  explicit NnPrefetcherBase(const NnAdapterOptions& options);

  void on_access(std::uint64_t block, std::uint64_t pc, bool hit, std::uint64_t cycle,
                 std::vector<std::uint64_t>& out) final;
  std::size_t prediction_latency() const final { return opts_.latency; }

 protected:
  /// Runs the wrapped predictor on [1,T,S] inputs and stores the DO output
  /// probabilities in `probs` (resized to DO; its capacity is reused).
  virtual void predict(const nn::Tensor& addr, const nn::Tensor& pc,
                       std::vector<float>& probs) = 0;

  NnAdapterOptions opts_;

 private:
  nn::Tensor addr_;  ///< [1, T, S] segmented addresses, rebuilt per trigger
  nn::Tensor pc_;    ///< [1, T, S] segmented PCs
  std::vector<float> probs_;
  std::vector<std::pair<float, std::size_t>> fired_;  ///< (probability, bit)
  std::vector<std::uint64_t> hist_blocks_;
  std::vector<std::uint64_t> hist_pcs_;
  std::size_t hist_pos_ = 0;
  std::size_t hist_count_ = 0;
  std::uint64_t next_allowed_cycle_ = 0;
  std::uint64_t access_counter_ = 0;
};

class DartPrefetcher final : public NnPrefetcherBase {
 public:
  DartPrefetcher(std::shared_ptr<const tabular::TabularPredictor> predictor,
                 const NnAdapterOptions& options, std::string display_name = "DART");

  std::size_t storage_bytes() const override { return predictor_->storage_bytes(); }
  std::string name() const override { return name_; }

 protected:
  void predict(const nn::Tensor& addr, const nn::Tensor& pc,
               std::vector<float>& probs) override;

 private:
  std::shared_ptr<const tabular::TabularPredictor> predictor_;
  tabular::InferenceWorkspace ws_;  ///< sized once for the predictor
  std::string name_;
};

class AttentionPrefetcher final : public NnPrefetcherBase {
 public:
  AttentionPrefetcher(std::shared_ptr<nn::AddressPredictor> model,
                      const NnAdapterOptions& options, std::string display_name);

  std::size_t storage_bytes() const override;
  std::string name() const override { return name_; }
  /// The attention model caches activations during forward.
  bool shares_mutable_model() const override { return true; }

 protected:
  void predict(const nn::Tensor& addr, const nn::Tensor& pc,
               std::vector<float>& probs) override;

 private:
  std::shared_ptr<nn::AddressPredictor> model_;
  std::string name_;
};

class LstmPrefetcher final : public NnPrefetcherBase {
 public:
  LstmPrefetcher(std::shared_ptr<nn::LstmPredictor> model, const NnAdapterOptions& options,
                 std::string display_name);

  std::size_t storage_bytes() const override;
  std::string name() const override { return name_; }
  /// The LSTM model caches activations during forward.
  bool shares_mutable_model() const override { return true; }

 protected:
  void predict(const nn::Tensor& addr, const nn::Tensor& pc,
               std::vector<float>& probs) override;

 private:
  std::shared_ptr<nn::LstmPredictor> model_;
  std::string name_;
};

}  // namespace dart::prefetch

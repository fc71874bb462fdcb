// End-to-end DART pipeline (the paper's Fig. 2): per-application data
// preparation -> teacher training -> knowledge-distilled student ->
// layer-wise tabularization with fine-tuning -> evaluation.
//
// The pipeline is stage-lazy: benches request only the stages they need
// (e.g. Table VI needs teacher + students, Fig. 8 needs the student + many
// tabularizations) and earlier stages are computed once and cached.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "nn/lstm.hpp"
#include "nn/trainer.hpp"
#include "nn/transformer.hpp"
#include "sim/config.hpp"
#include "tabular/tabularizer.hpp"
#include "trace/preprocess.hpp"
#include "trace/workloads.hpp"

namespace dart::core {

struct PipelineOptions {
  trace::PreprocessOptions prep;
  nn::ModelConfig teacher_arch;
  nn::ModelConfig student_arch;
  nn::TrainOptions teacher_train;
  nn::TrainOptions student_train;
  nn::KdOptions kd;
  tabular::TabularizeOptions tab;
  sim::SimConfig sim;
  std::size_t raw_accesses = 400000;  ///< generated accesses per app
  double train_frac = 0.75;
  std::uint64_t seed = 42;
  /// Directory for trained-artifact caching: teacher/student/LSTM
  /// checkpoints here (`<app>-<role>-<key>.ckpt`, stored in the `.dart`
  /// container, DESIGN.md §7), `.dart` tables via core/artifact_cache.hpp.
  /// Empty disables caching. Stale entries are detected by the configuration
  /// hash (`pipeline_cache_key`) in the file name and in the META chunk, so
  /// changing any knob retrains automatically; an unreadable checkpoint is
  /// retrained and overwritten.
  std::string artifact_dir;

  /// Defaults scaled for CPU benches; reads DART_* env knobs (DESIGN.md §5),
  /// including DART_ARTIFACT_DIR for `artifact_dir`.
  static PipelineOptions bench_defaults();
};

/// Hash of every option that affects trained models for `workload` (trace
/// generation, preprocessing, architectures, training/distillation/
/// tabularization knobs, LLC-extraction geometry), as 16 hex digits.
/// Artifact caches key file names on it so stale files are never reused.
/// The workload contributes its canonical spec string, so two parameterized
/// workloads never collide. (trace::App converts implicitly.)
std::string pipeline_cache_key(const trace::Workload& workload, const PipelineOptions& options);

/// Per-workload experiment state.
class Pipeline {
 public:
  /// trace::App converts implicitly, so legacy `Pipeline(App::kMcf, o)`
  /// call sites keep working.
  Pipeline(trace::Workload workload, const PipelineOptions& options);

  /// Stage 0: generate the raw trace, extract the LLC stream, build and
  /// split the dataset. Called implicitly by later stages.
  void prepare();

  /// Stage 1 (§VI-B): the large attention model.
  nn::AddressPredictor& teacher();

  /// Student trained with plain BCE (the "Stu w/o KD" row of Table VI).
  nn::AddressPredictor& student_no_kd();

  /// Stage 2 (§VI-D): student distilled from the teacher.
  nn::AddressPredictor& student();

  /// Stage 3 (§VI-E): tabularize the distilled student. Does not cache —
  /// sweeps call this with varying configs.
  tabular::TabularPredictor tabularize(const tabular::TabularizeOptions& options,
                                       tabular::TabularizeReport* report = nullptr);

  /// Stage 3 with the pipeline's default options (cached).
  tabular::TabularPredictor& dart();

  /// Voyager-like LSTM baseline trained on the same data.
  nn::LstmPredictor& lstm_baseline();

  /// Shared-ownership, read-only handles to the cached models, for
  /// prefetcher adapters that may outlive the pipeline
  /// (sim::PrefetcherContext providers).
  std::shared_ptr<const nn::AddressPredictor> teacher_shared();
  std::shared_ptr<const nn::LstmPredictor> lstm_baseline_shared();

  // F1 on the held-out test split.
  nn::F1Result eval_nn(const nn::AddressPredictor& model);
  nn::F1Result eval_lstm(const nn::LstmPredictor& model);
  nn::F1Result eval_tabular(const tabular::TabularPredictor& model);

  const nn::Dataset& train_set();
  const nn::Dataset& test_set();
  const trace::MemoryTrace& raw_trace();
  const trace::MemoryTrace& llc_trace();
  const trace::Workload& workload() const { return workload_; }
  const PipelineOptions& options() const { return opts_; }

 private:
  /// Restores `model` from its `role` ("teacher"/"student"/"lstm") checkpoint
  /// under `opts_.artifact_dir`, or runs `train` and best-effort saves one.
  /// Always just trains when caching is disabled.
  template <typename Model, typename Train>
  void load_or_train(Model& model, const char* role, Train&& train);

  trace::Workload workload_;
  PipelineOptions opts_;
  std::string cache_key_;  ///< lazily computed pipeline_cache_key
  bool prepared_ = false;
  trace::MemoryTrace raw_;
  trace::MemoryTrace llc_;
  nn::Dataset train_;
  nn::Dataset test_;
  std::shared_ptr<nn::AddressPredictor> teacher_;
  std::unique_ptr<nn::AddressPredictor> student_no_kd_;
  std::unique_ptr<nn::AddressPredictor> student_;
  std::shared_ptr<nn::LstmPredictor> lstm_;
  std::unique_ptr<tabular::TabularPredictor> dart_;
};

/// Micro-F1 of a tabular predictor on a dataset (probabilities vs labels).
nn::F1Result evaluate_tabular_f1(const tabular::TabularPredictor& model,
                                 const nn::Dataset& data, std::size_t batch = 512);

}  // namespace dart::core

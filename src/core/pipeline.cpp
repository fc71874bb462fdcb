#include "core/pipeline.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/configs.hpp"
#include "io/artifact.hpp"
#include "sim/simulator.hpp"

namespace dart::core {

namespace {

void append_train(io::ByteWriter& w, const nn::TrainOptions& t) {
  w.u64(t.epochs);
  w.u64(t.batch_size);
  w.f32(t.lr);
  w.f32(t.pos_weight);
  w.u64(t.shuffle_seed);
}

}  // namespace

std::string pipeline_cache_key(const trace::Workload& workload, const PipelineOptions& o) {
  // Field lists come from the io codecs shared with the artifact chunks, so
  // a new struct field can never update the stored format but not the key.
  io::ByteWriter w;
  w.str(workload.spec());
  io::put_prep(w, o.prep);
  io::put_model_config(w, o.teacher_arch);
  io::put_model_config(w, o.student_arch);
  append_train(w, o.teacher_train);
  append_train(w, o.student_train);
  w.f32(o.kd.temperature);
  w.f32(o.kd.lambda);
  io::put_table_config(w, o.tab.tables);
  w.u8(o.tab.fine_tune ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(o.tab.ft.method));
  w.f32(o.tab.ft.ridge_lambda);
  w.u64(o.tab.ft.epochs);
  w.u64(o.tab.ft.batch_size);
  w.f32(o.tab.ft.lr);
  w.u64(o.tab.ft.seed);
  w.u8(static_cast<std::uint8_t>(o.tab.attention_activation));
  w.u8(static_cast<std::uint8_t>(o.tab.encoder));
  w.u64(o.tab.kmeans_iters);
  w.u64(o.tab.max_train_samples);
  w.u64(o.tab.seed);
  // Trace generation + LLC extraction geometry (they shape the dataset).
  w.u64(o.raw_accesses);
  w.f32(static_cast<float>(o.train_frac));
  w.u64(o.seed);
  for (std::size_t v : {o.sim.l1_size, o.sim.l1_ways, o.sim.l1_mshrs, o.sim.l2_size,
                        o.sim.l2_ways, o.sim.l2_mshrs, o.sim.llc_size, o.sim.llc_ways,
                        o.sim.llc_mshrs}) {
    w.u64(v);
  }
  std::ostringstream hex;
  hex << std::hex;
  hex.width(16);
  hex.fill('0');
  hex << io::fnv1a64(w.bytes().data(), w.size());
  return hex.str();
}

PipelineOptions PipelineOptions::bench_defaults() {
  PipelineOptions o;
  o.prep = default_preprocess();
  o.teacher_arch = bench_teacher_config();
  o.student_arch = paper_student_config();
  o.teacher_train.epochs = static_cast<std::size_t>(common::env_int("DART_EPOCHS", 6));
  o.teacher_train.batch_size = 64;
  o.teacher_train.lr = 1e-3f;
  o.student_train = o.teacher_train;
  o.kd.temperature = 2.0f;
  o.kd.lambda = 0.5f;
  o.tab.tables = dart_table_config();
  o.tab.max_train_samples = 2048;
  o.raw_accesses = static_cast<std::size_t>(common::env_int("DART_SIM_INSTR", 400000));
  o.prep.max_samples = static_cast<std::size_t>(common::env_int("DART_TRAIN_SAMPLES", 6000));
  o.artifact_dir = common::env_string("DART_ARTIFACT_DIR", "");
  return o;
}

template <typename Model, typename Train>
void Pipeline::load_or_train(Model& model, const char* role, Train&& train) {
  if (opts_.artifact_dir.empty()) {
    train();
    return;
  }
  if (cache_key_.empty()) cache_key_ = pipeline_cache_key(workload_, opts_);
  const std::string path =
      opts_.artifact_dir + "/" + workload_.name() + "-" + role + "-" + cache_key_ + ".ckpt";
  if (std::filesystem::exists(path)) {
    try {
      // The loader validates the whole file before adopting any weight, so
      // a failed load leaves the seeded model as it was for training.
      io::load_checkpoint(path, model.params(), cache_key_);
      return;
    } catch (const io::ArtifactError& e) {
      std::fprintf(stderr, "[dart] ignoring stale checkpoint: %s\n", e.what());
    }
  }
  train();
  // Best-effort save: a read-only cache directory degrades to retraining
  // next run, never to a failure of the current one.
  io::ArtifactMeta meta;
  meta.producer = "pipeline";
  meta.app = workload_.name();
  meta.display_name = role;
  meta.config_key = cache_key_;
  meta.prep = opts_.prep;
  std::error_code ec;
  std::filesystem::create_directories(opts_.artifact_dir, ec);
  try {
    io::save_checkpoint(path, model.params(), meta);
  } catch (const io::ArtifactError& e) {
    std::fprintf(stderr, "[dart] could not write checkpoint: %s\n", e.what());
  }
}

Pipeline::Pipeline(trace::Workload workload, const PipelineOptions& options)
    : workload_(std::move(workload)), opts_(options) {}

void Pipeline::prepare() {
  if (prepared_) return;
  raw_ = workload_.generate(opts_.raw_accesses, common::derive_seed(opts_.seed, 1));
  // The calling thread's SimWorkspace supplies the L1/L2 filter state, so
  // per-app preprocessing reuses cache arrays instead of reallocating.
  llc_ = sim::extract_llc_trace(raw_, opts_.sim, sim::thread_local_sim_workspace());
  // Guard against workloads that are so cache-friendly the LLC stream is
  // too short to window: fall back to the raw trace.
  const std::size_t need = opts_.prep.history + opts_.prep.lookforward + 64;
  const trace::MemoryTrace& source = llc_.size() >= need ? llc_ : raw_;
  nn::Dataset all = trace::make_dataset(source, opts_.prep);
  // Temporal split: train on the prefix, test on the suffix.
  auto [train, test] = all.split(opts_.train_frac);
  train_ = std::move(train);
  test_ = std::move(test);
  prepared_ = true;
}

nn::AddressPredictor& Pipeline::teacher() {
  if (!teacher_) {
    prepare();
    teacher_ = std::make_shared<nn::AddressPredictor>(opts_.teacher_arch,
                                                      common::derive_seed(opts_.seed, 2));
    load_or_train(*teacher_, "teacher",
                  [&] { nn::train_bce(*teacher_, train_, opts_.teacher_train); });
  }
  return *teacher_;
}

std::shared_ptr<const nn::AddressPredictor> Pipeline::teacher_shared() {
  teacher();
  return teacher_;
}

nn::AddressPredictor& Pipeline::student_no_kd() {
  if (!student_no_kd_) {
    prepare();
    student_no_kd_ = std::make_unique<nn::AddressPredictor>(opts_.student_arch,
                                                            common::derive_seed(opts_.seed, 3));
    nn::train_bce(*student_no_kd_, train_, opts_.student_train);
  }
  return *student_no_kd_;
}

nn::AddressPredictor& Pipeline::student() {
  if (!student_) {
    prepare();
    student_ = std::make_unique<nn::AddressPredictor>(opts_.student_arch,
                                                      common::derive_seed(opts_.seed, 3));
    // A student checkpoint hit also skips teacher training entirely — the
    // teacher's only role in the distilled pipeline is producing the
    // student's soft targets.
    load_or_train(*student_, "student", [&] {
      nn::train_distill(*student_, teacher(), train_, opts_.student_train, opts_.kd);
    });
  }
  return *student_;
}

tabular::TabularPredictor Pipeline::tabularize(const tabular::TabularizeOptions& options,
                                               tabular::TabularizeReport* report) {
  nn::AddressPredictor& s = student();
  return tabular::tabularize(s, train_.addr, train_.pc, options, report);
}

tabular::TabularPredictor& Pipeline::dart() {
  if (!dart_) {
    dart_ = std::make_unique<tabular::TabularPredictor>(tabularize(opts_.tab));
  }
  return *dart_;
}

nn::LstmPredictor& Pipeline::lstm_baseline() {
  if (!lstm_) {
    prepare();
    lstm_ = std::make_shared<nn::LstmPredictor>(
        opts_.prep.addr_segments, opts_.prep.pc_segments, /*hidden=*/64,
        opts_.prep.bitmap_size, common::derive_seed(opts_.seed, 4));
    load_or_train(*lstm_, "lstm", [&] { nn::train_bce(*lstm_, train_, opts_.student_train); });
  }
  return *lstm_;
}

std::shared_ptr<const nn::LstmPredictor> Pipeline::lstm_baseline_shared() {
  lstm_baseline();
  return lstm_;
}

nn::F1Result Pipeline::eval_nn(const nn::AddressPredictor& model) {
  prepare();
  return nn::evaluate_f1(model, test_);
}

nn::F1Result Pipeline::eval_lstm(const nn::LstmPredictor& model) {
  prepare();
  return nn::evaluate_f1(model, test_);
}

nn::F1Result Pipeline::eval_tabular(const tabular::TabularPredictor& model) {
  prepare();
  return evaluate_tabular_f1(model, test_);
}

const nn::Dataset& Pipeline::train_set() {
  prepare();
  return train_;
}

const nn::Dataset& Pipeline::test_set() {
  prepare();
  return test_;
}

const trace::MemoryTrace& Pipeline::raw_trace() {
  prepare();
  return raw_;
}

const trace::MemoryTrace& Pipeline::llc_trace() {
  prepare();
  return llc_;
}

nn::F1Result evaluate_tabular_f1(const tabular::TabularPredictor& model, const nn::Dataset& data,
                                 std::size_t batch) {
  std::size_t tp = 0, fp = 0, fn = 0;
  for (std::size_t begin = 0; begin < data.size(); begin += batch) {
    const std::size_t end = std::min(data.size(), begin + batch);
    nn::Dataset b = data.slice(begin, end);
    nn::Tensor probs = model.forward(b.addr, b.pc);
    nn::F1Result r = nn::f1_score_from_probs(probs, b.labels);
    tp += r.true_pos;
    fp += r.false_pos;
    fn += r.false_neg;
  }
  nn::F1Result total;
  total.true_pos = tp;
  total.false_pos = fp;
  total.false_neg = fn;
  total.precision = (tp + fp) > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 0.0;
  total.recall = (tp + fn) > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 0.0;
  total.f1 = (total.precision + total.recall) > 0.0
                 ? 2.0 * total.precision * total.recall / (total.precision + total.recall)
                 : 0.0;
  return total;
}

}  // namespace dart::core

// Mini-batch training loops for the attention and LSTM predictors, including
// the knowledge-distillation loop of §VI-D.
//
// Both predictor classes expose the same implicit interface
// (forward(addr, pc) -> logits, backward(d_logits), params(), and the const
// infer(addr, pc) -> logits), so the loops are templates rather than a
// virtual hierarchy.
#pragma once

#include <cstdio>
#include <functional>

#include <cmath>

#include "nn/dataset.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"

namespace dart::nn {

struct TrainOptions {
  std::size_t epochs = 6;
  std::size_t batch_size = 64;
  float lr = 1e-3f;
  /// Positive-class weight for the sparse delta bitmap (0 = auto: derived
  /// from the label density, clamped to [1, 6]).
  float pos_weight = 0.0f;
  bool verbose = false;
  std::uint64_t shuffle_seed = 17;
};

/// Auto positive weight: sqrt of the inverse positive rate, clamped.
inline float resolve_pos_weight(const TrainOptions& opt, const Dataset& data) {
  if (opt.pos_weight > 0.0f) return opt.pos_weight;
  const double rate =
      data.labels.numel() > 0 ? data.labels.sum() / static_cast<double>(data.labels.numel())
                              : 0.5;
  if (rate <= 0.0) return 1.0f;
  const double w = std::sqrt(1.0 / rate);
  return static_cast<float>(std::min(6.0, std::max(1.0, w)));
}

struct KdOptions {
  float temperature = 2.0f;  ///< T of the T-Sigmoid (Eq. 24)
  float lambda = 0.5f;       ///< weight of the KD term (Eq. 25)
};

/// Trains `model` with BCE-with-logits on `train`. Returns final epoch loss.
template <typename Predictor>
double train_bce(Predictor& model, const Dataset& train, const TrainOptions& opt) {
  Adam adam(model.params(), opt.lr);
  Dataset data = train;
  const float pos_w = resolve_pos_weight(opt, train);
  double last_loss = 0.0;
  for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
    data.shuffle(opt.shuffle_seed + epoch);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < data.size(); begin += opt.batch_size) {
      const std::size_t end = std::min(data.size(), begin + opt.batch_size);
      Dataset batch = data.slice(begin, end);
      adam.zero_grad();
      Tensor logits = model.forward(batch.addr, batch.pc);
      Tensor d_logits;
      epoch_loss += bce_with_logits(logits, batch.labels, d_logits, pos_w);
      model.backward(d_logits);
      adam.step();
      ++batches;
    }
    last_loss = epoch_loss / static_cast<double>(std::max<std::size_t>(1, batches));
    if (opt.verbose) std::fprintf(stderr, "[train] epoch %zu loss %.4f\n", epoch, last_loss);
  }
  return last_loss;
}

/// Knowledge distillation: teacher logits are computed on the fly per batch
/// through the teacher's const `infer`; gradient flows only into the
/// student. Returns final epoch loss.
template <typename Student, typename Teacher>
double train_distill(Student& student, const Teacher& teacher, const Dataset& train,
                     const TrainOptions& opt, const KdOptions& kd) {
  Adam adam(student.params(), opt.lr);
  Dataset data = train;
  double last_loss = 0.0;
  for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
    data.shuffle(opt.shuffle_seed + epoch);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < data.size(); begin += opt.batch_size) {
      const std::size_t end = std::min(data.size(), begin + opt.batch_size);
      Dataset batch = data.slice(begin, end);
      Tensor teacher_logits = teacher.infer(batch.addr, batch.pc);
      adam.zero_grad();
      Tensor logits = student.forward(batch.addr, batch.pc);
      Tensor d_logits;
      epoch_loss += distillation_loss(logits, teacher_logits, batch.labels, kd.temperature,
                                      kd.lambda, d_logits);
      student.backward(d_logits);
      adam.step();
      ++batches;
    }
    last_loss = epoch_loss / static_cast<double>(std::max<std::size_t>(1, batches));
    if (opt.verbose) std::fprintf(stderr, "[distill] epoch %zu loss %.4f\n", epoch, last_loss);
  }
  return last_loss;
}

/// Batched evaluation to bound peak memory; returns micro-F1 on `test`.
template <typename Predictor>
F1Result evaluate_f1(const Predictor& model, const Dataset& test,
                     std::size_t batch_size = 256) {
  std::size_t tp = 0, fp = 0, fn = 0;
  for (std::size_t begin = 0; begin < test.size(); begin += batch_size) {
    const std::size_t end = std::min(test.size(), begin + batch_size);
    Dataset batch = test.slice(begin, end);
    Tensor logits = model.infer(batch.addr, batch.pc);
    F1Result r = f1_score_from_logits(logits, batch.labels);
    tp += r.true_pos;
    fp += r.false_pos;
    fn += r.false_neg;
  }
  F1Result total;
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

}  // namespace dart::nn

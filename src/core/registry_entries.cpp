// Model-backed prefetcher registry entries (DESIGN.md §4): the NN baselines
// (TransFetch-like attention, Voyager-like LSTM, plus their zero-latency
// "-I" ideals) and the DART tabular variants. All trained artifacts come
// from the PrefetcherContext, so these factories work under any harness
// that can lend models — ExperimentRunner, tests, or custom drivers.
#include <memory>

#include "core/configs.hpp"
#include "io/artifact.hpp"
#include "prefetch/nn_prefetchers.hpp"
#include "sim/registry.hpp"

namespace dart::sim {

namespace {

/// Shared adapter knobs every model-backed spec accepts: threshold=, degree=
/// and sample= (trigger sampling; NN baselines default to the context's
/// simulation-cost sampling, DART is cheap enough to trigger every access).
prefetch::NnAdapterOptions adapter_options(common::Spec& spec, PrefetcherContext& context,
                                           std::size_t default_sample) {
  prefetch::NnAdapterOptions o;
  o.prep = context.prep;
  o.degree = spec.get_uint("degree", context.degree);
  o.threshold = static_cast<float>(spec.get_double("threshold", o.threshold));
  o.trigger_sample = spec.get_uint("sample", default_sample);
  o.initiation_interval = spec.get_uint("ii", o.initiation_interval);
  return o;
}

void require(bool present, const common::Spec& spec, const char* provider) {
  if (!present) {
    throw MissingModelError("prefetcher spec '" + spec.text() + "' needs a trained model: " +
                            "PrefetcherContext::" + provider + " is not set");
  }
}

/// `quant=off|int16|int8` on the DART specs: an explicit value wins, an
/// absent key falls back to the process-wide DART_QUANT knob.
tabular::QuantMode quant_param(common::Spec& spec) {
  const std::string value = spec.get_string("quant", "");
  return value.empty() ? core::quant_mode_from_env() : tabular::parse_quant_mode(value);
}

}  // namespace

void register_model_backed_prefetchers(PrefetcherRegistry& registry) {
  registry.add("transfetch", [](common::Spec& spec, PrefetcherContext& context) {
    require(static_cast<bool>(context.attention_model), spec, "attention_model");
    const bool ideal = spec.get_flag("ideal");
    prefetch::NnAdapterOptions o = adapter_options(spec, context, context.nn_trigger_sample);
    o.latency = ideal ? 0 : spec.get_uint("latency", core::kTransFetchLatencyCycles);
    return std::make_unique<prefetch::AttentionPrefetcher>(
        context.attention_model(), o, ideal ? "TransFetch-I" : "TransFetch");
  });
  registry.add_alias("transfetch-i", "transfetch", {{"ideal", "1"}});

  registry.add("voyager", [](common::Spec& spec, PrefetcherContext& context) {
    require(static_cast<bool>(context.lstm_model), spec, "lstm_model");
    const bool ideal = spec.get_flag("ideal");
    prefetch::NnAdapterOptions o = adapter_options(spec, context, context.nn_trigger_sample);
    o.latency = ideal ? 0 : spec.get_uint("latency", core::kVoyagerLatencyCycles);
    return std::make_unique<prefetch::LstmPrefetcher>(context.lstm_model(), o,
                                                      ideal ? "Voyager-I" : "Voyager");
  });
  registry.add_alias("voyager-i", "voyager", {{"ideal", "1"}});

  registry.add("dart", [](common::Spec& spec, PrefetcherContext& context) {
    require(static_cast<bool>(context.dart_model), spec, "dart_model");
    DartModelRequest request;
    request.variant = spec.get_string("variant", "default");
    request.table_k = spec.get_uint("tables", 0);
    request.table_c = spec.get_uint("codebooks", 0);
    request.quant = quant_param(spec);
    const DartModel model = context.dart_model(request);
    prefetch::NnAdapterOptions o = adapter_options(spec, context, /*default_sample=*/1);
    o.latency = spec.get_uint("latency", model.latency_cycles);
    return std::make_unique<prefetch::DartPrefetcher>(model.predictor, o, model.display_name);
  });
  registry.add_alias("dart-s", "dart", {{"variant", "s"}});
  registry.add_alias("dart-l", "dart", {{"variant", "l"}});

  // Serving-process entry: a DART prefetcher cold-started from a versioned
  // `.dart` artifact (tools/dart_train output) — no trained pipeline, no
  // context providers, no training dependency. The artifact's embedded
  // preprocessing geometry overrides the context's, since inference inputs
  // must be built exactly as the model was trained.
  registry.add("dart-artifact", [](common::Spec& spec, PrefetcherContext& context) {
    spec.require({"file"});
    const std::string file = spec.get_string("file", "");
    io::ArtifactInfo info;
    auto predictor =
        std::make_shared<tabular::TabularPredictor>(io::load_predictor_artifact(file, &info));
    // quant=off keeps whatever the artifact stored (a QNTT chunk attaches
    // verbatim); an explicit mode or DART_QUANT re-quantizes on load.
    const tabular::QuantMode quant = quant_param(spec);
    if (quant != tabular::QuantMode::kOff && quant != predictor->quant_mode()) {
      predictor->set_quant_mode(quant);
    }
    prefetch::NnAdapterOptions o = adapter_options(spec, context, /*default_sample=*/1);
    o.prep = info.meta.prep;
    o.latency = spec.get_uint("latency", static_cast<std::size_t>(info.meta.latency_cycles));
    const std::string name =
        info.meta.display_name.empty() ? "DART(artifact)" : info.meta.display_name;
    return std::make_unique<prefetch::DartPrefetcher>(std::move(predictor), o, name);
  });
}

}  // namespace dart::sim

// Extensible prefetcher registry (DESIGN.md §4).
//
// Every prefetcher the experiment harness knows is a named factory keyed by
// a *spec string* in the grammar of common/spec.hpp, e.g.
// "stride:table=256,degree=4", "dart:variant=l,threshold=0.6" or
// "transfetch:ideal". Every spec also accepts `label=<name>` to override the
// display name. Legacy display names ("DART-S", "TransFetch-I") are
// registered as aliases that imply the matching parameters, so every spec
// the old hard-coded driver accepted still works.
//
// Factories receive a `PrefetcherContext` that lends them *lazy* access to
// trained pipeline artifacts (attention teacher, LSTM baseline, tabularized
// DART predictor). Rule-based prefetchers ignore the context entirely, so
// they can be built with the context-free `make_prefetcher(spec)` overload.
//
// Adding a scenario is now a registry entry plus a spec string — never an
// edit to the evaluation driver.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/spec.hpp"
#include "sim/prefetcher.hpp"
#include "tabular/quant.hpp"
#include "trace/preprocess.hpp"

namespace dart::nn {
class AddressPredictor;
class LstmPredictor;
}  // namespace dart::nn
namespace dart::tabular {
class TabularPredictor;
}  // namespace dart::tabular

namespace dart::sim {

/// Request for a tabularized DART predictor, as expressed in a spec
/// ("dart:variant=s", optionally with table overrides).
struct DartModelRequest {
  std::string variant = "default";  ///< "s" | "default" | "l"
  std::size_t table_k = 0;          ///< 0 = variant default
  std::size_t table_c = 0;          ///< 0 = variant default
  /// Table-quantization mode to serve under (DESIGN.md §10). Applied after
  /// training/loading — artifacts are cached float and stay shareable
  /// across modes.
  tabular::QuantMode quant = tabular::QuantMode::kOff;
};

/// A trained tabular predictor plus its analytic cost-model latency.
struct DartModel {
  std::shared_ptr<const tabular::TabularPredictor> predictor;  ///< shared, immutable
  std::size_t latency_cycles = 0;      ///< Eq. 22 prediction latency
  std::string display_name = "DART";   ///< Table VIII variant name
};

/// Lends factories lazy, shared access to trained pipeline artifacts. The
/// providers are std::functions so the owner (core::ExperimentRunner, a
/// test, a custom harness) decides where models come from and how training
/// is synchronized; factories that need a missing provider throw.
struct PrefetcherContext {
  trace::PreprocessOptions prep;       ///< must match the training pipeline
  std::size_t degree = 16;             ///< default max predictions/trigger
  std::size_t nn_trigger_sample = 1;   ///< default NN-baseline sampling
  /// Directory where the owning harness caches trained artifacts (`.dart`
  /// files, NN checkpoints) — see core/artifact_cache.hpp. Informational
  /// for factories; providers below are expected to consult it themselves.
  /// Empty when caching is disabled.
  std::string artifact_dir;

  /// Lazily trains/loads the attention teacher shared by this app's cells.
  /// Adapters only call its const `infer`, so cells may share it freely.
  std::function<std::shared_ptr<const nn::AddressPredictor>()> attention_model;
  /// Lazily trains/loads the Voyager-like LSTM baseline (shared the same way).
  std::function<std::shared_ptr<const nn::LstmPredictor>()> lstm_model;
  /// Lazily trains/loads the tabularized DART predictor for a request.
  std::function<DartModel(const DartModelRequest&)> dart_model;
};

/// Thrown by a factory whose context lacks the trained-model provider it
/// needs (`make_prefetcher(spec)` on "dart", say).
struct MissingModelError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Constructs a prefetcher from its resolved spec, borrowing trained
/// artifacts from the context. Factories must consume every parameter they
/// honor via the common::Spec getters (unconsumed keys are rejected).
using PrefetcherFactory =
    std::function<std::unique_ptr<Prefetcher>(common::Spec&, PrefetcherContext&)>;

/// Process-wide name -> factory map behind every prefetcher the experiment
/// harness can build (DESIGN.md §4). Adding a scenario is one `add()` call
/// (from any linked translation unit) plus a spec string — the evaluation
/// driver never changes. Thread-safe; alias entries expand legacy display
/// names ("DART-S", "TransFetch-I") into parameterized specs.
class PrefetcherRegistry {
 public:
  /// Process-wide registry with the built-in factories pre-installed.
  static PrefetcherRegistry& instance();

  /// Registers `factory` under (case-insensitive) `name`.
  void add(const std::string& name, PrefetcherFactory factory);
  /// Registers `alias` to construct `target` with `implied` parameter
  /// defaults (e.g. "TransFetch-I" -> "transfetch" + ideal=1).
  void add_alias(const std::string& alias, const std::string& target,
                 const std::map<std::string, std::string>& implied = {});

  /// Parses `spec_text` and expands an alias into its target name plus the
  /// parameters it implies ("DART-S" -> "dart:variant=s"). Throws
  /// std::invalid_argument when the spec is malformed or names an
  /// unregistered prefetcher.
  common::Spec resolve(const std::string& spec_text) const;

  /// Resolves `spec_text`, runs the factory and rejects unconsumed
  /// parameters with std::invalid_argument. A `label=<name>` parameter
  /// overrides the constructed prefetcher's display name (for sweeps).
  std::unique_ptr<Prefetcher> make(const std::string& spec_text,
                                   PrefetcherContext& context) const;

  /// Throws std::invalid_argument when `spec_text` would not build: it is
  /// malformed, names an unregistered prefetcher, or (for specs that need
  /// no trained model) carries a bad or unknown parameter. Builds the
  /// prefetcher once without a context; model-backed specs are checked up
  /// to their missing model.
  void validate(const std::string& spec_text) const;

  bool contains(const std::string& name) const;
  /// All registered names and aliases, sorted.
  std::vector<std::string> known_names() const;

 private:
  struct Alias {
    std::string target;
    std::map<std::string, std::string> implied;
  };

  mutable std::mutex mu_;
  std::map<std::string, PrefetcherFactory> factories_;
  std::map<std::string, Alias> aliases_;
};

/// Convenience: PrefetcherRegistry::instance().make(spec, context).
std::unique_ptr<Prefetcher> make_prefetcher(const std::string& spec_text,
                                            PrefetcherContext& context);
/// Context-free overload for prefetchers that need no trained artifacts.
std::unique_ptr<Prefetcher> make_prefetcher(const std::string& spec_text);

// Built-in factory packs, installed by instance() on first use. Defined
// next to the prefetchers they wrap (src/prefetch/rule_based.cpp and
// src/core/registry_entries.cpp); the whole project links as one library,
// so the cross-directory definition is resolved at link time.

/// Installs the rule-based pack: nextline, stride, bo, isb (+ aliases).
void register_rule_based_prefetchers(PrefetcherRegistry& registry);
/// Installs the model-backed pack: transfetch, voyager, dart (+ "-I"/"-S"/
/// "-L" aliases) and dart-artifact (serve a `.dart` file, training-free).
void register_model_backed_prefetchers(PrefetcherRegistry& registry);

}  // namespace dart::sim

// Shared driver for the Figs. 12/13/14 bench binaries: one full
// (app x prefetcher) ExperimentRunner sweep, persisted in a result store so
// the three binaries (run alphabetically by the bench loop) compute it
// only once.
#pragma once

#include <string>

#include "core/experiment.hpp"

namespace dart::bench {

/// Runs the sweep against the result store in "prefetch_sweep_store":
/// cells already committed under the current knobs are reused, the rest
/// are simulated and committed.
core::ExperimentResult cached_prefetch_sweep();

/// Prints the per-app + mean table for one metric ("accuracy", "coverage",
/// or "ipc") and writes `csv_name`.
void print_metric_table(const core::ExperimentResult& result, const std::string& metric,
                        const std::string& title, const std::string& csv_name);

}  // namespace dart::bench

// Environment-variable driven scaling knobs for benches and examples.
//
// Defaults are chosen so the full bench suite completes in minutes; paper-
// scale runs only need larger values, never code changes (see DESIGN.md §5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dart::common {

/// Reads an integer env var, returning `fallback` when unset or malformed.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// Reads a double env var, returning `fallback` when unset or malformed.
double env_double(const char* name, double fallback);

/// Reads a string env var, returning `fallback` when unset or empty.
std::string env_string(const char* name, const std::string& fallback);

/// Reads a name list split by common::split_spec_list; empty when unset.
std::vector<std::string> env_list(const char* name);

}  // namespace dart::common

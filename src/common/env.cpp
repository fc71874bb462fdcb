#include "common/env.hpp"

#include <cstdlib>

#include "common/spec.hpp"

namespace dart::common {

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

std::vector<std::string> env_list(const char* name) {
  return split_spec_list(env_string(name, ""));
}

}  // namespace dart::common

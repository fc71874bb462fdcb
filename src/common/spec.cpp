#include "common/spec.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace dart::common {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

std::optional<std::uint64_t> parse_uint(const std::string& text) {
  std::string digits = text;
  std::uint64_t scale = 1;
  if (!digits.empty()) {
    switch (std::tolower(static_cast<unsigned char>(digits.back()))) {
      case 'k': scale = 1ULL << 10; digits.pop_back(); break;
      case 'm': scale = 1ULL << 20; digits.pop_back(); break;
      case 'g': scale = 1ULL << 30; digits.pop_back(); break;
      default: break;
    }
  }
  if (digits.empty()) return std::nullopt;
  constexpr std::uint64_t kMax = ~0ULL;
  std::uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (kMax - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  if (v > kMax / scale) return std::nullopt;
  return v * scale;
}

std::vector<std::string> split_spec_list(const std::string& text) {
  const char delim = text.find_first_of(";:=") == std::string::npos ? ',' : ';';
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(delim, start);
    if (end == std::string::npos) end = text.size();
    std::string item = trim(text.substr(start, end - start));
    if (!item.empty()) out.push_back(std::move(item));
    start = end + 1;
  }
  return out;
}

Spec Spec::parse(const std::string& text, const Grammar& grammar) {
  Spec spec;
  spec.grammar_ = grammar;
  spec.text_ = trim(text);
  const std::size_t head = spec.text_.find(grammar.head);
  spec.name_ = lower(trim(spec.text_.substr(0, head)));
  if (spec.name_.empty()) spec.fail("empty name");
  if (head == std::string::npos) return spec;

  std::size_t p = head + 1;
  while (p <= spec.text_.size()) {
    std::size_t q = spec.text_.find(',', p);
    if (q == std::string::npos) q = spec.text_.size();
    const std::string param = trim(spec.text_.substr(p, q - p));
    p = q + 1;
    if (param.empty()) continue;
    const std::size_t eq = param.find('=');
    const std::string key = lower(trim(param.substr(0, eq)));
    if (key.empty()) spec.fail("parameter '" + param + "' has an empty key");
    const std::string value = eq == std::string::npos ? "1" : trim(param.substr(eq + 1));
    if (value.empty()) spec.fail("parameter '" + key + "' has an empty value");
    if (!spec.params_.emplace(key, value).second) {
      spec.fail("parameter '" + key + "' is given twice");
    }
    if (eq == std::string::npos) spec.flags_.insert(key);
  }
  return spec;
}

void Spec::set_name(const std::string& name) { name_ = lower(name); }

void Spec::fail(const std::string& what) const {
  throw std::invalid_argument(std::string(grammar_.name) + " '" + text_ + "': " + what);
}

bool Spec::has(const std::string& key) const { return params_.count(lower(key)) != 0; }

const std::string* Spec::value_of(const std::string& key) {
  const std::string k = lower(key);
  used_.insert(k);
  const auto it = params_.find(k);
  if (it == params_.end()) return nullptr;
  if (flags_.count(k) != 0) fail("parameter '" + k + "' needs a value");
  return &it->second;
}

std::string Spec::get_string(const std::string& key, const std::string& fallback) {
  const std::string* v = value_of(key);
  return v == nullptr ? fallback : *v;
}

std::uint64_t Spec::get_uint(const std::string& key, std::uint64_t fallback) {
  const std::string* v = value_of(key);
  if (v == nullptr) return fallback;
  const std::optional<std::uint64_t> parsed = parse_uint(*v);
  if (!parsed) {
    fail("parameter '" + lower(key) + "' expects an unsigned integer (optional K/M/G suffix), " +
         "got '" + *v + "'");
  }
  return *parsed;
}

double Spec::get_double(const std::string& key, double fallback) {
  const std::string* v = value_of(key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end != v->c_str() + v->size() || !std::isfinite(parsed)) {
    fail("parameter '" + lower(key) + "' expects a finite number, got '" + *v + "'");
  }
  return parsed;
}

bool Spec::get_flag(const std::string& key, bool fallback) {
  const std::string k = lower(key);
  used_.insert(k);
  const auto it = params_.find(k);
  if (it == params_.end()) return fallback;
  const std::string v = lower(it->second);
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  fail("parameter '" + k + "' expects a boolean, got '" + it->second + "'");
}

void Spec::require(std::initializer_list<const char*> keys) const {
  for (const char* key : keys) {
    if (!has(key)) fail("missing required parameter '" + std::string(key) + "'");
  }
}

void Spec::set_default(const std::string& key, const std::string& value) {
  params_.emplace(lower(key), value);
}

std::vector<std::string> Spec::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : params_) {
    if (used_.count(key) == 0) out.push_back(key);
  }
  return out;
}

void Spec::reject_unused() const {
  std::string keys;
  for (const std::string& k : unused_keys()) keys += (keys.empty() ? "" : ", ") + k;
  if (!keys.empty()) fail("unknown parameter(s): " + keys);
}

std::string Spec::canonical() const {
  std::string out = name_;
  char sep = grammar_.head;
  for (const auto& [key, value] : params_) {  // std::map: already key-sorted
    out += sep;
    out += key + "=" + value;
    sep = ',';
  }
  return out;
}

}  // namespace dart::common

// The one spec grammar (DESIGN.md §4). Prefetcher specs, workload specs and
// DART_FAULT clauses are all written as
//
//     spec   := name [head param ("," param)*]
//     param  := key "=" value | flag
//     list   := spec (";" spec)*
//
// e.g. "stride:table=256,degree=4", "zipfian,theta=0.99,footprint=64M"
// (after `trace:`) or "slow-shard:shard=0,us=5000". Only the head
// separator differs between grammars (`:`, or `,` for workload families),
// and it is fixed per grammar, never chosen by the user.
//
// The rules, the same for every grammar:
//   - whitespace around names, keys and values is trimmed; names and keys
//     are lowercased, values are kept verbatim;
//   - an empty name, an empty key, an empty value or a duplicate key is
//     rejected;
//   - a bare flag means `flag=1`, but only a flag getter may read it, so
//     "stride:degree" is rejected while "transfetch:ideal" is not;
//   - an unsigned value is decimal digits with an optional K/M/G (2^10,
//     2^20, 2^30) suffix; a sign or an overflow is rejected; a real value
//     must be a finite number;
//   - a key no getter consumed is rejected by `reject_unused`.
// Every violation throws std::invalid_argument naming the grammar, the
// spec text and the key.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace dart::common {

/// What distinguishes one spec grammar from another: the name errors
/// report and the separator between the spec's name and its parameters.
struct Grammar {
  const char* name;
  char head;
};

inline constexpr Grammar kPrefetcherGrammar{"prefetcher spec", ':'};
/// A synthetic workload family, the text after `trace:`.
inline constexpr Grammar kWorkloadGrammar{"workload spec", ','};
/// `tracefile:path=...` workloads.
inline constexpr Grammar kTraceFileGrammar{"workload spec", ':'};
/// One `DART_FAULT` clause (common/fault.hpp).
inline constexpr Grammar kFaultGrammar{"DART_FAULT", ':'};

/// A parsed spec. Getters record which keys were consumed, so the owner can
/// reject typos with `reject_unused` once every consumer has read its keys.
class Spec {
 public:
  /// Parses `text` under `grammar`; throws std::invalid_argument on any
  /// rule in the header comment.
  static Spec parse(const std::string& text, const Grammar& grammar);

  /// The lowercased name the spec opens with.
  const std::string& name() const { return name_; }
  /// The trimmed spec text as supplied.
  const std::string& text() const { return text_; }
  /// Renames the spec (alias expansion: "dart-s" -> "dart").
  void set_name(const std::string& name);

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key, const std::string& fallback);
  /// Unsigned with an optional K/M/G suffix; see `parse_uint`.
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback);
  /// A finite decimal number.
  double get_double(const std::string& key, double fallback);
  /// Bare flags and 1/true/yes/on are true; 0/false/no/off are false.
  bool get_flag(const std::string& key, bool fallback = false);
  /// Throws unless every key in `keys` is present.
  void require(std::initializer_list<const char*> keys) const;

  /// Installs a parameter unless the spec already sets it (alias defaults).
  void set_default(const std::string& key, const std::string& value);
  /// Keys present in the spec that no getter consumed, sorted.
  std::vector<std::string> unused_keys() const;
  /// Throws when `unused_keys` is not empty.
  void reject_unused() const;

  /// "name<head>k=v,..." with keys sorted and flags written as `k=1`.
  /// Parsing it under the same grammar yields a spec with the same name
  /// and parameters, so equal canonical forms mean equal specs.
  std::string canonical() const;

  /// Throws std::invalid_argument("<grammar> '<text>': <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  /// The value of `key`, marking it consumed; nullptr when absent. Throws
  /// when the key was given as a bare flag.
  const std::string* value_of(const std::string& key);

  Grammar grammar_ = kPrefetcherGrammar;
  std::string text_;
  std::string name_;
  std::map<std::string, std::string> params_;
  std::set<std::string> flags_;  ///< keys given without "=value"
  std::set<std::string> used_;
};

/// Splits a user-facing spec list (DART_PREFETCHERS, DART_WORKLOADS,
/// DART_FAULT, CLI arguments) into trimmed, non-empty items. `;` always
/// separates; `,` also separates when the text has none of `;:=`, so plain
/// name lists such as "BO,ISB,DART" keep working.
std::vector<std::string> split_spec_list(const std::string& text);

/// Decimal digits with an optional K/M/G suffix (case-insensitive); nullopt
/// on an empty string, a sign, any other character or a value above 2^64-1.
std::optional<std::uint64_t> parse_uint(const std::string& text);

/// `s` without leading and trailing whitespace.
std::string trim(const std::string& s);
/// `s` with ASCII letters lowercased.
std::string lower(std::string s);

}  // namespace dart::common

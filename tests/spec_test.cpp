// Tests for the one spec grammar (common/spec.hpp, DESIGN.md §4) across its
// three consumers: prefetcher specs (sim::PrefetcherRegistry), workload
// specs (trace::Workload) and DART_FAULT clauses (common::FaultInjector).
// Covers the shared rules row by row, pins the canonical form and display
// name of every documented example spec (they are cache keys), and mutates
// a pinned corpus to check that malformed text only ever parses or throws
// std::invalid_argument.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.hpp"
#include "common/rng.hpp"
#include "common/spec.hpp"
#include "nn/lstm.hpp"
#include "nn/transformer.hpp"
#include "sim/registry.hpp"
#include "trace/workloads.hpp"

namespace dart {
namespace {

using common::Spec;

enum class Consumer { kPrefetcher, kWorkload, kFault };

/// Runs `text` through the full consumer path of its grammar; throws what
/// the consumer throws.
void consume(Consumer consumer, const std::string& text) {
  switch (consumer) {
    case Consumer::kPrefetcher:
      sim::PrefetcherRegistry::instance().validate(text);
      break;
    case Consumer::kWorkload:
      trace::Workload::parse(text);
      break;
    case Consumer::kFault: {
      common::FaultInjector injector;
      injector.install(text);
      break;
    }
  }
}

// ------------------------------------------------------------------ rules

TEST(SpecGrammar, OneSetOfRulesForAllThreeGrammars) {
  struct Row {
    Consumer consumer;
    const char* text;
    bool accepted;
  };
  const std::vector<Row> rows = {
      // A negative or overflowing unsigned value.
      {Consumer::kWorkload, "trace:zipfian,footprint=-1M", false},
      {Consumer::kWorkload, "trace:zipfian,footprint=99999999999G", false},
      {Consumer::kWorkload, "trace:zipfian,footprint=+64M", false},
      {Consumer::kPrefetcher, "nextline:degree=-1", false},
      {Consumer::kPrefetcher, "stride:table=18446744073709551616", false},
      {Consumer::kFault, "slow-shard:shard=0,us=-1", false},
      {Consumer::kFault, "stall-shard:shard=99999999999999999999", false},
      // An empty value (it never means "use the default").
      {Consumer::kWorkload, "trace:zipfian,theta=", false},
      {Consumer::kPrefetcher, "stride:table=", false},
      {Consumer::kFault, "slow-shard:shard=0,us=", false},
      // An empty key.
      {Consumer::kWorkload, "trace:zipfian,=0.9", false},
      {Consumer::kPrefetcher, "stride:=2", false},
      {Consumer::kFault, "slow-shard:=3", false},
      // An empty name.
      {Consumer::kWorkload, "trace:,theta=0.9", false},
      {Consumer::kPrefetcher, ":degree=2", false},
      {Consumer::kFault, ":p=1", false},
      // A duplicate key, also after lowercasing.
      {Consumer::kWorkload, "trace:zipfian,theta=0.5,theta=0.6", false},
      {Consumer::kPrefetcher, "stride:table=64,Table=128", false},
      {Consumer::kFault, "slow-shard:shard=0,us=1,us=2", false},
      // A bare flag only where it is read as a flag.
      {Consumer::kWorkload, "trace:sequential,stride", false},
      {Consumer::kPrefetcher, "stride:degree", false},
      {Consumer::kFault, "slow-shard:shard,us=1", false},
      {Consumer::kFault, "crash-after-commit:after=1,hard", true},
      // A non-finite number.
      {Consumer::kWorkload, "trace:zipfian,theta=nan", false},
      {Consumer::kFault, "drop-wake:p=nan", false},
      // An unknown key.
      {Consumer::kWorkload, "trace:zipfian,thetta=0.9", false},
      {Consumer::kPrefetcher, "stride:tabel=64", false},
      {Consumer::kFault, "slow-shard:shard=0,us=1,wat=2", false},
      // Well-formed specs, size suffixes on every unsigned key included.
      {Consumer::kWorkload, " trace:Zipfian , Theta=0.5 , footprint=1m ", true},
      {Consumer::kPrefetcher, "Stride: table=1K , degree=4", true},
      {Consumer::kPrefetcher, "DART-S:threshold=0.6", true},
      {Consumer::kFault, "slow-cell:match=ISB,ms=1k,times=2", true},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.text);
    if (row.accepted) {
      EXPECT_NO_THROW(consume(row.consumer, row.text));
    } else {
      EXPECT_THROW(consume(row.consumer, row.text), std::invalid_argument);
    }
  }
}

TEST(SpecGrammar, ErrorsNameTheGrammarTheTextAndTheKey) {
  try {
    trace::Workload::parse("trace:zipfian,footprint=-1M");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("workload spec"), std::string::npos) << msg;
    EXPECT_NE(msg.find("zipfian,footprint=-1M"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'footprint'"), std::string::npos) << msg;
  }
  try {
    common::FaultInjector injector;
    injector.install("slow-shard:shard=0,us=-1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("DART_FAULT"), std::string::npos) << msg;
    EXPECT_NE(msg.find("slow-shard:shard=0,us=-1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'us'"), std::string::npos) << msg;
  }
}

TEST(SpecGrammar, ParseUintTakesSuffixesAndRejectsSignsAndOverflow) {
  EXPECT_EQ(common::parse_uint("0"), 0u);
  EXPECT_EQ(common::parse_uint("4k"), 4096u);
  EXPECT_EQ(common::parse_uint("3M"), 3ULL << 20);
  EXPECT_EQ(common::parse_uint("18446744073709551615"), ~0ULL);
  EXPECT_EQ(common::parse_uint("17179869183G"), 17179869183ULL << 30);
  for (const char* bad : {"", "K", "-1", "+1", " 1", "1.5", "0x10", "18446744073709551616",
                          "17179869184G", "1KB"}) {
    EXPECT_FALSE(common::parse_uint(bad).has_value()) << bad;
  }
}

TEST(SpecGrammar, ResolveExpandsAliasesOnce) {
  const auto& registry = sim::PrefetcherRegistry::instance();
  EXPECT_EQ(registry.resolve("DART-S").canonical(), "dart:variant=s");
  EXPECT_EQ(registry.resolve("DART-L:variant=s").canonical(), "dart:variant=s");  // user wins
  EXPECT_EQ(registry.resolve("TransFetch-I:label=x").canonical(), "transfetch:ideal=1,label=x");
  EXPECT_THROW(registry.resolve("nosuch"), std::invalid_argument);
}

// ------------------------------------------------------- canonical forms

/// A context lending tiny untrained NN baselines, enough to build the
/// model-backed specs whose display name depends on their parameters.
sim::PrefetcherContext tiny_nn_context() {
  sim::PrefetcherContext ctx;
  ctx.prep.history = 4;
  ctx.prep.addr_segments = 4;
  ctx.prep.pc_segments = 4;
  ctx.prep.bitmap_size = 64;
  nn::ModelConfig arch;
  arch.seq_len = 4;
  arch.addr_dim = 4;
  arch.pc_dim = 4;
  arch.dim = 8;
  arch.ffn_dim = 16;
  arch.out_dim = 64;
  arch.heads = 2;
  arch.layers = 1;
  auto attention = std::make_shared<const nn::AddressPredictor>(arch, 3);
  auto lstm = std::make_shared<const nn::LstmPredictor>(4, 4, 8, 64, 4);
  ctx.attention_model = [attention] { return attention; };
  ctx.lstm_model = [lstm] { return lstm; };
  return ctx;
}

TEST(SpecGrammar, DocumentedExamplesKeepTheirCanonicalForms) {
  // Prefetcher examples from README.md, DESIGN.md and sim/registry.hpp:
  // text -> canonical spec and display name ("" = needs a trained DART).
  struct PrefetcherPin {
    const char* text;
    const char* canonical;
    const char* name;
  };
  const std::vector<PrefetcherPin> prefetchers = {
      {"stride:table=512,degree=4", "stride:degree=4,table=512", "Stride"},
      {"dart:variant=l,threshold=0.6", "dart:threshold=0.6,variant=l", ""},
      {"dart-artifact:file=m.dart", "dart-artifact:file=m.dart", ""},
      {"bo", "bo", "BO"},
      {"BO", "bo", "BO"},
      {"ISB", "isb", "ISB"},
      {"nextline", "nextline", "NextLine"},
      {"stride:table=128", "stride:table=128", "Stride"},
      {"stride:table=256,degree=4", "stride:degree=4,table=256", "Stride"},
      {"stride:table=1024,label=Stride-1K", "stride:label=Stride-1K,table=1024", "Stride-1K"},
      {"dart:variant=l", "dart:variant=l", ""},
      {"DART-S", "dart-s", ""},
      {"transfetch:ideal", "transfetch:ideal=1", "TransFetch-I"},
      {"TransFetch-I", "transfetch-i", "TransFetch-I"},
      {"Voyager", "voyager", "Voyager"},
  };
  sim::PrefetcherContext ctx = tiny_nn_context();
  for (const PrefetcherPin& pin : prefetchers) {
    SCOPED_TRACE(pin.text);
    EXPECT_EQ(Spec::parse(pin.text, common::kPrefetcherGrammar).canonical(), pin.canonical);
    if (*pin.name != '\0') EXPECT_EQ(sim::make_prefetcher(pin.text, ctx)->name(), pin.name);
  }

  // Workload examples from README.md, DESIGN.md, trace/workloads.hpp, the
  // CI sweep job and the two perfbench `trace:` specs: text -> spec(), name().
  struct WorkloadPin {
    const char* text;
    const char* spec;
    const char* name;
  };
  const std::vector<WorkloadPin> workloads = {
      {"trace:zipfian,footprint=64M", "trace:zipfian,footprint=64M", "zipfian"},
      {"trace:ycsb-b,footprint=64M", "trace:ycsb-b,footprint=64M", "ycsb-b"},
      {"trace:zipfian,footprint=64M,theta=0.99", "trace:zipfian,footprint=64M,theta=0.99",
       "zipfian"},
      {"trace:zipfian,theta=0.9", "trace:zipfian,theta=0.9", "zipfian"},
      {"ycsb-b", "trace:ycsb-b", "ycsb-b"},
      {"trace:zipfian,theta=0.99,footprint=1G", "trace:zipfian,footprint=1G,theta=0.99",
       "zipfian"},
      {"trace:zipfian,theta=0.99,footprint=1G,seed=42",
       "trace:zipfian,footprint=1G,seed=42,theta=0.99", "zipfian"},
      {"trace:zipfian,theta=0.99,footprint=64M,layout=hash,seed=42",
       "trace:zipfian,footprint=64M,layout=hash,seed=42,theta=0.99", "zipfian"},
      {"trace:ycsb-b,footprint=256M", "trace:ycsb-b,footprint=256M", "ycsb-b"},
      {"trace:ycsb-b,footprint=1G", "trace:ycsb-b,footprint=1G", "ycsb-b"},
      {"trace:sequential,footprint=1M,stride=4", "trace:sequential,footprint=1M,stride=4",
       "sequential"},
      {"trace:uniform,footprint=1M", "trace:uniform,footprint=1M", "uniform"},
      {"tracefile:path=ycsb-b.dtrc", "tracefile:path=ycsb-b.dtrc", "ycsb-b"},
      {"tracefile:path=capture.dtrc,label=prod", "tracefile:label=prod,path=capture.dtrc",
       "prod"},
      {"tracefile:path=traces/gcc.dtrc", "tracefile:path=traces/gcc.dtrc", "gcc"},
      {"605.mcf", "605.mcf", "605.mcf"},
      {"mcf", "605.mcf", "605.mcf"},
  };
  for (const WorkloadPin& pin : workloads) {
    SCOPED_TRACE(pin.text);
    const trace::Workload w = trace::Workload::parse(pin.text);
    EXPECT_EQ(w.spec(), pin.spec);
    EXPECT_EQ(w.name(), pin.name);
  }
}

// -------------------------------------------------------------- mutation

/// One spec per registry name and alias, workload family and fault kind;
/// `CorpusCoversEveryName` below keeps it complete.
const std::vector<std::string>& prefetcher_corpus() {
  static const std::vector<std::string> corpus = {
      "nextline:degree=2",
      "stride:table=256,degree=2,label=S",
      "bo:rr=256,score_max=31,round_max=100,bad_score=1,max_offset=128,degree=1,latency=60",
      "isb:mappings=4K,degree=2,granularity=256,latency=30",
      "transfetch:ideal,latency=4500,threshold=0.5,degree=4,sample=2,ii=1",
      "transfetch-i:threshold=0.5",
      "voyager:ideal=0,latency=27700,sample=8",
      "voyager-i:degree=4",
      "dart:variant=l,tables=16,codebooks=2,quant=int8,threshold=0.6",
      "dart-s:latency=97",
      "dart-l:quant=off",
      "dart-artifact:file=m.dart,quant=int16,degree=4",
  };
  return corpus;
}

const std::vector<std::string>& workload_corpus() {
  static const std::vector<std::string> corpus = {
      "trace:zipfian,theta=0.99,footprint=64M,layout=hash,seed=42",
      "trace:scrambled,theta=0.9,footprint=1M,write=0.1",
      "trace:scrambled-zipfian,footprint=4K",
      "trace:latest,theta=0.5,footprint=16K,layout=chase",
      "trace:exponential,mean=100,footprint=64K,layout=btree",
      "trace:uniform,footprint=1M,layout=graph,label=u",
      "trace:sequential,footprint=1M,stride=4",
      "trace:ycsb-a,footprint=64M",
      "trace:ycsb-b,footprint=64M,theta=0.9",
      "trace:ycsb-c,layout=direct",
      "trace:ycsb-d,footprint=1G",
      "trace:ycsb-e,scan=16,footprint=8M",
      "trace:ycsb-f,seed=7",
      "tracefile:path=capture.dtrc,label=prod",
      "605.mcf",
  };
  return corpus;
}

const std::vector<std::string>& fault_corpus() {
  static const std::vector<std::string> corpus = {
      "slow-shard:shard=1,us=5000,batches=3",
      "stall-shard:shard=0,after=2",
      "drop-wake:p=0.5,seed=42",
      "reject-submit:p=0.25,seed=1,shard=0",
      "corrupt-artifact:offset=16,count=2",
      "truncate-artifact:bytes=8,count=1",
      "fail-cell:match=sequential|BO,times=1",
      "slow-cell:match=ISB,ms=400,times=2",
      "corrupt-store-tail:bytes=5,count=1",
      "crash-after-commit:after=2,hard=1",
  };
  return corpus;
}

TEST(SpecGrammar, CorpusCoversEveryName) {
  std::vector<std::string> names;
  for (const std::string& s : prefetcher_corpus()) {
    names.push_back(Spec::parse(s, common::kPrefetcherGrammar).name());
  }
  for (const std::string& known : sim::PrefetcherRegistry::instance().known_names()) {
    EXPECT_NE(std::find(names.begin(), names.end(), known), names.end()) << known;
  }
  std::vector<std::string> families;
  for (const std::string& s : workload_corpus()) {
    if (s.rfind("trace:", 0) == 0) {
      families.push_back(Spec::parse(s.substr(6), common::kWorkloadGrammar).name());
    }
  }
  for (const std::string& known : trace::Workload::known_families()) {
    EXPECT_NE(std::find(families.begin(), families.end(), known), families.end()) << known;
  }
  // Every fault kind in the corpus installs as written.
  common::FaultInjector injector;
  for (const std::string& s : fault_corpus()) EXPECT_NO_THROW(injector.install(s)) << s;
}

/// One deterministic edit: delete, insert, replace or duplicate bytes,
/// favouring the characters the grammar gives meaning to.
std::string mutate(std::string s, common::Rng& rng) {
  static const std::string kAlphabet = ":,;= \t-+.0123456789kKmMgGxe";
  const auto pick = [&] { return kAlphabet[rng.below(kAlphabet.size())]; };
  const auto at = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.below(s.size() + extra));
  };
  switch (rng.below(5)) {
    case 0:
      if (!s.empty()) s.erase(at(0), 1);
      break;
    case 1:
      s.insert(at(1), 1, pick());
      break;
    case 2:
      if (!s.empty()) s[at(0)] = pick();
      break;
    case 3: {  // duplicate a slice somewhere else (duplicate keys, lists)
      const std::size_t from = at(1);
      const std::string slice = s.substr(from, 1 + rng.below(12));
      s.insert(at(1), slice);
      break;
    }
    default:
      if (!s.empty()) s.erase(at(0), 1 + rng.below(4));
      break;
  }
  return s;
}

TEST(SpecGrammar, MutatedCorpusParsesOrThrowsInvalidArgument) {
  constexpr std::size_t kMutantsPerSpec = 200;
  common::Rng rng(0x5bec);
  const auto& registry = sim::PrefetcherRegistry::instance();
  std::size_t accepted = 0, rejected = 0;

  // `check` runs a mutant through its consumer; on acceptance, `round_trip`
  // checks that the canonical form parses back to an equal spec.
  const auto run = [&](const std::vector<std::string>& corpus, auto check, auto round_trip) {
    for (const std::string& seed : corpus) {
      for (std::size_t i = 0; i < kMutantsPerSpec; ++i) {
        std::string text = seed;
        for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) text = mutate(text, rng);
        bool ok = false;
        try {
          check(text);
          ok = true;
        } catch (const std::invalid_argument&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << "'" << text << "' threw a non-grammar error: " << e.what();
        }
        if (ok) {
          ++accepted;
          round_trip(text);
        }
      }
    }
  };

  run(
      prefetcher_corpus(), [&](const std::string& t) { registry.resolve(t); },
      [&](const std::string& t) {
        const std::string canonical = registry.resolve(t).canonical();
        EXPECT_EQ(registry.resolve(canonical).canonical(), canonical) << t;
      });
  run(
      workload_corpus(), [](const std::string& t) { trace::Workload::parse(t); },
      [](const std::string& t) {
        const trace::Workload w = trace::Workload::parse(t);
        const trace::Workload again = trace::Workload::parse(w.spec());
        EXPECT_EQ(again.spec(), w.spec()) << t;
        EXPECT_EQ(again.name(), w.name()) << t;
      });
  common::FaultInjector injector;
  run(
      fault_corpus(), [&](const std::string& t) { injector.install(t); },
      [&](const std::string& t) {
        std::string canonical;
        for (const std::string& clause : common::split_spec_list(t)) {
          const std::string once = Spec::parse(clause, common::kFaultGrammar).canonical();
          EXPECT_EQ(Spec::parse(once, common::kFaultGrammar).canonical(), once) << t;
          canonical += once + ";";
        }
        EXPECT_NO_THROW(injector.install(canonical)) << t << " -> " << canonical;
      });

  // The mutations must exercise both outcomes to mean anything.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace dart

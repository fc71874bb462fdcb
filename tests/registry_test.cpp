// Tests for the prefetcher registry / spec-string API and the
// ExperimentRunner grid harness (DESIGN.md §4).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/spec.hpp"
#include "core/configs.hpp"
#include "core/experiment.hpp"
#include "sim/registry.hpp"

namespace dart {
namespace {

// ----------------------------------------------------------- spec parsing

common::Spec pf_spec(const std::string& text) {
  return common::Spec::parse(text, common::kPrefetcherGrammar);
}

TEST(PrefetcherSpec, ParsesNameAndParams) {
  auto spec = pf_spec("stride:table=256,degree=4");
  EXPECT_EQ(spec.name(), "stride");
  EXPECT_EQ(spec.get_uint("table", 0), 256u);
  EXPECT_EQ(spec.get_uint("degree", 0), 4u);
  EXPECT_TRUE(spec.unused_keys().empty());
}

TEST(PrefetcherSpec, DefaultsFlagsAndCase) {
  auto spec = pf_spec("TransFetch: Ideal , Threshold=0.6");
  EXPECT_EQ(spec.name(), "transfetch");  // names are case-insensitive
  EXPECT_TRUE(spec.get_flag("ideal"));   // bare token = boolean flag
  EXPECT_DOUBLE_EQ(spec.get_double("threshold", 0.5), 0.6);
  EXPECT_EQ(spec.get_uint("latency", 4500), 4500u);  // absent -> fallback
  EXPECT_FALSE(spec.get_flag("missing", false));
}

TEST(PrefetcherSpec, CanonicalRoundTrips) {
  auto spec = pf_spec("dart:variant=l,threshold=0.6,degree=32");
  const std::string canonical = spec.canonical();
  auto reparsed = pf_spec(canonical);
  EXPECT_EQ(reparsed.name(), spec.name());
  EXPECT_EQ(reparsed.canonical(), canonical);
  EXPECT_EQ(reparsed.get_string("variant", ""), "l");
  EXPECT_EQ(reparsed.get_uint("degree", 0), 32u);
}

TEST(PrefetcherSpec, RejectsMalformedValues) {
  auto spec = pf_spec("stride:table=abc");
  EXPECT_THROW(spec.get_uint("table", 0), std::invalid_argument);
  auto negative = pf_spec("nextline:degree=-1");
  EXPECT_THROW(negative.get_uint("degree", 0), std::invalid_argument);
  EXPECT_THROW(pf_spec(":degree=2"), std::invalid_argument);
  EXPECT_THROW(pf_spec("stride:=2"), std::invalid_argument);
}

TEST(PrefetcherSpec, TracksUnusedKeys) {
  auto spec = pf_spec("stride:table=64,bogus=1");
  spec.get_uint("table", 0);
  const auto unused = spec.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "bogus");
}

// -------------------------------------------------------------- registry

TEST(PrefetcherRegistry, UnknownNameListsKnownPrefetchers) {
  try {
    sim::make_prefetcher("nosuchprefetcher");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nosuchprefetcher"), std::string::npos);
    EXPECT_NE(msg.find("stride"), std::string::npos);
    EXPECT_NE(msg.find("dart"), std::string::npos);
  }
}

TEST(PrefetcherRegistry, UnknownParameterIsRejected) {
  try {
    sim::make_prefetcher("stride:bogus=7");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

TEST(PrefetcherRegistry, BuildsParameterizedRuleBasedPrefetchers) {
  auto nextline = sim::make_prefetcher("nextline:degree=4");
  EXPECT_EQ(nextline->name(), "NextLine");
  auto stride = sim::make_prefetcher("stride:table=64,degree=4");
  EXPECT_EQ(stride->name(), "Stride");
  EXPECT_GT(stride->storage_bytes(), 0u);
  auto bo = sim::make_prefetcher("BO:latency=90,degree=2");
  EXPECT_EQ(bo->prediction_latency(), 90u);
  auto isb = sim::make_prefetcher("isb:granularity=128");
  EXPECT_EQ(isb->name(), "ISB");
  // label= renames a prefetcher for sweeps over one type.
  auto labeled = sim::make_prefetcher("stride:table=1024,label=Stride-1K");
  EXPECT_EQ(labeled->name(), "Stride-1K");
}

TEST(PrefetcherRegistry, LabelKeepsFillObservation) {
  // The label decorator forwards trains_on_fill: a relabelled stride still
  // lets the simulator skip fill events, a relabelled BO still gets them.
  for (const char* name : {"stride", "nextline", "isb", "bo"}) {
    const std::string base = name;
    EXPECT_EQ(sim::make_prefetcher(base + ":label=x")->trains_on_fill(),
              sim::make_prefetcher(base)->trains_on_fill())
        << name;
  }
  EXPECT_FALSE(sim::make_prefetcher("stride:label=x")->trains_on_fill());
  EXPECT_TRUE(sim::make_prefetcher("bo:label=x")->trains_on_fill());
}

TEST(PrefetcherRegistry, ModelBackedSpecsRequireContext) {
  EXPECT_THROW(sim::make_prefetcher("transfetch"), std::runtime_error);
  EXPECT_THROW(sim::make_prefetcher("voyager:ideal"), std::runtime_error);
  EXPECT_THROW(sim::make_prefetcher("dart:variant=s"), std::runtime_error);
}

TEST(PrefetcherRegistry, KnowsAllLegacyNames) {
  const auto& registry = sim::PrefetcherRegistry::instance();
  for (const char* name :
       {"NextLine", "Stride", "BO", "ISB", "TransFetch", "TransFetch-I", "Voyager",
        "Voyager-I", "DART-S", "DART", "DART-L"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_NO_THROW(registry.validate(name)) << name;
  }
}

TEST(SplitSpecList, HandlesLegacyAndSpecLists) {
  const auto legacy = common::split_spec_list("BO,ISB,DART");
  ASSERT_EQ(legacy.size(), 3u);
  EXPECT_EQ(legacy[1], "ISB");
  const auto specs = common::split_spec_list("stride:table=64,degree=2; dart:variant=l");
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0], "stride:table=64,degree=2");
  EXPECT_EQ(specs[1], "dart:variant=l");
  // A single parameterized spec without separators stays whole.
  const auto single = common::split_spec_list("stride:table=64,degree=2");
  ASSERT_EQ(single.size(), 1u);
}

// ------------------------------------------------------ experiment runner

core::PipelineOptions smoke_options() {
  core::PipelineOptions o = core::PipelineOptions::bench_defaults();
  o.raw_accesses = 60000;
  o.prep.max_samples = 400;
  o.teacher_arch.layers = 1;
  o.teacher_arch.dim = 16;
  o.teacher_arch.heads = 2;
  o.teacher_arch.ffn_dim = 32;
  // Zero epochs: models stay untrained — construction/scheduling is under
  // test here, not predictive quality.
  o.teacher_train.epochs = 0;
  o.student_train.epochs = 0;
  o.tab.tables = tabular::TableConfig::uniform(8, 1);
  o.tab.max_train_samples = 100;
  return o;
}

TEST(ExperimentRunner, ConstructsEveryBuiltinPrefetcher) {
  core::ExperimentSpec spec;
  spec.pipeline = smoke_options();
  spec.apps = {trace::App::kLibquantum};
  spec.prefetchers = {"NextLine",   "Stride",    "BO",     "ISB",  "TransFetch",
                      "TransFetch-I", "Voyager", "Voyager-I", "DART-S", "DART", "DART-L"};
  spec.nn_trigger_sample = 64;  // keep untrained NN inference cheap
  const core::ExperimentResult result = core::ExperimentRunner(spec).run();
  ASSERT_EQ(result.cells.size(), spec.prefetchers.size());
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    // Display names match the legacy table labels, cells are in spec order.
    EXPECT_EQ(result.cells[i].prefetcher, spec.prefetchers[i]);
    EXPECT_EQ(result.cells[i].spec, spec.prefetchers[i]);
    EXPECT_GT(result.cells[i].baseline_ipc, 0.0);
    EXPECT_GT(result.cells[i].stats.cycles, 0u);
  }
  // The "-I" ideals are the zero-latency variants (Table IX).
  EXPECT_EQ(result.find("TransFetch-I", "462.libquantum")->latency_cycles, 0u);
  EXPECT_EQ(result.find("Voyager", "462.libquantum")->latency_cycles,
            core::kVoyagerLatencyCycles);
  EXPECT_GT(result.find("DART", "462.libquantum")->storage_bytes, 0u);
}

TEST(ExperimentRunner, DisambiguatesCollidingDisplayNames) {
  core::ExperimentSpec spec;
  spec.pipeline = smoke_options();
  spec.apps = {trace::App::kLibquantum};
  spec.prefetchers = {"stride:table=64", "stride:table=1024", "nextline"};
  spec.parallel = false;
  const core::ExperimentResult result = core::ExperimentRunner(spec).run();
  // Both stride configs must stay distinct rows (fall back to spec text);
  // the unambiguous prefetcher keeps its display name.
  const auto names = result.prefetchers();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "stride:table=64");
  EXPECT_EQ(names[1], "stride:table=1024");
  EXPECT_EQ(names[2], "NextLine");
}

TEST(ExperimentRunner, RejectsUnknownSpecBeforeTraining) {
  core::ExperimentSpec spec;
  spec.pipeline = smoke_options();
  spec.apps = {trace::App::kLibquantum};
  spec.prefetchers = {"BO", "nosuch:param=1"};
  EXPECT_THROW(core::ExperimentRunner(spec).run(), std::invalid_argument);
}

TEST(ExperimentResult, CsvAndJsonRoundTrip) {
  core::ExperimentSpec spec;
  spec.pipeline = smoke_options();
  spec.apps = {trace::App::kLibquantum};
  spec.prefetchers = {"NextLine", "stride:table=64,degree=4"};
  spec.parallel = false;
  const core::ExperimentResult result = core::ExperimentRunner(spec).run();

  const std::string csv = "registry_test_cells.csv";
  const std::string tag = "#tag registry-test";
  ASSERT_TRUE(result.write_csv(csv, tag));
  std::vector<std::string> lines;
  {
    std::ifstream in(csv);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2 + result.cells.size());
  EXPECT_EQ(lines[0], tag);
  EXPECT_EQ(lines[1].rfind("spec,prefetcher,app,", 0), 0u);
  // The comma-bearing spec string is quoted; the rest of its row follows.
  const std::string stride_row = "\"stride:table=64,degree=4\",Stride,462.libquantum,";
  EXPECT_EQ(lines[3].rfind(stride_row, 0), 0u) << lines[3];
  EXPECT_EQ(lines[2].rfind("NextLine,NextLine,462.libquantum,", 0), 0u) << lines[2];
  const std::string storage_tail = "," + std::to_string(result.cells[1].stats.cycles) + "," +
                                   std::to_string(result.cells[1].storage_bytes) + "," +
                                   std::to_string(result.cells[1].latency_cycles);
  EXPECT_EQ(lines[3].substr(lines[3].size() - storage_tail.size()), storage_tail);

  const std::string json = "registry_test_cells.json";
  ASSERT_TRUE(result.write_json(json));
  std::FILE* f = std::fopen(json.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_NE(content.find("\"prefetcher\": \"Stride\""), std::string::npos);
  EXPECT_NE(content.find("\"baseline_ipc\""), std::string::npos);
  std::remove(csv.c_str());
  std::remove(json.c_str());
}

}  // namespace
}  // namespace dart

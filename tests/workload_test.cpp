// Tests for the deterministic workload engine (DESIGN.md §12): the spec
// grammar, the synthetic family generators with their golden content
// hashes, YCSB op-mix ratios, and the .dtrc trace-file round trip with its
// corruption negatives.
//
// The golden hashes here ARE the reproducibility contract: they pin the
// exact byte stream of every generator family for (n=20000, seed=42). A
// hash change means every committed corpus hash and trained artifact is
// re-keyed — never update a golden casually; regenerate
// tests/golden/corpus_hashes.tsv and the bench baselines with it.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/spec.hpp"
#include "io/bytes.hpp"
#include "trace/generators.hpp"
#include "trace/trace_file.hpp"
#include "trace/workloads.hpp"

namespace dart::trace {
namespace {

constexpr std::size_t kN = 20000;
constexpr std::uint64_t kSeed = 42;

std::uint64_t hash_of(const std::string& spec) {
  return trace_content_hash(Workload::parse(spec).generate(kN, kSeed));
}

// ------------------------------------------------------------- spec grammar

/// A synthetic family spec, the text after `trace:`.
common::Spec family_spec(const std::string& text) {
  return common::Spec::parse(text, common::kWorkloadGrammar);
}

TEST(WorkloadSpec, ParsesKeyValuesAndCanonicalizes) {
  common::Spec spec = family_spec("zipfian,theta=0.9,footprint=1G");
  EXPECT_EQ(spec.name(), "zipfian");
  EXPECT_EQ(spec.get_double("theta", 0.0), 0.9);
  EXPECT_EQ(spec.get_uint("footprint", 0), 1ULL << 30);
  // Canonical form sorts keys (raw value strings preserved) and
  // round-trips through parse.
  EXPECT_EQ(spec.canonical(), "zipfian,footprint=1G,theta=0.9");
}

TEST(WorkloadSpec, SizeSuffixes) {
  common::Spec spec = family_spec("x,a=64K,b=3M,c=2G,d=123");
  EXPECT_EQ(spec.get_uint("a", 0), 64ULL << 10);
  EXPECT_EQ(spec.get_uint("b", 0), 3ULL << 20);
  EXPECT_EQ(spec.get_uint("c", 0), 2ULL << 30);
  EXPECT_EQ(spec.get_uint("d", 0), 123ULL);
}

TEST(WorkloadSpec, RejectsMalformedInput) {
  EXPECT_THROW(family_spec(""), std::invalid_argument);
  EXPECT_THROW(family_spec(",theta=0.9"), std::invalid_argument);
  EXPECT_THROW(family_spec("zipfian,=0.9"), std::invalid_argument);
  EXPECT_THROW(Workload::parse("trace:zipfian,theta=abc"), std::invalid_argument);
}

TEST(Workload, ParseAcceptsAppNamesAndFamilies) {
  EXPECT_EQ(Workload::parse("605.mcf").name(), "605.mcf");
  EXPECT_EQ(Workload::parse("mcf").name(), "605.mcf");
  EXPECT_EQ(Workload::parse("ycsb-b").name(), "ycsb-b");
  EXPECT_EQ(Workload::parse("trace:zipfian,theta=0.8").name(), "zipfian");
  EXPECT_EQ(Workload(App::kMcf).spec(), "605.mcf");
}

TEST(Workload, AppNamesMatchExactly) {
  for (App app : all_apps()) {
    const std::string full = app_name(app);
    const std::size_t dot = full.find('.');
    EXPECT_EQ(app_from_name(full), app);
    EXPECT_EQ(app_from_name(full.substr(dot + 1)), app);
    EXPECT_EQ(app_from_name(full.substr(0, dot)), app);
    EXPECT_EQ(Workload::parse(full).spec(), full);
  }
  // Truncations and substrings of a name select no app, and as bare
  // workloads they are not families either.
  for (const char* bad : {"m", "l", "lib", "libq", "bwave", "waves", "433.mil", "33", "43",
                          "410.", ".bwaves", "MCF", " mcf"}) {
    EXPECT_THROW(app_from_name(bad), std::invalid_argument) << bad;
  }
  for (const char* bad : {"m", "l", "lib"}) {
    EXPECT_THROW(Workload::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Workload, ParseRejectsUnknownFamiliesAndUnusedKeys) {
  EXPECT_THROW(Workload::parse("trace:nosuchfamily"), std::invalid_argument);
  EXPECT_THROW(Workload::parse("notaworkload"), std::invalid_argument);
  // Typo'd parameter names must be rejected, not silently ignored.
  EXPECT_THROW(Workload::parse("trace:zipfian,theta=0.9,footprnt=64M"),
               std::invalid_argument);
  EXPECT_THROW(Workload::parse("trace:zipfian,theta=1.5"), std::invalid_argument);
  EXPECT_THROW(Workload::parse("trace:zipfian,footprint=1K"), std::invalid_argument);
  EXPECT_THROW(Workload::parse("trace:uniform,write=1.5"), std::invalid_argument);
  EXPECT_THROW(Workload::parse("trace:sequential,stride=0"), std::invalid_argument);
  EXPECT_THROW(Workload::parse("trace:zipfian,layout=nosuch"), std::invalid_argument);
  EXPECT_THROW(Workload::parse("tracefile:label=x"), std::invalid_argument);
}

TEST(Workload, CanonicalSpecRoundTrips) {
  const Workload w = Workload::parse("trace:ycsb-b,footprint=128M,theta=0.9,label=hot");
  const Workload again = Workload::parse(w.spec());
  EXPECT_EQ(again.spec(), w.spec());
  EXPECT_EQ(again.name(), "hot");
  EXPECT_EQ(trace_content_hash(w.generate(5000, 3)),
            trace_content_hash(again.generate(5000, 3)));
}

TEST(Workload, LabelsAreFilesystemSafe) {
  const Workload w = Workload::parse("trace:zipfian,label=my wild/label!");
  for (char c : w.name()) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '_' ||
                c == '-')
        << w.name();
  }
}

TEST(Workload, ParseWorkloadListSplitsBothWays) {
  // ';' always splits; ',' only for parameterless name lists.
  EXPECT_EQ(parse_workload_list("mcf;trace:zipfian,theta=0.9;ycsb-a").size(), 3u);
  EXPECT_EQ(parse_workload_list("mcf,gcc,ycsb-c").size(), 3u);
  EXPECT_EQ(parse_workload_list("trace:zipfian,theta=0.9").size(), 1u);
}

// ----------------------------------------------------------- determinism

TEST(Workload, SameSeedSameHashDifferentSeedDiffers) {
  const Workload w = Workload::parse("trace:ycsb-a,footprint=64M");
  EXPECT_EQ(trace_content_hash(w.generate(kN, 7)), trace_content_hash(w.generate(kN, 7)));
  EXPECT_NE(trace_content_hash(w.generate(kN, 7)), trace_content_hash(w.generate(kN, 8)));
}

TEST(Workload, SpecSeedParameterOverridesArgument) {
  const Workload pinned = Workload::parse("trace:uniform,footprint=64M,seed=5");
  EXPECT_EQ(trace_content_hash(pinned.generate(kN, 1)),
            trace_content_hash(pinned.generate(kN, 2)));
}

// --------------------------------------------------------- golden corpus

// One pinned 64-bit content hash per generator family (and per layout
// variation). These must match on every platform/compiler — the CI
// corpus-hash job asserts the same equality between gcc and clang builds.
TEST(WorkloadGolden, FamilyContentHashesPinned) {
  const std::vector<std::pair<std::string, std::uint64_t>> golden = {
      {"trace:zipfian,footprint=64M,theta=0.99", 0xd3573966a43b5c4dULL},
      {"trace:scrambled,footprint=64M,theta=0.99", 0x7b1853c2fba097d0ULL},
      {"trace:latest,footprint=64M,theta=0.99", 0xeb6dae10c3d4ac69ULL},
      {"trace:exponential,footprint=64M", 0x8f1472146fd7e477ULL},
      {"trace:uniform,footprint=64M", 0xfa8513d784b9d7dbULL},
      {"trace:sequential,footprint=64M,stride=4", 0x53614ce97d4b2a5bULL},
      {"trace:ycsb-a,footprint=64M", 0xb5c713e2e0b1d592ULL},
      {"trace:ycsb-b,footprint=64M", 0xbd1573be8951e3a0ULL},
      {"trace:ycsb-c,footprint=64M", 0xa9c6606cbbe457ebULL},
      {"trace:ycsb-d,footprint=64M", 0x0d29d3e1024cc66cULL},
      {"trace:ycsb-e,footprint=64M,scan=16", 0xed171b01f8e42e6eULL},
      {"trace:ycsb-f,footprint=64M", 0x59cbf11d36b993deULL},
      {"trace:uniform,footprint=64M,write=0.2", 0xf1a078c3aaa29d88ULL},
      {"trace:zipfian,footprint=256M,theta=0.99,layout=hash", 0xf9778abacaf33a21ULL},
      {"trace:scrambled,footprint=64M,theta=0.99,layout=chase", 0xd078106ae363489bULL},
      {"trace:ycsb-b,footprint=64M,layout=btree", 0x3a76f9ddb61fcfa7ULL},
      {"trace:ycsb-c,footprint=64M,layout=graph", 0x070dbc5c5778a386ULL},
  };
  for (const auto& [spec, expect] : golden) {
    EXPECT_EQ(hash_of(spec), expect) << spec;
  }
}

// "scrambled-zipfian" is an alias of "scrambled": identical streams.
TEST(WorkloadGolden, ScrambledZipfianAliasSameStream) {
  EXPECT_EQ(hash_of("trace:scrambled-zipfian,footprint=64M,theta=0.99"),
            hash_of("trace:scrambled,footprint=64M,theta=0.99"));
}

// --------------------------------------------------------- family behavior

TEST(WorkloadFamilies, YcsbMixRatios) {
  // layout=direct maps one op to one access, so the write fraction of the
  // trace equals the mix's update fraction. (The default hash layout emits
  // multi-access probe bursts per op, which dilutes the raw fraction.)
  const MemoryTrace b =
      Workload::parse("trace:ycsb-b,footprint=64M,layout=direct").generate(50000, 3);
  std::size_t writes = 0;
  for (const MemoryAccess& a : b) writes += a.is_write ? 1 : 0;
  const double frac = static_cast<double>(writes) / static_cast<double>(b.size());
  EXPECT_NEAR(frac, 0.05, 0.01);

  // YCSB-C is read-only — in every layout.
  const MemoryTrace c = Workload::parse("trace:ycsb-c,footprint=64M").generate(20000, 3);
  for (const MemoryAccess& a : c) ASSERT_FALSE(a.is_write);

  // YCSB-A is 50/50: roughly half the accesses are writes.
  const MemoryTrace a50 =
      Workload::parse("trace:ycsb-a,footprint=64M,layout=direct").generate(50000, 3);
  writes = 0;
  for (const MemoryAccess& a : a50) writes += a.is_write ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(writes) / a50.size(), 0.5, 0.05);
}

TEST(WorkloadFamilies, SequentialStrideIsExact) {
  const MemoryTrace t =
      Workload::parse("trace:sequential,footprint=64M,stride=4").generate(1000, 9);
  for (std::size_t i = 1; i < t.size(); ++i) {
    // Direct layout: key * 64 offsets from the array base; stride 4 keys.
    EXPECT_EQ(t[i].addr - t[i - 1].addr, 4 * 64u);
  }
}

TEST(WorkloadFamilies, MonotonicInstrIdsAndLayoutBases) {
  for (const char* spec :
       {"trace:zipfian,footprint=64M", "trace:zipfian,footprint=64M,layout=hash",
        "trace:zipfian,footprint=64M,layout=chase", "trace:zipfian,footprint=64M,layout=btree",
        "trace:zipfian,footprint=64M,layout=graph"}) {
    const MemoryTrace t = Workload::parse(spec).generate(5000, 11);
    ASSERT_EQ(t.size(), 5000u) << spec;
    for (std::size_t i = 1; i < t.size(); ++i) {
      ASSERT_GE(t[i].instr_id, t[i - 1].instr_id) << spec;
    }
  }
}

// ------------------------------------------------------------- trace files

class TraceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "dart_trace_file_test";
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "t.dtrc").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::uint8_t> slurp() {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
  }
  void dump(const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(TraceFileTest, RoundTripPreservesEveryRecordAndHash) {
  const MemoryTrace t = Workload::parse("trace:ycsb-a,footprint=64M").generate(5000, 13);
  write_trace_file(path_, t);
  const MemoryTrace back = read_trace_file(path_);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back[i].instr_id, t[i].instr_id);
    EXPECT_EQ(back[i].pc, t[i].pc);
    EXPECT_EQ(back[i].addr, t[i].addr);
    EXPECT_EQ(back[i].is_write, t[i].is_write);
  }
  EXPECT_EQ(trace_content_hash(back), trace_content_hash(t));

  // And the tracefile: workload spec replays it (wrapping past the end).
  const Workload w = Workload::parse("tracefile:path=" + path_);
  const MemoryTrace replay = w.generate(6000, 0);
  ASSERT_EQ(replay.size(), 6000u);
  EXPECT_EQ(replay[0].addr, t[0].addr);
  EXPECT_EQ(replay[5000].addr, t[0].addr);           // wrapped
  EXPECT_GT(replay[5000].instr_id, replay[4999].instr_id);  // instr ids continue
}

TEST_F(TraceFileTest, EmptyTraceRoundTrips) {
  write_trace_file(path_, {});
  EXPECT_TRUE(read_trace_file(path_).empty());
}

TEST_F(TraceFileTest, StreamingReaderCountsAndStops) {
  const MemoryTrace t = Workload::parse("trace:uniform,footprint=64M").generate(100, 1);
  write_trace_file(path_, t);
  TraceFileReader reader(path_);
  EXPECT_EQ(reader.count(), 100u);
  MemoryAccess a;
  std::size_t n = 0;
  while (reader.next(a)) ++n;
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(reader.consumed(), 100u);
  EXPECT_FALSE(reader.next(a));  // idempotent at EOF
}

TEST_F(TraceFileTest, MissingFileThrowsWithPath) {
  try {
    read_trace_file((dir_ / "nope.dtrc").string());
    FAIL() << "expected ArtifactError";
  } catch (const io::ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("nope.dtrc"), std::string::npos);
  }
}

TEST_F(TraceFileTest, BadMagicAndVersionRejected) {
  const MemoryTrace t = Workload::parse("trace:uniform,footprint=64M").generate(4, 1);
  write_trace_file(path_, t);
  std::vector<std::uint8_t> bytes = slurp();
  std::vector<std::uint8_t> magic = bytes;
  magic[0] ^= 0xff;
  dump(magic);
  EXPECT_THROW(read_trace_file(path_), io::ArtifactError);
  std::vector<std::uint8_t> version = bytes;
  version[4] = 99;
  dump(version);
  EXPECT_THROW(read_trace_file(path_), io::ArtifactError);
}

TEST_F(TraceFileTest, TruncationReportsByteOffset) {
  const MemoryTrace t = Workload::parse("trace:uniform,footprint=64M").generate(16, 1);
  write_trace_file(path_, t);
  std::vector<std::uint8_t> bytes = slurp();
  bytes.resize(bytes.size() - 20);  // clip the checksum + part of a record
  dump(bytes);
  try {
    read_trace_file(path_);
    FAIL() << "expected ArtifactError";
  } catch (const io::ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos) << e.what();
  }
}

TEST_F(TraceFileTest, HeaderShortReadRejected) {
  dump({0x44, 0x54, 0x52, 0x43, 0x01, 0x00});  // magic + half a version
  EXPECT_THROW(read_trace_file(path_), io::ArtifactError);
}

TEST_F(TraceFileTest, CorruptFlagsByteRejected) {
  const MemoryTrace t = Workload::parse("trace:uniform,footprint=64M").generate(8, 1);
  write_trace_file(path_, t);
  std::vector<std::uint8_t> bytes = slurp();
  // Record 3's flags byte: header + 3 full records + 24 bytes in.
  bytes[kTraceFileHeaderBytes + 3 * kTraceFileRecordBytes + 24] = 0x80;
  dump(bytes);
  try {
    read_trace_file(path_);
    FAIL() << "expected ArtifactError";
  } catch (const io::ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("flags"), std::string::npos) << e.what();
  }
}

TEST_F(TraceFileTest, PayloadCorruptionFailsChecksum) {
  const MemoryTrace t = Workload::parse("trace:uniform,footprint=64M").generate(8, 1);
  write_trace_file(path_, t);
  std::vector<std::uint8_t> bytes = slurp();
  bytes[kTraceFileHeaderBytes + 5] ^= 0x01;  // flip one addr bit in record 0
  dump(bytes);
  try {
    read_trace_file(path_);
    FAIL() << "expected ArtifactError";
  } catch (const io::ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST_F(TraceFileTest, TrailingGarbageRejected) {
  const MemoryTrace t = Workload::parse("trace:uniform,footprint=64M").generate(8, 1);
  write_trace_file(path_, t);
  std::vector<std::uint8_t> bytes = slurp();
  bytes.push_back(0xab);
  dump(bytes);
  EXPECT_THROW(read_trace_file(path_), io::ArtifactError);
}

TEST_F(TraceFileTest, CountOverflowRejectedBeforeAllocation) {
  // A header declaring 2^61 records must fail fast on truncation, not
  // attempt to allocate.
  std::vector<std::uint8_t> bytes = {0x44, 0x54, 0x52, 0x43, 0x01, 0x00, 0x00, 0x00,
                                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20};
  dump(bytes);
  EXPECT_THROW(read_trace_file(path_), io::ArtifactError);
}

}  // namespace
}  // namespace dart::trace

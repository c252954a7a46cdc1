// The equivalence matrix: (schedule × policy × knob), one simulation per test.
//
// Every knob below claims to leave every ExperimentResult field unchanged:
//
//   tlb_off       the access fast lane (software TLB) off: the lane replays exactly the
//                 slow path's tail, so only host time may differ;
//   batch1/7      replay one or seven ops per refill instead of 64: streams never read
//                 machine state, so prefetching ops is invisible (7 never aligns with a
//                 quantum, so the partial-batch cursor runs on every boundary);
//   oracle_off    no oracle bookkeeping: instrumentation for ground-truth figures only;
//   pipeline_on   workload generation forced onto a second thread (ScopedPipelineOverride);
//   pipeline_off  generation forced in-thread;
//   traced        every trace category on, ring sized to the run: tracing only observes;
//   base          the default config itself, for cells no other knob runs it on.
//
// Each (schedule, policy) cell has a golden: the ResultFingerprint (src/harness/
// result_fields.h, FNV-1a over every field, tenant rows included) of its default-config
// run. A test runs its knob once and compares the fingerprint with the golden. Only on a
// mismatch does it run the default config too, to name the first field that moved and to
// print the default's SEED-GOLDEN line. Re-blessing after an intentional behaviour change:
// run this binary, check that every failure reports "no field differs" (the knob still
// matches the default), and paste the SEED-GOLDEN lines into kGoldens.
//
// Each knob also checks that it engaged: the fast lane hit when on, the pipeline took
// every stream when forced on and none when forced off, and a traced run recorded events
// without dropping any.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/harness/op_pipeline.h"
#include "src/harness/result_fields.h"
#include "src/trace/tracer.h"
#include "tests/test_schedules.h"

namespace chronotier {
namespace {

enum class Knob { kBase, kTlbOff, kBatch1, kBatch7, kOracleOff, kPipelineOn, kPipelineOff,
                  kTraced };

const char* KnobName(Knob knob) {
  switch (knob) {
    case Knob::kBase: return "base";
    case Knob::kTlbOff: return "tlb_off";
    case Knob::kBatch1: return "batch1";
    case Knob::kBatch7: return "batch7";
    case Knob::kOracleOff: return "oracle_off";
    case Knob::kPipelineOn: return "pipeline_on";
    case Knob::kPipelineOff: return "pipeline_off";
    case Knob::kTraced: return "traced";
  }
  return "?";
}

struct Schedule {
  ExperimentConfig config;
  std::vector<ProcessSpec> procs;
};

Schedule MakeSchedule(const std::string& name) {
  if (name == "standard") {
    return {SmallExperiment(), GaussianProcs(2)};
  }
  if (name == "ntier") {
    return {NTierExperiment(), GaussianProcs(2)};
  }
  if (name == "segmented") {
    return {SmallExperiment(), SegmentedProcs(2)};
  }
  if (name == "migration_heavy") {
    // Write-heavy working set larger than DRAM: constant promotion/demotion churn plus
    // dirty-abort pressure, so every migration-driven TLB invalidation fires.
    Schedule schedule{SmallExperiment(), GaussianProcs(2, /*read_ratio=*/0.3, 3072)};
    schedule.config.total_pages = 8192;  // 32 MB machine; the 12 MB x2 set thrashes it.
    return schedule;
  }
  if (name == "chaos") {
    return {ChaosExperiment(), GaussianProcs(2, /*read_ratio=*/0.5)};
  }
  if (name == "fabric") {
    return {FabricExperiment(), GaussianProcs(2, /*read_ratio=*/0.6)};
  }
  if (name == "tenant_kv") {
    Schedule schedule;
    schedule.config = TenantKvExperiment(&schedule.procs);
    return schedule;
  }
  if (name == "observed") {
    return {ObsMachine(), ObsProcs()};
  }
  ADD_FAILURE() << "no such schedule: " << name;
  return {};
}

struct Cell {
  std::string schedule;
  std::string policy;
  Knob knob;
};

void PrintTo(const Cell& cell, std::ostream* os) {
  *os << cell.schedule << "/" << cell.policy << "/" << KnobName(cell.knob);
}

std::vector<Cell> Matrix() {
  const std::vector<std::string> six = {"Linux-NB", "AutoTiering", "Multi-Clock",
                                        "TPP",      "Memtis",      "Chrono"};
  std::vector<std::string> seven = six;
  seven.push_back("endpoint_aware_hotness");
  struct Block {
    const char* schedule;
    std::vector<std::string> policies;
    std::vector<Knob> knobs;
  };
  const std::vector<Block> blocks = {
      {"standard", six, {Knob::kTlbOff, Knob::kBatch1}},
      {"standard", {"Chrono"}, {Knob::kBatch7}},
      {"standard", {"Chrono", "Linux-NB", "Memtis"}, {Knob::kOracleOff}},
      {"standard", seven, {Knob::kPipelineOn, Knob::kPipelineOff}},
      {"ntier", {"Chrono", "Memtis", "endpoint_aware_hotness"}, {Knob::kBase, Knob::kTlbOff}},
      {"ntier", {"endpoint_aware_hotness"}, {Knob::kBatch1, Knob::kOracleOff}},
      {"segmented", {"Chrono", "TPP"}, {Knob::kTlbOff}},
      {"segmented", {"Chrono"}, {Knob::kBatch1, Knob::kOracleOff}},
      {"segmented", seven, {Knob::kPipelineOn, Knob::kPipelineOff}},
      {"migration_heavy", {"Chrono", "TPP", "Linux-NB"}, {Knob::kBase, Knob::kTlbOff}},
      {"chaos", {"Chrono", "Multi-Clock"}, {Knob::kTlbOff, Knob::kPipelineOn,
                                            Knob::kPipelineOff}},
      {"chaos", {"Chrono"}, {Knob::kBatch1, Knob::kOracleOff}},
      {"fabric", {"Chrono"}, {Knob::kBase, Knob::kBatch1, Knob::kOracleOff}},
      {"tenant_kv", seven, {Knob::kPipelineOn, Knob::kPipelineOff}},
      {"observed", six, {Knob::kTraced}},
  };
  std::vector<Cell> cells;
  for (const Block& block : blocks) {
    for (const std::string& policy : block.policies) {
      for (const Knob knob : block.knobs) {
        cells.push_back({block.schedule, policy, knob});
      }
    }
  }
  return cells;
}

std::string CellName(const ::testing::TestParamInfo<Cell>& info) {
  std::string name = info.param.schedule + "_" + info.param.policy;
  for (char& c : name) {
    c = std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return name + "__" + KnobName(info.param.knob);
}

// --- goldens: ResultFingerprint of each cell's default-config run ---

struct Golden {
  const char* key;
  uint64_t fingerprint;
};

constexpr Golden kGoldens[] = {
    {"standard/Linux-NB", 0x5827f052c8fe8e5bull},
    {"standard/AutoTiering", 0x3d90498ba2ac286ull},
    {"standard/Multi-Clock", 0x9dbce1766c3a74ceull},
    {"standard/TPP", 0xd68c6f790f17491ull},
    {"standard/Memtis", 0x82875bc9b932d102ull},
    {"standard/Chrono", 0x4a1fc3447cc4c0e2ull},
    {"standard/endpoint_aware_hotness", 0x329f6869aaae21dcull},
    {"ntier/Memtis", 0x2c4d3d6676cad7beull},
    {"ntier/Chrono", 0xdff237b771c75503ull},
    {"ntier/endpoint_aware_hotness", 0x6c13750a920ce88ull},
    {"segmented/Linux-NB", 0x6508b1c94689e863ull},
    {"segmented/AutoTiering", 0xf1a386a39578c238ull},
    {"segmented/Multi-Clock", 0x4ae170971665d7bbull},
    {"segmented/TPP", 0x531ce88512f7dfcbull},
    {"segmented/Memtis", 0xb3778a8d0d34db40ull},
    {"segmented/Chrono", 0x87a7414cf8935254ull},
    {"segmented/endpoint_aware_hotness", 0xa8a0a33b73a70f8aull},
    {"migration_heavy/Linux-NB", 0x163a0cd270b83f5bull},
    {"migration_heavy/TPP", 0xcf5a1eef5dd9ca9dull},
    {"migration_heavy/Chrono", 0xe05023ac195a1038ull},
    {"chaos/Multi-Clock", 0xd9c70736974373c9ull},
    {"chaos/Chrono", 0x1c06bae15352056cull},
    {"fabric/Chrono", 0xd2bc3c5d82539872ull},
    {"tenant_kv/Linux-NB", 0xc44774f2c4e015a2ull},
    {"tenant_kv/AutoTiering", 0x7800b7e737584670ull},
    {"tenant_kv/Multi-Clock", 0xf9f5df216dd27e18ull},
    {"tenant_kv/TPP", 0x5a902c2e04e7618dull},
    {"tenant_kv/Memtis", 0xdf02b67088d92903ull},
    {"tenant_kv/Chrono", 0x181b2ca00c3b8e61ull},
    {"tenant_kv/endpoint_aware_hotness", 0x4120ca1f205e238eull},
    {"observed/Linux-NB", 0x2c457f73369ab94aull},
    {"observed/AutoTiering", 0x576dfaeee13b7e11ull},
    {"observed/Multi-Clock", 0x5c73fa79d370ddfdull},
    {"observed/TPP", 0x446e1683c15f9e14ull},
    {"observed/Memtis", 0xcd1e3ed28241b353ull},
    {"observed/Chrono", 0x9d45ecbb831d5d9cull},
};

uint64_t GoldenFor(const std::string& key) {
  for (const Golden& golden : kGoldens) {
    if (key == golden.key) {
      return golden.fingerprint;
    }
  }
  ADD_FAILURE() << "no golden recorded for " << key;
  return 0;
}

class EquivalenceTest : public ::testing::TestWithParam<Cell> {};

TEST_P(EquivalenceTest, MatchesGolden) {
  const Cell& cell = GetParam();
  const std::string key = cell.schedule + "/" + cell.policy;
  const Schedule schedule = MakeSchedule(cell.schedule);
  const NamedPolicyFactory policy = FindPolicy(cell.policy);

  ExperimentConfig config = schedule.config;
  std::optional<ScopedPipelineOverride> force;
  switch (cell.knob) {
    case Knob::kBase: break;
    case Knob::kTlbOff: config.enable_translation_cache = false; break;
    case Knob::kBatch1: config.replay_batch_ops = 1; break;
    case Knob::kBatch7: config.replay_batch_ops = 7; break;
    case Knob::kOracleOff: config.track_oracle = false; break;
    case Knob::kPipelineOn: force.emplace(true); break;
    case Knob::kPipelineOff: force.emplace(false); break;
    case Knob::kTraced: config.trace = FullTracing(); break;
  }

  uint64_t tlb_hits = 0;
  size_t pipelined_streams = 0;
  uint64_t trace_recorded = 0;
  const ExperimentResult result = Experiment::Run(
      config, policy.make, schedule.procs, nullptr,
      [&](Machine& machine, ExperimentResult&) {
        tlb_hits = machine.TlbStats().hits;
        pipelined_streams = machine.pipelined_streams();
        trace_recorded = machine.tracer() != nullptr ? machine.tracer()->recorded() : 0;
      });
  force.reset();

  if (config.enable_translation_cache) {
    EXPECT_GT(tlb_hits, 0u) << "the fast lane never engaged";
  }
  if (cell.knob == Knob::kPipelineOn) {
    EXPECT_EQ(pipelined_streams, schedule.procs.size());
  } else if (cell.knob == Knob::kPipelineOff) {
    EXPECT_EQ(pipelined_streams, 0u);
  } else if (cell.knob == Knob::kTraced) {
    EXPECT_GT(trace_recorded, 0u);
    EXPECT_EQ(result.trace_events_dropped, 0u) << "the ring overflowed";
  }

  const uint64_t golden = GoldenFor(key);
  const uint64_t actual = ResultFingerprint(result);
  if (actual != golden) {
    const ExperimentResult reference =
        Experiment::Run(schedule.config, policy.make, schedule.procs);
    const uint64_t reference_fingerprint = ResultFingerprint(reference);
    std::cout << "SEED-GOLDEN {\"" << key << "\", 0x" << std::hex << reference_fingerprint
              << std::dec << "ull}," << std::endl;
    const std::string field = FirstDifference(reference, result);
    ADD_FAILURE() << key << " with " << KnobName(cell.knob) << ": fingerprint 0x"
                  << std::hex << actual << " != golden 0x" << golden << std::dec
                  << "; the default config "
                  << (reference_fingerprint == golden ? "matches" : "no longer matches")
                  << " the golden; first field where this run differs from the default: "
                  << (field.empty() ? "none, no field differs" : field);
  }
}

INSTANTIATE_TEST_SUITE_P(Matrix, EquivalenceTest, ::testing::ValuesIn(Matrix()), CellName);

// --- the field table itself ---

// A result with two tenant rows and a two-process residency series, so every vector
// field has elements to differ in.
ExperimentResult SampleResult() {
  ExperimentResult result;
  result.policy_name = "Chrono";
  result.throughput_ops = 1.5e6;
  result.sample_times = {kSecond, 2 * kSecond};
  result.residency_percent = {{10.0, 20.0}, {30.0, 40.0}};
  result.tenants.resize(2);
  result.tenants[0].name = "a";
  result.tenants[1].name = "b";
  return result;
}

// Changes `v` by the smallest step its type has (one ULP for a double) and returns the
// path FirstDifference must name for it.
template <typename T>
std::string Perturb(T& v, const std::string& path) {
  if constexpr (std::is_same_v<T, double>) {
    v = std::nextafter(v, INFINITY);
    return path;
  } else if constexpr (std::is_same_v<T, std::string>) {
    v += "x";
    return path;
  } else if constexpr (std::is_integral_v<T>) {
    v += 1;
    return path;
  } else {
    v.emplace_back();
    return path + ".size";
  }
}

// Every table row reaches FirstDifference and the fingerprint, and names its own member:
// a row pointing at another row's member would report that row's name here.
TEST(ResultFieldsTest, FirstDifferenceNamesEveryField) {
  const ExperimentResult base = SampleResult();
  EXPECT_EQ(FirstDifference(base, base), "");
  const auto expect_named = [&](const ExperimentResult& changed, const std::string& path) {
    EXPECT_EQ(FirstDifference(base, changed), path);
    EXPECT_EQ(FirstDifference(changed, base), path);
    EXPECT_NE(ResultFingerprint(changed), ResultFingerprint(base)) << path;
  };
  ForEachResultField<ExperimentResult>([&](const auto& field) {
    ExperimentResult changed = base;
    expect_named(changed, Perturb(changed.*field.member, std::string(field.name)));
  });
  ForEachResultField<TenantResult>([&](const auto& field) {
    ExperimentResult changed = base;
    expect_named(changed, Perturb(changed.tenants[1].*field.member,
                                  "tenants[1]." + std::string(field.name)));
  });
  ExperimentResult changed = base;
  expect_named(changed, Perturb(changed.residency_percent[1][0], "residency_percent[1][0]"));
  changed = base;
  changed.fmar = -0.0;  // Equal to 0.0 as a double, not as a bit pattern.
  expect_named(changed, "fmar");
}

TEST(ResultFieldsTest, JsonRowCarriesEveryField) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.BeginObject();
    WriteResultFields(json, SampleResult());
    json.EndObject();
  }
  const std::string text = out.str();
  ForEachResultField<ExperimentResult>([&](const auto& field) {
    EXPECT_NE(text.find("\"" + std::string(field.name) + "\":"), std::string::npos)
        << field.name;
  });
  ForEachResultField<TenantResult>([&](const auto& field) {
    EXPECT_NE(text.find("\"" + std::string(field.name) + "\":"), std::string::npos)
        << field.name;
  });
  EXPECT_NE(text.find("\"residency_percent\":[[10,20],[30,40]]"), std::string::npos) << text;
}

}  // namespace
}  // namespace chronotier

// Tests for trace record/replay (exact capture, file round-trip, replay fidelity across
// machines, repeat semantics) and for the observability subsystem (src/trace): ring
// overwrite accounting, category masks, per-page provenance, telemetry sampling, and the
// Chrome-trace exporter. The tracing-on/off bitwise-determinism guarantee is checked by
// the traced cells of the equivalence matrix (tests/equivalence_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/machine.h"
#include "src/policies/linux_nb.h"
#include "src/trace/exporter.h"
#include "src/trace/tracer.h"
#include "src/workloads/patterns.h"
#include "src/workloads/pmbench.h"
#include "src/workloads/trace.h"
#include "tests/test_schedules.h"

namespace chronotier {
namespace {

class NullPolicy : public TieringPolicy {
 public:
  std::string_view name() const override { return "null"; }
  void Attach(Machine&) override {}
  SimDuration OnHintFault(Process&, Vma&, PageInfo&, bool, SimTime) override { return 0; }
};

Trace RecordHotsetTrace(uint64_t ops) {
  Trace trace;
  Machine machine(MachineConfig::StandardTwoTier(4096, 0.25),
                  std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("recorded");
  HotsetConfig w;
  w.working_set_bytes = 512 * kBasePageSize;
  w.op_limit = ops;
  machine.AttachWorkload(
      process, std::make_unique<TraceRecorder>(std::make_unique<HotsetStream>(w), &trace),
      /*seed=*/123);
  machine.Start();
  machine.RunToCompletion(kMinute);
  return trace;
}

TEST(TraceTest, RecorderCapturesEveryOp) {
  const Trace trace = RecordHotsetTrace(5000);
  EXPECT_EQ(trace.size(), 5000u);
  EXPECT_EQ(trace.working_set_bytes(), 512 * kBasePageSize);
  // Relative addressing: all ops fall inside the recorded working set.
  for (const TraceEntry& entry : trace.entries()) {
    EXPECT_LT(entry.vaddr, trace.working_set_bytes());
  }
}

TEST(TraceTest, FileRoundTripIsExact) {
  const Trace trace = RecordHotsetTrace(2000);
  const std::string path = ::testing::TempDir() + "/chronotier_trace_test.txt";
  ASSERT_TRUE(trace.SaveTo(path));

  Trace loaded;
  ASSERT_TRUE(Trace::LoadFrom(path, &loaded));
  ASSERT_EQ(loaded.size(), trace.size());
  EXPECT_EQ(loaded.working_set_bytes(), trace.working_set_bytes());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded.entries()[i].vaddr, trace.entries()[i].vaddr) << i;
    EXPECT_EQ(loaded.entries()[i].is_store, trace.entries()[i].is_store) << i;
    EXPECT_EQ(loaded.entries()[i].think_time, trace.entries()[i].think_time) << i;
  }
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/chronotier_bad_trace.txt";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("not a trace\n", file);
  std::fclose(file);
  Trace loaded;
  EXPECT_FALSE(Trace::LoadFrom(path, &loaded));
  EXPECT_FALSE(Trace::LoadFrom("/nonexistent/path/trace.txt", &loaded));
  std::remove(path.c_str());
}

TEST(TraceTest, ReplayReproducesAccessCounts) {
  const Trace trace = RecordHotsetTrace(8000);

  // Replay the trace on two different machines; per-page oracle access counts must agree
  // exactly (the whole point of traces: generator variance is gone).
  auto run_replay = [&trace](uint64_t seed) {
    Machine machine(MachineConfig::StandardTwoTier(4096, 0.25),
                    std::make_unique<NullPolicy>());
    Process& process = machine.CreateProcess("replay");
    machine.AttachWorkload(process, std::make_unique<TraceStream>(&trace), seed);
    machine.Start();
    machine.RunToCompletion(kMinute);
    std::vector<uint64_t> counts;
    process.aspace().ForEachPage([&counts, &machine](Vma&, PageInfo& page) {
      counts.push_back(machine.arena().cold(page).access_count);
    });
    return counts;
  };
  const std::vector<uint64_t> a = run_replay(1);
  const std::vector<uint64_t> b = run_replay(999);  // Seed must not matter.
  EXPECT_EQ(a, b);

  uint64_t total = 0;
  for (uint64_t count : a) {
    total += count;
  }
  EXPECT_EQ(total, 8000u);
}

TEST(TraceTest, RepeatLoopsTheTrace) {
  Trace trace;
  trace.set_working_set_bytes(4 * kBasePageSize);
  for (int i = 0; i < 10; ++i) {
    trace.Append(MemOp{static_cast<uint64_t>(i % 4) * kBasePageSize, false, 0});
  }

  Machine machine(MachineConfig::StandardTwoTier(1024, 0.25),
                  std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("looper");
  machine.AttachWorkload(process, std::make_unique<TraceStream>(&trace, /*repeat=*/3), 1);
  machine.Start();
  machine.RunToCompletion(kMinute);
  EXPECT_EQ(process.completed_accesses(), 30u);
}

TEST(TraceTest, ReplayWorksUnderRealPolicy) {
  const Trace trace = RecordHotsetTrace(20000);
  ScanGeometry geometry;
  geometry.scan_period = kSecond;
  geometry.scan_step_pages = 256;
  Machine machine(MachineConfig::StandardTwoTier(1024, 0.25),
                  std::make_unique<LinuxNumaBalancingPolicy>(geometry));
  Process& process = machine.CreateProcess("replay");
  machine.AttachWorkload(process, std::make_unique<TraceStream>(&trace, /*repeat=*/0), 1);
  machine.Start();
  machine.Run(5 * kSecond);  // repeat=0: loops forever; run a fixed window.
  EXPECT_GT(machine.metrics().total_ops(), 20000u);
  EXPECT_GT(machine.metrics().hint_faults(), 0u);
}

// ---------------------------------------------------------------------------------------
// Observability subsystem (src/trace): Tracer / provenance / telemetry / exporter.
// ---------------------------------------------------------------------------------------

TEST(ObservabilityTest, RingOverwriteAccountingIsExact) {
  TraceConfig config;
  config.enabled = true;
  config.ring_capacity = 8;
  config.telemetry_period = 0;
  Tracer tracer(config);
  for (int i = 0; i < 20; ++i) {
    tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationCommit,
                /*ts=*/i * kMillisecond, /*pid=*/0, /*vpn=*/kTraceNoVpn);
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.overwritten(), 12u);
  EXPECT_EQ(tracer.size(), 8u);
  // Retained events are the newest 8, iterated oldest-to-newest.
  std::vector<SimTime> ts;
  tracer.ForEachEvent([&ts](const TraceEvent& event) { ts.push_back(event.ts); });
  ASSERT_EQ(ts.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ts[i], (12 + i) * kMillisecond);
  }
}

TEST(ObservabilityTest, CategoryMaskFiltersEmissions) {
  TraceConfig config;
  config.enabled = true;
  config.categories =
      TraceCategoryBit(TraceCategory::kMigration) | TraceCategoryBit(TraceCategory::kFault);
  config.telemetry_period = 0;
  Tracer tracer(config);
  EXPECT_TRUE(tracer.wants(TraceCategory::kMigration));
  EXPECT_FALSE(tracer.wants(TraceCategory::kAccess));

  tracer.Emit(TraceCategory::kAccess, TraceEventType::kAccess, 0, 0, 1);
  tracer.Emit(TraceCategory::kScan, TraceEventType::kScanLap, 0, 0, kTraceNoVpn);
  EXPECT_EQ(tracer.recorded(), 0u);
  tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationSubmit, 0, 0, 1);
  tracer.Emit(TraceCategory::kFault, TraceEventType::kDemandFault, 0, 0, 2);
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.overwritten(), 0u);
}

TEST(ObservabilityTest, ProvenanceKeepsBoundedHistoryPerSampledPage) {
  TraceConfig config;
  config.enabled = true;
  config.provenance_sample_period = 1;  // Sample every page.
  config.provenance_depth = 4;
  config.telemetry_period = 0;
  Tracer tracer(config);
  for (int i = 0; i < 10; ++i) {
    tracer.Emit(TraceCategory::kFault, TraceEventType::kHintFault, i * kMillisecond,
                /*pid=*/3, /*vpn=*/0x42);
  }
  const PageProvenance* page = tracer.ProvenanceFor(3, 0x42);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->total_events, 10u);
  EXPECT_EQ(page->recent.size(), 4u);
  // Bounded history keeps the newest 4, oldest-to-newest.
  std::vector<SimTime> ts;
  page->ForEach([&ts](const TraceEvent& event) { ts.push_back(event.ts); });
  ASSERT_EQ(ts.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ts[i], (6 + i) * kMillisecond);
  }
  EXPECT_EQ(tracer.ProvenanceFor(3, 0x43), nullptr);  // Never touched.

  std::ostringstream dump;
  tracer.WriteProvenance(dump);
  EXPECT_NE(dump.str().find("# page provenance: 1 sampled pages"), std::string::npos);
  EXPECT_NE(dump.str().find("vpn=0x42"), std::string::npos);
}

TEST(ObservabilityTest, ProvenanceDisabledWhenPeriodZero) {
  TraceConfig config;
  config.enabled = true;
  config.provenance_sample_period = 0;
  config.telemetry_period = 0;
  Tracer tracer(config);
  tracer.Emit(TraceCategory::kFault, TraceEventType::kHintFault, 0, 0, 0x42);
  EXPECT_EQ(tracer.provenance_page_count(), 0u);
}

TEST(ObservabilityTest, TelemetrySamplerHonorsPeriod) {
  TelemetrySampler sampler(100 * kMillisecond);
  sampler.set_snapshot_fn([](SimTime, TelemetrySample* sample) {
    sample->tiers.resize(2);
    sample->tiers[0].allocated = 7;
  });
  sampler.MaybeSample(0);
  sampler.MaybeSample(50 * kMillisecond);   // Not due.
  sampler.MaybeSample(100 * kMillisecond);
  sampler.MaybeSample(101 * kMillisecond);  // Not due.
  sampler.MaybeSample(350 * kMillisecond);
  ASSERT_EQ(sampler.samples().size(), 3u);
  EXPECT_EQ(sampler.samples()[0].ts, 0);
  EXPECT_EQ(sampler.samples()[1].ts, 100 * kMillisecond);
  EXPECT_EQ(sampler.samples()[2].ts, 350 * kMillisecond);
  sampler.ForceSample(350 * kMillisecond);  // Dedups on identical timestamp.
  EXPECT_EQ(sampler.samples().size(), 3u);
  sampler.ForceSample(400 * kMillisecond);
  EXPECT_EQ(sampler.samples().size(), 4u);

  std::ostringstream csv;
  sampler.WriteCsv(csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.rfind("ts_ms,", 0), 0u);  // Header row first.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);  // Header + 4 samples.

  std::ostringstream json;
  sampler.WriteJson(json);
  EXPECT_EQ(json.str().front(), '[');
}

// Structural well-formedness: every brace/bracket outside a string literal balances.
// (CI additionally runs `python3 -m json.tool` over a real exported trace.)
void ExpectBalancedJson(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(ObservabilityTest, ExporterSortsEachTrackByTimestamp) {
  TraceConfig config;
  config.enabled = true;
  config.telemetry_period = 0;
  Tracer tracer(config);
  tracer.SetProcessName(0, "worker");
  // Engine lifecycle track (pid 2 / tid 0), deliberately emitted out of time order —
  // the global ring is emission-ordered, not per-track time-ordered.
  tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationSubmit,
              300 * kMicrosecond, 0, 5, kSlowNode, kFastNode);
  tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationCommit,
              100 * kMicrosecond, 0, 4, kSlowNode, kFastNode);
  tracer.Emit(TraceCategory::kMigration, TraceEventType::kMigrationCopy,
              200 * kMicrosecond, 0, 4, kSlowNode, kFastNode, 1, 50000);
  tracer.Emit(TraceCategory::kReclaim, TraceEventType::kReclaimWake, 10 * kMicrosecond,
              kTraceNoPid, kTraceNoVpn, kFastNode);

  std::ostringstream out;
  WriteChromeTrace(tracer, out);
  const std::string json = out.str();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"migration engine\""), std::string::npos);
  EXPECT_NE(json.find("\"reclaim\""), std::string::npos);
  // The copy event renders as a duration slice on its own channel track.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Within the engine lifecycle track the commit (ts 100) must precede the submit
  // (ts 300) after the exporter's per-track sort.
  const size_t commit = json.find("migration_commit");
  const size_t submit = json.find("migration_submit");
  ASSERT_NE(commit, std::string::npos);
  ASSERT_NE(submit, std::string::npos);
  EXPECT_LT(commit, submit);
}

TEST(ObservabilityTest, ExperimentWritesAllExportFiles) {
  const std::string dir = ::testing::TempDir();
  ExperimentConfig config = ObsMachine();
  config.warmup = kSecond;
  config.measure = kSecond;
  config.trace = FullTracing();
  config.trace.export_path = dir + "/obs_trace.json";
  config.trace.timeseries_path = dir + "/obs_telemetry.csv";
  config.trace.provenance_path = dir + "/obs_provenance.txt";
  config.trace.provenance_sample_period = 4;

  const ExperimentResult result =
      Experiment::Run(config, FindPolicy("Linux-NB").make, ObsProcs());
  EXPECT_EQ(result.trace_events_dropped, 0u);

  std::ifstream trace_file(config.trace.export_path);
  ASSERT_TRUE(trace_file.good());
  std::stringstream trace_text;
  trace_text << trace_file.rdbuf();
  ExpectBalancedJson(trace_text.str());
  EXPECT_EQ(trace_text.str().front(), '{');
  EXPECT_NE(trace_text.str().find("\"displayTimeUnit\""), std::string::npos);

  std::ifstream csv_file(config.trace.timeseries_path);
  ASSERT_TRUE(csv_file.good());
  std::string header;
  std::getline(csv_file, header);
  EXPECT_EQ(header.rfind("ts_ms,", 0), 0u);

  std::ifstream prov_file(config.trace.provenance_path);
  ASSERT_TRUE(prov_file.good());
  std::string first;
  std::getline(prov_file, first);
  EXPECT_EQ(first.rfind("# page provenance:", 0), 0u);

  std::remove(config.trace.export_path.c_str());
  std::remove(config.trace.timeseries_path.c_str());
  std::remove(config.trace.provenance_path.c_str());
}

TEST(ObservabilityTest, TinyRingSurfacesDropsInResult) {
  ExperimentConfig config = ObsMachine();
  config.warmup = kSecond;
  config.measure = kSecond;
  config.trace = FullTracing();
  config.trace.ring_capacity = 64;  // Guaranteed to wrap under the access firehose.

  const ExperimentResult result =
      Experiment::Run(config, FindPolicy("Linux-NB").make, ObsProcs());
  EXPECT_GT(result.trace_events_dropped, 0u);
}

}  // namespace
}  // namespace chronotier

// Shared helper: field-by-field *exact* comparison of two ExperimentResults.
//
// Used by the TLB-equivalence tests (fast lane on vs off), the runner tests (parallel vs
// serial) and the pipeline tests (generator thread vs in-thread): all claim bit-identical
// replay, so doubles are compared with EXPECT_EQ (exact), not near-equality — any ULP of
// drift means the replay diverged. ExpectResultsIdentical compares every ExperimentResult
// field, tenant rows included; ExpectSimulationIdentical leaves out the tenant rows, for
// runs that differ only in which tenants they declare (and so in their accounting rows).

#pragma once

#include <gtest/gtest.h>

#include <string>

#include "src/harness/experiment.h"

namespace chronotier {

inline void ExpectSimulationIdentical(const ExperimentResult& a, const ExperimentResult& b,
                                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.elapsed, b.elapsed);

  EXPECT_EQ(a.throughput_ops, b.throughput_ops);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_EQ(a.median_latency_ns, b.median_latency_ns);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.read_avg_ns, b.read_avg_ns);
  EXPECT_EQ(a.write_avg_ns, b.write_avg_ns);

  EXPECT_EQ(a.fmar, b.fmar);
  EXPECT_EQ(a.kernel_time_fraction, b.kernel_time_fraction);
  EXPECT_EQ(a.context_switches_per_sec, b.context_switches_per_sec);

  EXPECT_EQ(a.promoted_pages, b.promoted_pages);
  EXPECT_EQ(a.demoted_pages, b.demoted_pages);
  EXPECT_EQ(a.promotion_events, b.promotion_events);
  EXPECT_EQ(a.thrash_events, b.thrash_events);
  EXPECT_EQ(a.hint_faults, b.hint_faults);

  EXPECT_EQ(a.migrations_submitted, b.migrations_submitted);
  EXPECT_EQ(a.migrations_committed, b.migrations_committed);
  EXPECT_EQ(a.migrations_aborted, b.migrations_aborted);
  EXPECT_EQ(a.migrations_refused, b.migrations_refused);
  EXPECT_EQ(a.migration_mean_attempts, b.migration_mean_attempts);
  EXPECT_EQ(a.copy_bandwidth_utilization, b.copy_bandwidth_utilization);

  EXPECT_EQ(a.congested_accesses, b.congested_accesses);
  EXPECT_EQ(a.congestion_queued_ns, b.congestion_queued_ns);
  EXPECT_EQ(a.multi_hop_copies, b.multi_hop_copies);
  EXPECT_EQ(a.multi_hop_legs, b.multi_hop_legs);

  EXPECT_EQ(a.migrations_parked, b.migrations_parked);
  EXPECT_EQ(a.faults_injected_transient, b.faults_injected_transient);
  EXPECT_EQ(a.faults_injected_persistent, b.faults_injected_persistent);
  EXPECT_EQ(a.frames_quarantined, b.frames_quarantined);
  EXPECT_EQ(a.alloc_refusals, b.alloc_refusals);
  EXPECT_EQ(a.emergency_reclaims, b.emergency_reclaims);
  EXPECT_EQ(a.pressure_spikes, b.pressure_spikes);
  EXPECT_EQ(a.stall_windows, b.stall_windows);

  EXPECT_EQ(a.links_down, b.links_down);
  EXPECT_EQ(a.endpoint_failures, b.endpoint_failures);
  EXPECT_EQ(a.evacuated_pages, b.evacuated_pages);
  EXPECT_EQ(a.evacuation_refused, b.evacuation_refused);
  EXPECT_EQ(a.reroutes, b.reroutes);
  EXPECT_EQ(a.reroute_parks, b.reroute_parks);

  EXPECT_EQ(a.inflight_at_measure_start, b.inflight_at_measure_start);
  EXPECT_EQ(a.audits_run, b.audits_run);

  EXPECT_EQ(a.migration_commit_hash, b.migration_commit_hash);
  EXPECT_EQ(a.trace_events_dropped, b.trace_events_dropped);

  EXPECT_EQ(a.sample_times, b.sample_times);
  EXPECT_EQ(a.residency_percent, b.residency_percent);
}

inline void ExpectResultsIdentical(const ExperimentResult& a, const ExperimentResult& b,
                                   const std::string& context) {
  ExpectSimulationIdentical(a, b, context);
  SCOPED_TRACE(context);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (size_t t = 0; t < a.tenants.size(); ++t) {
    SCOPED_TRACE("tenant row " + std::to_string(t));
    const TenantResult& x = a.tenants[t];
    const TenantResult& y = b.tenants[t];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.accesses, y.accesses);
    EXPECT_EQ(x.p50_latency_ns, y.p50_latency_ns);
    EXPECT_EQ(x.p99_latency_ns, y.p99_latency_ns);
    EXPECT_EQ(x.resident_fast_pages, y.resident_fast_pages);
    EXPECT_EQ(x.resident_total_pages, y.resident_total_pages);
    EXPECT_EQ(x.qos_checks, y.qos_checks);
    EXPECT_EQ(x.qos_refusals, y.qos_refusals);
    EXPECT_EQ(x.qos_admits, y.qos_admits);
    EXPECT_EQ(x.borrows, y.borrows);
    EXPECT_EQ(x.migration_pages_admitted, y.migration_pages_admitted);
    EXPECT_EQ(x.migration_bytes_admitted, y.migration_bytes_admitted);
  }
}

}  // namespace chronotier

// The field table of ExperimentResult and TenantResult: one {name, member pointer} row per
// member, in declaration order. Every consumer that handles a whole result — the
// first-difference check, the result fingerprint and the JSON row writer — walks this
// table instead of naming fields, so one list serves one-result visits (fingerprint, JSON)
// and two-result visits (difference) alike. A static_assert below counts the members of
// both structs, so adding a member without adding its row fails the build.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

#include "src/common/json.h"
#include "src/harness/experiment.h"

namespace chronotier {

template <typename Struct, typename T>
struct ResultField {
  std::string_view name;
  T Struct::*member;
};

template <typename Struct>
struct ResultFieldTable;

template <>
struct ResultFieldTable<TenantResult> {
  static constexpr auto kFields = std::make_tuple(
      ResultField{"name", &TenantResult::name},
      ResultField{"accesses", &TenantResult::accesses},
      ResultField{"p50_latency_ns", &TenantResult::p50_latency_ns},
      ResultField{"p99_latency_ns", &TenantResult::p99_latency_ns},
      ResultField{"resident_fast_pages", &TenantResult::resident_fast_pages},
      ResultField{"resident_total_pages", &TenantResult::resident_total_pages},
      ResultField{"qos_checks", &TenantResult::qos_checks},
      ResultField{"qos_refusals", &TenantResult::qos_refusals},
      ResultField{"qos_admits", &TenantResult::qos_admits},
      ResultField{"borrows", &TenantResult::borrows},
      ResultField{"migration_pages_admitted", &TenantResult::migration_pages_admitted},
      ResultField{"migration_bytes_admitted", &TenantResult::migration_bytes_admitted});
};

template <>
struct ResultFieldTable<ExperimentResult> {
  using R = ExperimentResult;
  static constexpr auto kFields = std::make_tuple(
      ResultField{"policy_name", &R::policy_name},
      ResultField{"elapsed", &R::elapsed},
      ResultField{"throughput_ops", &R::throughput_ops},
      ResultField{"avg_latency_ns", &R::avg_latency_ns},
      ResultField{"median_latency_ns", &R::median_latency_ns},
      ResultField{"p99_latency_ns", &R::p99_latency_ns},
      ResultField{"read_avg_ns", &R::read_avg_ns},
      ResultField{"write_avg_ns", &R::write_avg_ns},
      ResultField{"fmar", &R::fmar},
      ResultField{"kernel_time_fraction", &R::kernel_time_fraction},
      ResultField{"context_switches_per_sec", &R::context_switches_per_sec},
      ResultField{"promoted_pages", &R::promoted_pages},
      ResultField{"demoted_pages", &R::demoted_pages},
      ResultField{"promotion_events", &R::promotion_events},
      ResultField{"thrash_events", &R::thrash_events},
      ResultField{"hint_faults", &R::hint_faults},
      ResultField{"migrations_submitted", &R::migrations_submitted},
      ResultField{"migrations_committed", &R::migrations_committed},
      ResultField{"migrations_aborted", &R::migrations_aborted},
      ResultField{"migrations_refused", &R::migrations_refused},
      ResultField{"migration_mean_attempts", &R::migration_mean_attempts},
      ResultField{"copy_bandwidth_utilization", &R::copy_bandwidth_utilization},
      ResultField{"congested_accesses", &R::congested_accesses},
      ResultField{"congestion_queued_ns", &R::congestion_queued_ns},
      ResultField{"multi_hop_copies", &R::multi_hop_copies},
      ResultField{"multi_hop_legs", &R::multi_hop_legs},
      ResultField{"migrations_parked", &R::migrations_parked},
      ResultField{"faults_injected_transient", &R::faults_injected_transient},
      ResultField{"faults_injected_persistent", &R::faults_injected_persistent},
      ResultField{"frames_quarantined", &R::frames_quarantined},
      ResultField{"alloc_refusals", &R::alloc_refusals},
      ResultField{"emergency_reclaims", &R::emergency_reclaims},
      ResultField{"pressure_spikes", &R::pressure_spikes},
      ResultField{"stall_windows", &R::stall_windows},
      ResultField{"links_down", &R::links_down},
      ResultField{"endpoint_failures", &R::endpoint_failures},
      ResultField{"evacuated_pages", &R::evacuated_pages},
      ResultField{"evacuation_refused", &R::evacuation_refused},
      ResultField{"reroutes", &R::reroutes},
      ResultField{"reroute_parks", &R::reroute_parks},
      ResultField{"inflight_at_measure_start", &R::inflight_at_measure_start},
      ResultField{"audits_run", &R::audits_run},
      ResultField{"migration_commit_hash", &R::migration_commit_hash},
      ResultField{"trace_events_dropped", &R::trace_events_dropped},
      ResultField{"sample_times", &R::sample_times},
      ResultField{"residency_percent", &R::residency_percent},
      ResultField{"tenants", &R::tenants});
};

// Calls visit(field) for every row of Struct's table, in order.
template <typename Struct, typename Visit>
void ForEachResultField(Visit&& visit) {
  std::apply([&visit](const auto&... field) { (visit(field), ...); },
             ResultFieldTable<Struct>::kFields);
}

namespace result_fields_internal {

// Converts to any member type; only ever named in unevaluated brace-initializations.
struct AnyMember {
  template <typename T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

// Number of members of aggregate S: the longest initializer list S{...} accepts.
template <typename S, typename... Members>
constexpr size_t MemberCount() {
  if constexpr (requires { S{Members{}..., AnyMember{}}; }) {
    return MemberCount<S, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

template <typename S>
constexpr bool TableCoversEveryMember() {
  return MemberCount<S>() == std::tuple_size_v<decltype(ResultFieldTable<S>::kFields)>;
}

}  // namespace result_fields_internal

static_assert(result_fields_internal::TableCoversEveryMember<TenantResult>(),
              "TenantResult and its ResultFieldTable row list disagree: add the new member's row");
static_assert(result_fields_internal::TableCoversEveryMember<ExperimentResult>(),
              "ExperimentResult and its ResultFieldTable row list disagree: add the new "
              "member's row");

// Path of the first field, in table order, where `a` and `b` differ — doubles compared bit
// for bit, vectors element by element ("residency_percent[1][4]", "tenants[2].qos_checks")
// — or "" when the results are identical.
std::string FirstDifference(const ExperimentResult& a, const ExperimentResult& b);

// FNV-1a over every field in table order: doubles by bit pattern, strings and vectors with
// their lengths, tenant rows included.
uint64_t ResultFingerprint(const ExperimentResult& result);

// Writes every field as a member of the JSON object `json` has open: scalars as numbers or
// strings, vectors as arrays and tenant rows as objects.
void WriteResultFields(JsonWriter& json, const ExperimentResult& result);

}  // namespace chronotier

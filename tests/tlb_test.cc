// Access fast lane (software TLB) tests.
//
// The load-bearing claim — a run with the translation cache enabled is bit-identical to
// the same run with it disabled — is checked by the tlb_off cells of the equivalence
// matrix (tests/equivalence_test.cc). The stale-translation tests here pin down the
// invalidation points individually: PROT_NONE poisoning must still fault, and a
// huge-group split must stop tail vpns from resolving to the stale group head.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/harness/machine.h"
#include "src/vm/translation_cache.h"
#include "src/workloads/trace.h"

namespace chronotier {
namespace {

class NullPolicy : public TieringPolicy {
 public:
  std::string_view name() const override { return "null"; }
  void Attach(Machine&) override {}
  SimDuration OnHintFault(Process&, Vma&, PageInfo&, bool, SimTime) override { return 0; }
};

// A trace that touches the same few pages over and over: each revisit after the first is a
// guaranteed fast-lane hit (until something invalidates the translation). `first` lets the
// huge-split test touch only tail pages (offset 0 is the group head's own base page).
Trace LoopTrace(uint64_t pages, uint64_t touched, int rounds, uint64_t first = 0) {
  Trace trace;
  trace.set_working_set_bytes(pages * kBasePageSize);
  for (int r = 0; r < rounds; ++r) {
    for (uint64_t p = first; p < first + touched; ++p) {
      MemOp op;
      op.vaddr = p * kBasePageSize;
      op.think_time = kMillisecond;
      trace.Append(op);
    }
  }
  return trace;
}

TEST(TlbStaleTranslationTest, PoisonedUnitStillFaults) {
  const Trace trace = LoopTrace(/*pages=*/16, /*touched=*/4, /*rounds=*/4000);
  Machine machine(MachineConfig::StandardTwoTier(4096), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("t");
  machine.AttachWorkload(process, std::make_unique<TraceStream>(&trace), 1);
  machine.Start();
  machine.Run(kSecond);

  const uint64_t vpn = process.aspace().lowest_vpn();
  Vma* vma = process.aspace().FindVma(vpn);
  ASSERT_NE(vma, nullptr);
  PageInfo& unit = vma->HotnessUnit(vpn);

  // The loop revisits the page constantly, so its translation is cached by now.
  EXPECT_GT(machine.TlbStats().hits, 0u);
  ASSERT_EQ(process.tlb().Lookup(vpn), &unit);

  machine.PoisonUnit(unit);
  // Poisoning dropped the cached translation — the fast lane cannot skip the fault.
  EXPECT_EQ(process.tlb().Lookup(vpn), nullptr);
  ASSERT_TRUE(unit.Has(kPageProtNone));

  const uint64_t faults_before = machine.metrics().hint_faults();
  machine.Run(kSecond);
  EXPECT_GT(machine.metrics().hint_faults(), faults_before);
  EXPECT_FALSE(unit.Has(kPageProtNone)) << "hint fault should have cleared the poison";
}

TEST(TlbStaleTranslationTest, HugeSplitRemapsTailVpns) {
  // One huge group (512 base pages); the trace hammers a tail page, so the TLB caches
  // tail_vpn -> group head.
  const Trace trace = LoopTrace(/*pages=*/kBasePagesPerHugePage, /*touched=*/8,
                                /*rounds=*/2000, /*first=*/1);
  Machine machine(MachineConfig::StandardTwoTier(4096), std::make_unique<NullPolicy>());
  Process& process = machine.CreateProcess("t");
  process.set_default_page_kind(PageSizeKind::kHuge);
  machine.AttachWorkload(process, std::make_unique<TraceStream>(&trace), 1);
  machine.Start();
  machine.Run(kSecond);

  const uint64_t base_vpn = process.aspace().lowest_vpn();
  const uint64_t tail_vpn = base_vpn + 5;
  Vma* vma = process.aspace().FindVma(tail_vpn);
  ASSERT_NE(vma, nullptr);
  PageInfo& head = vma->HotnessUnit(tail_vpn);
  ASSERT_TRUE(head.huge_head());
  ASSERT_NE(head.vpn, tail_vpn);
  ASSERT_EQ(process.tlb().Lookup(tail_vpn), &head);

  ASSERT_TRUE(machine.SplitHugeUnit(*vma, head));

  // The stale head translation is gone: a fast-lane hit on it would have aggregated the
  // tail's accesses onto the (no longer covering) head unit.
  EXPECT_EQ(process.tlb().Lookup(tail_vpn), nullptr);
  PageInfo& tail = vma->PageAt(tail_vpn);
  ASSERT_EQ(&vma->HotnessUnit(tail_vpn), &tail);

  const uint64_t tail_count_before = machine.arena().cold(tail).access_count;
  const uint64_t head_count_before = machine.arena().cold(head).access_count;
  machine.Run(kSecond);
  EXPECT_GT(machine.arena().cold(tail).access_count, tail_count_before)
      << "post-split accesses must land on the tail's own base page";
  EXPECT_EQ(machine.arena().cold(head).access_count, head_count_before)
      << "post-split tail accesses must not aggregate to the old group head";
}

// --- TranslationCache unit tests ---

TEST(TranslationCacheTest, LookupInsertInvalidate) {
  TranslationCache tlb;
  PageInfo unit;
  unit.vpn = 7;
  EXPECT_EQ(tlb.Lookup(7), nullptr);
  tlb.Insert(7, &unit);
  EXPECT_EQ(tlb.Lookup(7), &unit);
  tlb.Invalidate(7);
  EXPECT_EQ(tlb.Lookup(7), nullptr);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 2u);
  EXPECT_EQ(tlb.invalidations(), 1u);
}

TEST(TranslationCacheTest, DirectMappedConflictEvicts) {
  TranslationCache tlb;
  PageInfo a;
  a.vpn = 3;
  PageInfo b;
  b.vpn = 3 + TranslationCache::kEntries;
  tlb.Insert(a.vpn, &a);
  tlb.Insert(b.vpn, &b);  // Same slot.
  EXPECT_EQ(tlb.Lookup(a.vpn), nullptr);
  EXPECT_EQ(tlb.Lookup(b.vpn), &b);
}

TEST(TranslationCacheTest, SlotValidatesAgainstUnitVpn) {
  // Slots are bare pointers: an entry must only translate the vpns its unit covers. A
  // base-page unit covers exactly its own vpn; a huge head covers its whole group.
  TranslationCache tlb;
  PageInfo base;
  base.vpn = 9;
  tlb.Insert(9, &base);
  EXPECT_EQ(tlb.Lookup(9 + TranslationCache::kEntries), nullptr);  // Aliased slot, no tag.

  PageInfo head;
  head.vpn = kBasePagesPerHugePage;  // Heads are group-aligned.
  head.Set(kPageHugeHead);
  const uint64_t tail = head.vpn + 17;
  tlb.Insert(tail, &head);
  EXPECT_EQ(tlb.Lookup(tail), &head);
  // One past the group: same head pointer must not cover it.
  tlb.Insert(head.vpn + kBasePagesPerHugePage, &head);
  EXPECT_EQ(tlb.Lookup(head.vpn + kBasePagesPerHugePage), nullptr);
}

TEST(TranslationCacheTest, InvalidateRangeCoversHugeGroup) {
  TranslationCache tlb;
  PageInfo head;
  head.vpn = 0;
  head.Set(kPageHugeHead);
  for (uint64_t vpn = 0; vpn < 8; ++vpn) {
    tlb.Insert(vpn, &head);
  }
  tlb.InvalidateRange(0, kBasePagesPerHugePage);  // 512 >= 8: all entries must go.
  for (uint64_t vpn = 0; vpn < 8; ++vpn) {
    EXPECT_EQ(tlb.Lookup(vpn), nullptr) << "vpn " << vpn;
  }
}

TEST(TranslationCacheTest, FastPathMaskRejectsIneligibleFlags) {
  PageInfo unit;
  unit.Set(kPagePresent);
  EXPECT_EQ(unit.flags & TranslationCache::kFastPathMask, kPagePresent);
  unit.Set(kPageProtNone);
  EXPECT_NE(unit.flags & TranslationCache::kFastPathMask, kPagePresent);
  unit.ClearFlag(kPageProtNone);
  unit.Set(kPageMigrating);
  EXPECT_NE(unit.flags & TranslationCache::kFastPathMask, kPagePresent);
}

}  // namespace
}  // namespace chronotier

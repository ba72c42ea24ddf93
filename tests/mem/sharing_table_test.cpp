#include "mem/sharing_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace spcd::mem {
namespace {

SharingTableConfig small_config() {
  SharingTableConfig c;
  c.num_entries = 64;
  c.granularity_shift = 12;
  return c;
}

std::vector<std::uint32_t> partners_of(const CommunicationEvent& e) {
  std::vector<std::uint32_t> v(e.partners, e.partners + e.partner_count);
  std::sort(v.begin(), v.end());
  return v;
}

TEST(SharingTableTest, FirstAccessHasNoPartners) {
  SharingTable st(small_config());
  const auto e = st.record_access(0x1000, 0, 10);
  EXPECT_EQ(e.partner_count, 0u);
}

TEST(SharingTableTest, SecondThreadCommunicatesWithFirst) {
  SharingTable st(small_config());
  st.record_access(0x1000, 0, 10);
  const auto e = st.record_access(0x1800, 1, 20);  // same 4K region
  EXPECT_EQ(partners_of(e), (std::vector<std::uint32_t>{0}));
}

TEST(SharingTableTest, SameThreadRepeatNoSelfCommunication) {
  SharingTable st(small_config());
  st.record_access(0x1000, 0, 10);
  const auto e = st.record_access(0x1000, 0, 20);
  EXPECT_EQ(e.partner_count, 0u);
}

TEST(SharingTableTest, ThirdThreadSeesBothSharers) {
  SharingTable st(small_config());
  st.record_access(0x1000, 0, 10);
  st.record_access(0x1000, 1, 20);
  const auto e = st.record_access(0x1000, 2, 30);
  EXPECT_EQ(partners_of(e), (std::vector<std::uint32_t>{0, 1}));
}

TEST(SharingTableTest, DifferentRegionsDoNotCommunicate) {
  SharingTable st(small_config());
  st.record_access(0x1000, 0, 10);
  const auto e = st.record_access(0x2000, 1, 20);  // next 4K region
  EXPECT_EQ(e.partner_count, 0u);
}

TEST(SharingTableTest, GranularityControlsRegionSize) {
  SharingTableConfig c = small_config();
  c.granularity_shift = 6;  // cache-line granularity
  SharingTable st(c);
  st.record_access(0x1000, 0, 10);
  // Same page, different 64-byte region: no communication detected.
  const auto e1 = st.record_access(0x1040, 1, 20);
  EXPECT_EQ(e1.partner_count, 0u);
  // Same 64-byte region: communication.
  const auto e2 = st.record_access(0x1004, 2, 30);
  EXPECT_EQ(partners_of(e2), (std::vector<std::uint32_t>{0}));
}

TEST(SharingTableTest, TemporalWindowSuppressesStaleSharing) {
  SharingTableConfig c = small_config();
  c.time_window = 100;
  SharingTable st(c);
  st.record_access(0x1000, 0, 10);
  // 200 cycles later: outside the window -> temporal false communication
  // suppressed (paper SIII-C2).
  const auto stale = st.record_access(0x1000, 1, 210);
  EXPECT_EQ(stale.partner_count, 0u);
  EXPECT_EQ(st.window_rejects(), 1u);
  // Thread 1's stamp is now fresh; a quick follow-up from thread 0 counts.
  const auto fresh = st.record_access(0x1000, 0, 250);
  EXPECT_EQ(partners_of(fresh), (std::vector<std::uint32_t>{1}));
}

TEST(SharingTableTest, ZeroWindowDisablesTemporalFilter) {
  SharingTable st(small_config());  // time_window = 0
  st.record_access(0x1000, 0, 0);
  const auto e = st.record_access(0x1000, 1, 1000000000ULL);
  EXPECT_EQ(e.partner_count, 1u);
  EXPECT_EQ(st.window_rejects(), 0u);
}

TEST(SharingTableTest, CollisionOverwriteDropsOldRegion) {
  SharingTableConfig c = small_config();
  c.num_entries = 1;  // everything collides
  SharingTable st(c);
  st.record_access(0x1000, 0, 10);
  st.record_access(0x2000, 1, 20);  // overwrites region of 0x1000
  EXPECT_EQ(st.collisions(), 1u);
  // Back to the first region: the entry was lost, so no partners.
  const auto e = st.record_access(0x1000, 2, 30);
  EXPECT_EQ(e.partner_count, 0u);
}

TEST(SharingTableTest, SharerListEvictsOldestWhenFull) {
  SharingTableConfig c = small_config();
  c.max_sharers = 2;
  SharingTable st(c);
  st.record_access(0x1000, 0, 10);
  st.record_access(0x1000, 1, 20);
  // Thread 2 arrives; list is full -> evict thread 0 (oldest stamp).
  const auto e2 = st.record_access(0x1000, 2, 30);
  EXPECT_EQ(partners_of(e2), (std::vector<std::uint32_t>{0, 1}));
  // Now sharers = {1, 2}; thread 3 communicates with those two only.
  const auto e3 = st.record_access(0x1000, 3, 40);
  EXPECT_EQ(partners_of(e3), (std::vector<std::uint32_t>{1, 2}));
}

TEST(SharingTableTest, OccupancyAndAccessCounters) {
  SharingTable st(small_config());
  st.record_access(0x1000, 0, 1);
  st.record_access(0x2000, 0, 2);
  st.record_access(0x1000, 1, 3);
  EXPECT_EQ(st.accesses(), 3u);
  EXPECT_EQ(st.occupied(), 2u);
}

TEST(SharingTableTest, ClearResetsEverything) {
  SharingTable st(small_config());
  st.record_access(0x1000, 0, 1);
  st.record_access(0x1000, 1, 2);
  st.clear();
  EXPECT_EQ(st.accesses(), 0u);
  EXPECT_EQ(st.occupied(), 0u);
  const auto e = st.record_access(0x1000, 2, 3);
  EXPECT_EQ(e.partner_count, 0u);
}

TEST(SharingTableTest, PaperSizedTableMemoryFootprint) {
  SharingTableConfig c;  // 256,000 entries, like Table I
  SharingTable st(c);
  // The paper reports 18 MiB; our entry layout should be the same order of
  // magnitude (tens of MiB, not hundreds).
  EXPECT_GT(st.memory_bytes(), 10ull * 1024 * 1024);
  EXPECT_LT(st.memory_bytes(), 64ull * 1024 * 1024);
}

TEST(SharingTableTest, ManyRegionsLowCollisionRate) {
  SharingTableConfig c;
  c.num_entries = 256000;
  SharingTable st(c);
  // 10,000 distinct regions in a 256,000-entry table: collisions exist but
  // must be rare (< 5%).
  for (std::uint64_t r = 0; r < 10000; ++r) {
    st.record_access(r << 12, 0, r);
  }
  EXPECT_LT(st.collisions(), 500u);
}

// --- admission guard (adversarial hardening, DESIGN.md §13) ---

SharingTableConfig guarded_config() {
  SharingTableConfig c;
  c.num_entries = 1;  // every region collides into the one bucket
  c.granularity_shift = 12;
  c.guard_admission = true;
  c.admission_max_refusals = 3;
  return c;
}

TEST(SharingTableTest, AdmissionGuardProtectsEstablishedEntries) {
  SharingTable st(guarded_config());
  // Establish region 0x1000 with two sharers: now "established".
  st.record_access(0x1000, 0, 10);
  st.record_access(0x1000, 1, 20);
  // A colliding region must knock max_refusals times before admission.
  // After two knocks the established entry is still fully intact: a third
  // sharer sees both originals (this touch also re-arms the guard).
  st.record_access(0x2000, 2, 31);
  st.record_access(0x2000, 2, 32);
  EXPECT_EQ(st.admissions_refused(), 2u);
  const auto e = st.record_access(0x1000, 3, 40);
  EXPECT_EQ(partners_of(e), (std::vector<std::uint32_t>{0, 1}));
  // Three fresh knocks wear the re-armed guard down...
  for (std::uint64_t knock = 1; knock <= 3; ++knock) {
    const auto refused = st.record_access(0x2000, 2, 50 + knock);
    EXPECT_EQ(refused.partner_count, 0u);
    EXPECT_EQ(st.admissions_refused(), 2 + knock);
  }
  // ...and the next one wins the bucket.
  st.record_access(0x2000, 2, 60);
  const auto after = st.record_access(0x2000, 4, 70);
  EXPECT_EQ(partners_of(after), (std::vector<std::uint32_t>{2}));
}

TEST(SharingTableTest, AdmissionGuardIgnoresSingleSharerEntries) {
  SharingTable st(guarded_config());
  st.record_access(0x1000, 0, 10);  // only one sharer: not established
  st.record_access(0x2000, 1, 20);  // overwrites immediately
  EXPECT_EQ(st.admissions_refused(), 0u);
  const auto e = st.record_access(0x2000, 2, 30);
  EXPECT_EQ(partners_of(e), (std::vector<std::uint32_t>{1}));
}

TEST(SharingTableTest, OwnRegionTouchReArmsTheGuard) {
  SharingTable st(guarded_config());
  st.record_access(0x1000, 0, 10);
  st.record_access(0x1000, 1, 20);
  st.record_access(0x2000, 2, 30);  // knock 1
  st.record_access(0x2000, 2, 31);  // knock 2
  st.record_access(0x1000, 0, 40);  // entry's own region: refusals reset
  // The flooder needs three fresh knocks again.
  st.record_access(0x2000, 2, 50);
  st.record_access(0x2000, 2, 51);
  st.record_access(0x2000, 2, 52);
  const auto still = st.record_access(0x1000, 3, 60);
  EXPECT_EQ(partners_of(still), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(st.admissions_refused(), 5u);
}

TEST(SharingTableTest, SuspectThreadsAreRefusedOutright) {
  SharingTable st(guarded_config());
  const std::uint8_t suspects[4] = {0, 0, 0, 1};  // tid 3 flagged
  st.set_suspects(suspects, 4);
  st.record_access(0x1000, 0, 10);
  st.record_access(0x1000, 1, 20);
  // A suspect never wears the guard down, no matter how often it knocks.
  for (std::uint64_t knock = 0; knock < 16; ++knock) {
    const auto e = st.record_access(0x2000, 3, 30 + knock);
    EXPECT_EQ(e.partner_count, 0u);
  }
  EXPECT_EQ(st.admissions_refused(), 16u);
  const auto e = st.record_access(0x1000, 2, 100);
  EXPECT_EQ(partners_of(e), (std::vector<std::uint32_t>{0, 1}));
}

TEST(SharingTableTest, GuardOffKeepsPaperOverwriteBehavior) {
  SharingTableConfig c = guarded_config();
  c.guard_admission = false;
  SharingTable st(c);
  st.record_access(0x1000, 0, 10);
  st.record_access(0x1000, 1, 20);
  st.record_access(0x2000, 2, 30);  // overwrites immediately (the paper)
  EXPECT_EQ(st.admissions_refused(), 0u);
  const auto e = st.record_access(0x2000, 3, 40);
  EXPECT_EQ(partners_of(e), (std::vector<std::uint32_t>{2}));
}

TEST(SharingTableDeathTest, InvalidConfigAborts) {
  SharingTableConfig c;
  c.num_entries = 0;
  EXPECT_DEATH(SharingTable st(c), "Precondition");
  SharingTableConfig c2;
  c2.max_sharers = 100;
  EXPECT_DEATH(SharingTable st2(c2), "Precondition");
}

}  // namespace
}  // namespace spcd::mem

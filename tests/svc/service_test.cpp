// SpcdService: the commit contracts (validate before journaling, journal
// before applying), the arbitration cadence, the metrics/decisions
// surfaces, and journal replay — a session rebuilt from its own journal
// reproduces the decision stream byte for byte.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "svc/driver.hpp"
#include "svc/service.hpp"

namespace spcd::svc {
namespace {

std::string tmp_journal(const char* name) { return testing::TempDir() + name; }

ServiceConfig small_config() {
  ServiceConfig config;
  config.arbitration_interval = 1024;
  return config;
}

std::vector<FaultRecord> pair_batch(std::uint32_t events) {
  std::vector<FaultRecord> batch;
  batch.reserve(events);
  for (std::uint32_t i = 0; i < events; ++i) {
    // Threads 0 and 1 alternate on the same page before moving to the
    // next one, so every access after the first finds its partner.
    batch.push_back({((i / 2) % 16) << 12, i % 2, i + 1});
  }
  return batch;
}

TEST(SvcServiceTest, RegisterAllocatesDisjointTidBlocks) {
  SpcdService service(small_config());
  const RegisterResult a = service.register_tenant("alpha", 4);
  const RegisterResult b = service.register_tenant("beta", 8);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.tenant_id, 1u);
  EXPECT_EQ(b.tenant_id, 2u);
  EXPECT_EQ(a.base_tid, 0u);
  EXPECT_EQ(b.base_tid, 4u);
  EXPECT_EQ(service.registered_tenants(), 2u);
  EXPECT_EQ(service.active_tenants(), 2u);
}

TEST(SvcServiceTest, RegisterRejectsInvalidRequestsWithoutJournaling) {
  SpcdService service(small_config());
  EXPECT_FALSE(service.register_tenant("", 4).ok);
  EXPECT_FALSE(service.register_tenant("bad name", 4).ok);
  EXPECT_FALSE(service.register_tenant("zero-threads", 0).ok);
  EXPECT_FALSE(
      service.register_tenant("too-wide", kMaxTenantThreads + 1).ok);
  EXPECT_EQ(service.registered_tenants(), 0u);
  EXPECT_EQ(service.journal_records(), 0u);
}

TEST(SvcServiceTest, UnopenableJournalAcksNothing) {
  // A journal that was asked for but could not be created is a failed
  // journal, not journal-less mode: nothing may be acked, because no ack
  // could be backed by a durable record.
  ServiceConfig config = small_config();
  config.journal_path = tmp_journal("svc_no_such_dir/session.journal");
  SpcdService service(config);
  EXPECT_FALSE(service.journal_ok());
  EXPECT_FALSE(service.register_tenant("alpha", 4).ok);
  // The failed register still left its tenant id in memory; a batch for
  // it must be refused with nothing applied.
  const IngestResult r = service.ingest(1, pair_batch(64));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "journal write failed");
  EXPECT_EQ(service.total_events(), 0u);
  EXPECT_EQ(service.journal_records(), 0u);
}

TEST(SvcServiceTest, IngestDetectsIntraTenantCommunication) {
  SpcdService service(small_config());
  const std::uint32_t id = service.register_tenant("comm", 2).tenant_id;
  const IngestResult r = service.ingest(id, pair_batch(256));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.comm_events, 0u);
  EXPECT_EQ(service.total_events(), 256u);
}

TEST(SvcServiceTest, IngestRejectsBadBatchesWithoutSideEffects) {
  SpcdService service(small_config());
  const std::uint32_t id = service.register_tenant("strict", 2).tenant_id;

  EXPECT_FALSE(service.ingest(id + 7, pair_batch(1)).ok);  // unknown tenant
  EXPECT_FALSE(
      service.ingest(id, {{0x1000, /*tid=*/2, 1}}).ok);  // tid out of range
  EXPECT_FALSE(
      service
          .ingest(id, std::vector<FaultRecord>(kMaxBatchEvents + 1,
                                               FaultRecord{0x1000, 0, 1}))
          .ok);  // oversized

  ASSERT_TRUE(service.tenant_exit(id));
  EXPECT_FALSE(service.ingest(id, pair_batch(1)).ok);  // exited tenant
  EXPECT_EQ(service.total_events(), 0u);
}

TEST(SvcServiceTest, ExitIsJournaledOnceAndIdempotentlyRejected) {
  SpcdService service(small_config());
  const std::uint32_t id = service.register_tenant("leaver", 2).tenant_id;
  EXPECT_TRUE(service.tenant_exit(id));
  EXPECT_FALSE(service.tenant_exit(id));
  EXPECT_FALSE(service.tenant_exit(id + 1));
  EXPECT_EQ(service.active_tenants(), 0u);
  EXPECT_EQ(service.registered_tenants(), 1u);
}

TEST(SvcServiceTest, ArbitrationFiresOnIntervalBoundaries) {
  ServiceConfig config = small_config();
  config.arbitration_interval = 512;
  SpcdService service(config);
  const std::uint32_t id = service.register_tenant("cadence", 2).tenant_id;
  EXPECT_TRUE(service.decisions().empty());
  ASSERT_TRUE(service.ingest(id, pair_batch(511)).ok);
  EXPECT_EQ(service.decisions().size(), 0u);  // boundary not crossed yet
  ASSERT_TRUE(service.ingest(id, pair_batch(1)).ok);  // crosses 512
  EXPECT_EQ(service.decisions().size(), 1u);
  ASSERT_TRUE(service.ingest(id, pair_batch(1024)).ok);  // crosses 1024+1536
  EXPECT_EQ(service.decisions().size(), 2u);
}

TEST(SvcServiceTest, MetricsJsonCarriesTenantsAndInterference) {
  SpcdService service(small_config());
  const std::uint32_t id = service.register_tenant("metrics", 2).tenant_id;
  ASSERT_TRUE(service.ingest(id, pair_batch(100)).ok);
  const std::string json = service.metrics_json();
  EXPECT_NE(json.find("\"schema\":\"spcd-service-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"active\""), std::string::npos);
  EXPECT_NE(json.find("\"generation\":0"), std::string::npos);
  EXPECT_NE(json.find("\"lifecycle\""), std::string::npos);
  EXPECT_NE(json.find("\"total_events\":100"), std::string::npos);
  // Every descriptor-exported interference counter appears by name.
  for (const core::InterferenceDescriptor& d :
       core::interference_metric_descriptors()) {
    std::string needle = "\"";
    needle += d.name;
    needle += "\"";
    EXPECT_NE(json.find(needle), std::string::npos) << d.name;
  }
}

TEST(SvcServiceTest, JournaledSessionReplaysByteIdentically) {
  const std::string path = tmp_journal("svc_service_replay.journal");
  std::remove(path.c_str());

  ServiceConfig config = small_config();
  config.journal_path = path;
  config.arbitration_interval = 512;

  std::string live_decisions;
  std::string live_metrics;
  {
    SpcdService service(config);
    DriverConfig driver;
    driver.tenants = 3;
    driver.threads_per_tenant = 4;
    const std::uint32_t t1 =
        service.register_tenant("replay-a", 4).tenant_id;
    const std::uint32_t t2 =
        service.register_tenant("replay-b", 4).tenant_id;
    const std::uint32_t t3 =
        service.register_tenant("replay-c", 4).tenant_id;
    for (std::uint32_t batch = 0; batch < 6; ++batch) {
      ASSERT_TRUE(service.ingest(t1, scripted_batch(driver, 0, batch)).ok);
      ASSERT_TRUE(service.ingest(t2, scripted_batch(driver, 1, batch)).ok);
      if (batch < 3) {
        ASSERT_TRUE(
            service.ingest(t3, scripted_batch(driver, 2, batch)).ok);
      }
    }
    ASSERT_TRUE(service.tenant_exit(t3));
    ASSERT_TRUE(service.ingest(t1, scripted_batch(driver, 0, 6)).ok);
    ASSERT_FALSE(service.decisions().empty());
    live_decisions = service.decisions_text();
    live_metrics = service.metrics_json();
  }

  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;
  ASSERT_NE(replayed.service, nullptr);
  EXPECT_GT(replayed.records_applied, 0u);
  EXPECT_GT(replayed.decisions_checked, 0u);
  EXPECT_EQ(replayed.digest_mismatches, 0u);
  EXPECT_FALSE(replayed.torn_tail);
  // The whole decision stream and the metrics snapshot — not just the
  // digests — must come back byte for byte.
  EXPECT_EQ(replayed.service->decisions_text(), live_decisions);
  EXPECT_EQ(replayed.service->metrics_json(), live_metrics);
  std::remove(path.c_str());
}

TEST(SvcServiceTest, ReplayToleratesTornTail) {
  const std::string path = tmp_journal("svc_service_torn.journal");
  std::remove(path.c_str());
  ServiceConfig config = small_config();
  config.journal_path = path;
  {
    SpcdService service(config);
    const std::uint32_t id = service.register_tenant("torn", 2).tenant_id;
    ASSERT_TRUE(service.ingest(id, pair_batch(64)).ok);
  }
  // Simulate a crash mid-append: chop bytes off the last record.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_GT(size, 8);
    ASSERT_EQ(::ftruncate(fileno(f), size - 5), 0);
    std::fclose(f);
  }
  const SpcdService::ReplayResult replayed = SpcdService::replay(path);
  ASSERT_TRUE(replayed.ok) << replayed.error;  // prefix still replays
  EXPECT_TRUE(replayed.torn_tail);
  ASSERT_NE(replayed.service, nullptr);
  EXPECT_EQ(replayed.service->registered_tenants(), 1u);
  std::remove(path.c_str());
}

TEST(SvcServiceTest, ReplayFailsOnMissingJournal) {
  const SpcdService::ReplayResult replayed =
      SpcdService::replay(tmp_journal("svc_service_missing.journal"));
  EXPECT_FALSE(replayed.ok);
  EXPECT_FALSE(replayed.error.empty());
}

}  // namespace
}  // namespace spcd::svc

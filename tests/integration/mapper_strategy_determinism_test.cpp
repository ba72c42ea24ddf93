// The determinism contract of the hierarchical strategy end to end: a full
// simulated run that remaps through the multilevel mapper (small cutoff so
// real coarsening happens even at 32 contexts) must produce identical
// results for any SPCD_JOBS value. SPCD_JOBS sizes both the cell pool and
// the refiner's pool, and the refinement scores gains against a frozen
// placement before applying serially — so worker counts must never leak
// into simulated time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/runner.hpp"
#include "workloads/npb.hpp"

namespace spcd {
namespace {

std::vector<core::RunMetrics> run_hierarchical(const char* jobs) {
  ::setenv("SPCD_JOBS", jobs, 1);
  core::RunnerConfig config;
  config.repetitions = 2;
  config.jobs = 0;  // resolve through SPCD_JOBS
  config.spcd.mapping_interval = 200'000;
  config.spcd.min_matrix_total = 50;
  config.spcd.mapping.strategy = "hierarchical";
  config.spcd.mapping.blossom_cutoff = 4;
  config.spcd.mapping.refine_jobs = 0;  // follow SPCD_JOBS
  core::Runner runner(config);
  auto runs = runner.run_policy("cg", workloads::nas_factory("cg", 0.1),
                                core::MappingPolicy::kSpcd);
  ::unsetenv("SPCD_JOBS");
  return runs;
}

TEST(MapperStrategyDeterminismTest, HierarchicalRunsAgreeAcrossWorkerCounts) {
  const auto serial = run_hierarchical("1");
  const auto parallel = run_hierarchical("4");
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t rep = 0; rep < serial.size(); ++rep) {
    EXPECT_EQ(serial[rep].exec_seconds, parallel[rep].exec_seconds);
    EXPECT_EQ(serial[rep].instructions, parallel[rep].instructions);
    EXPECT_EQ(serial[rep].minor_faults, parallel[rep].minor_faults);
    EXPECT_EQ(serial[rep].injected_faults, parallel[rep].injected_faults);
    EXPECT_EQ(serial[rep].migration_events, parallel[rep].migration_events);
    EXPECT_EQ(serial[rep].c2c_transactions, parallel[rep].c2c_transactions);
  }
}

TEST(MapperStrategyDeterminismTest, HierarchicalActuallyRemaps) {
  const auto runs = run_hierarchical("2");
  ASSERT_FALSE(runs.empty());
  std::uint64_t migrations = 0;
  for (const auto& m : runs) migrations += m.migration_events;
  EXPECT_GT(migrations, 0u) << "the strategy never produced a remap, so the "
                               "determinism check above was vacuous";
}

}  // namespace
}  // namespace spcd

#include "core/hierarchical_mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/mapper.hpp"
#include "core/mapping_strategy.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"

namespace spcd::core {
namespace {

arch::Topology xeon() {
  return arch::Topology(arch::TopologySpec{.sockets = 2,
                                           .cores_per_socket = 8,
                                           .smt_per_core = 2});
}

/// Clustered matrix: all-pairs traffic inside blocks of 8, light ring
/// links between blocks, a sprinkle of background edges — the shape the
/// coarsening is built for.
CommMatrix clustered_matrix(std::uint32_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  CommMatrix m(n);
  for (std::uint32_t base = 0; base < n; base += 8) {
    const std::uint32_t end = std::min(base + 8, n);
    for (std::uint32_t i = base; i < end; ++i) {
      for (std::uint32_t j = i + 1; j < end; ++j) {
        m.add(i, j, 600 + rng.below(400));
      }
    }
    if (base > 0) m.add(base - 1, base, 120 + rng.below(60));
  }
  for (std::uint32_t e = 0; e < 2 * n; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.below(n));
    const auto b = static_cast<std::uint32_t>(rng.below(n));
    if (a != b) m.add(std::min(a, b), std::max(a, b), 1 + rng.below(20));
  }
  return m;
}

void expect_valid_placement(const sim::Placement& p, std::uint32_t contexts) {
  std::set<arch::ContextId> used;
  for (const auto ctx : p) {
    EXPECT_LT(ctx, contexts);
    EXPECT_TRUE(used.insert(ctx).second) << "duplicate context " << ctx;
  }
}

TEST(HierarchicalMapperTest, CoarseningPartitionsTheThreads) {
  const auto m = clustered_matrix(64, 5);
  const Coarsening c = coarsen_comm_matrix(m, 8);
  ASSERT_LE(c.groups.size(), 8u);
  ASSERT_GE(c.groups.size(), 1u);
  std::vector<bool> seen(64, false);
  for (const auto& group : c.groups) {
    for (const std::uint32_t t : group) {
      ASSERT_LT(t, 64u);
      EXPECT_FALSE(seen[t]) << "thread " << t << " in two groups";
      seen[t] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(HierarchicalMapperTest, CoarseGroupOfAgreesWithGroupMembership) {
  const auto m = clustered_matrix(64, 6);
  const Coarsening c = coarsen_comm_matrix(m, 8);
  const auto ids = coarse_group_of(c);
  ASSERT_EQ(ids.size(), 64u);
  for (std::size_t g = 0; g < c.groups.size(); ++g) {
    for (const std::uint32_t t : c.groups[g]) {
      EXPECT_EQ(ids[t], g) << "levels walk disagrees for thread " << t;
    }
  }
}

TEST(HierarchicalMapperTest, FoldedWeightsAreExactGroupWeights) {
  const auto m = clustered_matrix(48, 7);
  const Coarsening c = coarsen_comm_matrix(m, 6);
  const std::size_t g = c.groups.size();
  ASSERT_EQ(c.weights.size(), g * g);
  for (std::size_t x = 0; x < g; ++x) {
    EXPECT_EQ(c.weights[x * g + x], 0u);
    for (std::size_t y = x + 1; y < g; ++y) {
      const std::uint64_t expected = m.group_weight(c.groups[x], c.groups[y]);
      EXPECT_EQ(c.weights[x * g + y], expected) << x << "," << y;
      EXPECT_EQ(c.weights[y * g + x], expected) << y << "," << x;
    }
  }
}

TEST(HierarchicalMapperTest, UncoarsenProjectsAssignmentsRoundTrip) {
  const auto m = clustered_matrix(32, 8);
  const Coarsening c = coarsen_comm_matrix(m, 4);
  std::vector<std::uint32_t> coarse(c.groups.size());
  for (std::size_t g = 0; g < coarse.size(); ++g) {
    coarse[g] = static_cast<std::uint32_t>(100 + g);
  }
  const auto fine = uncoarsen_assignment(c, coarse);
  ASSERT_EQ(fine.size(), 32u);
  const auto ids = coarse_group_of(c);
  for (std::uint32_t t = 0; t < 32; ++t) {
    EXPECT_EQ(fine[t], 100 + ids[t]);
  }
}

TEST(HierarchicalMapperTest, RefinementNeverIncreasesCost) {
  const auto topo = xeon();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto m = clustered_matrix(32, seed);
    sim::Placement placement = random_placement(topo, 32, seed);
    const double before = placement_comm_cost(m, topo, placement);
    const RefineStats stats = refine_placement(m, topo, placement, 4, 1);
    expect_valid_placement(placement, topo.num_contexts());
    const double after = placement_comm_cost(m, topo, placement);
    EXPECT_LE(after, before) << "seed " << seed;
    if (stats.swaps > 0) {
      EXPECT_LT(after, before) << "seed " << seed;
    }
  }
}

TEST(HierarchicalMapperTest, RefinementPullsAStrongPairOntoOneCore) {
  const auto topo = xeon();
  CommMatrix m(4);
  m.add(0, 1, 1000);
  // Thread 1 starts on the far socket; its SMT sibling slot next to
  // thread 0 is occupied by an uncommunicative thread 2.
  sim::Placement placement = {0, 16, 1, 17};
  const double before = placement_comm_cost(m, topo, placement);
  const RefineStats stats = refine_placement(m, topo, placement, 1, 1);
  EXPECT_GE(stats.swaps, 1u);
  EXPECT_EQ(topo.proximity(placement[0], placement[1]),
            arch::Proximity::kSameCore);
  EXPECT_LT(placement_comm_cost(m, topo, placement), before);
}

TEST(HierarchicalMapperTest, RefinementLeavesOvercommittedPlacementsAlone) {
  const auto topo = xeon();
  CommMatrix m(3);
  m.add(0, 1, 500);
  sim::Placement placement = {0, 0, 16};  // two threads on context 0
  const sim::Placement frozen = placement;
  const RefineStats stats = refine_placement(m, topo, placement, 2, 1);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(placement, frozen);
}

TEST(HierarchicalMapperTest, SmallInstancesMatchBlossomExactly) {
  // At or below the cutoff no coarsening happens, so with refinement off
  // the multilevel pipeline degenerates to the exact grouping tree.
  const auto topo = xeon();
  MappingConfig config;
  config.strategy = "hierarchical";
  config.refine_passes = 0;
  const auto blossom = make_mapping_strategy({});
  for (std::uint32_t n = 2; n <= 8; ++n) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      util::Xoshiro256 rng(seed * 101 + n);
      CommMatrix m(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = i + 1; j < n; ++j) {
          const auto w = rng.below(1000);
          if (w > 0) m.add(i, j, w);
        }
      }
      const auto hier =
          hierarchical_mapping(m, topo, sim::Placement{}, config).placement;
      const auto exact = blossom->map(m, topo).placement;
      EXPECT_EQ(hier, exact) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(HierarchicalMapperTest, RefinementOnlyImprovesTheFullPipeline) {
  const auto topo = xeon();
  const auto m = clustered_matrix(32, 12);
  MappingConfig off;
  off.strategy = "hierarchical";
  off.blossom_cutoff = 4;  // force real coarsening at n=32
  off.refine_passes = 0;
  MappingConfig on = off;
  on.refine_passes = 4;
  const double unrefined = placement_comm_cost(
      m, topo, hierarchical_mapping(m, topo, {}, off).placement);
  const double refined = placement_comm_cost(
      m, topo, hierarchical_mapping(m, topo, {}, on).placement);
  EXPECT_LE(refined, unrefined);
}

TEST(HierarchicalMapperTest, ResultIsIdenticalAtAnyRefineJobCount) {
  // 256 threads on the quad-socket preset crosses the parallel-scoring
  // threshold, so this exercises the frozen-gain fan-out for real.
  const arch::Topology topo(arch::TopologySpec{.sockets = 4,
                                               .cores_per_socket = 32,
                                               .smt_per_core = 2});
  const auto m = clustered_matrix(256, 21);
  MappingConfig config;
  config.strategy = "hierarchical";
  sim::Placement baseline;
  for (const std::uint32_t jobs : {1u, 2u, 7u}) {
    config.refine_jobs = jobs;
    const auto placement = hierarchical_mapping(m, topo, {}, config).placement;
    if (baseline.empty()) {
      baseline = placement;
      expect_valid_placement(baseline, topo.num_contexts());
    } else {
      EXPECT_EQ(placement, baseline) << "jobs=" << jobs;
    }
  }
}

TEST(HierarchicalMapperTest, ThousandContextSmoke) {
  const arch::Topology topo(arch::TopologySpec{.sockets = 8,
                                               .cores_per_socket = 64,
                                               .smt_per_core = 2});
  const auto m = clustered_matrix(1024, 17);
  MappingConfig config;
  config.strategy = "hierarchical";
  const auto result = hierarchical_mapping(m, topo, {}, config);
  ASSERT_EQ(result.placement.size(), 1024u);
  expect_valid_placement(result.placement, topo.num_contexts());
  const double mapped = placement_comm_cost(m, topo, result.placement);
  const double spread =
      placement_comm_cost(m, topo, os_spread_placement(topo, 1024));
  EXPECT_LT(mapped, 0.5 * spread);
}

}  // namespace
}  // namespace spcd::core

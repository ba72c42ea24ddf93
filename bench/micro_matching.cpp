// Micro-benchmark: Edmonds maximum-weight perfect matching and the full
// hierarchical mapping, at thread counts from 8 to 128. The paper argues
// the polynomial matching is cheap enough to run online; this quantifies
// the claim (and calibrates the mapping-overhead cost model).
#include <benchmark/benchmark.h>

#include "arch/topology.hpp"
#include "core/mapping_strategy.hpp"
#include "core/matching.hpp"
#include "util/rng.hpp"

namespace {

using namespace spcd;

core::CommMatrix band_matrix(std::uint32_t n, std::uint64_t seed) {
  core::CommMatrix m(n);
  util::Xoshiro256 rng(seed);
  for (std::uint32_t t = 0; t + 1 < n; ++t) {
    m.add(t, t + 1, 500 + rng.below(500));
  }
  for (std::uint32_t t = 0; t + 2 < n; ++t) {
    m.add(t, t + 2, rng.below(100));
  }
  return m;
}

void BM_MaxWeightMatching(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Xoshiro256 rng(7);
  std::vector<core::WeightedEdge> edges;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      edges.push_back({i, j, static_cast<std::int64_t>(rng.below(1000))});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::max_weight_matching(n, edges, true));
  }
}
BENCHMARK(BM_MaxWeightMatching)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_HierarchicalMapping32(benchmark::State& state) {
  arch::Topology topo(arch::TopologySpec{.sockets = 2, .cores_per_socket = 8,
                                         .smt_per_core = 2});
  const auto m = band_matrix(32, 3);
  const auto strategy = core::make_mapping_strategy({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->map(m, topo));
  }
}
BENCHMARK(BM_HierarchicalMapping32);

void BM_GreedyMapping32(benchmark::State& state) {
  arch::Topology topo(arch::TopologySpec{.sockets = 2, .cores_per_socket = 8,
                                         .smt_per_core = 2});
  const auto m = band_matrix(32, 3);
  core::MappingConfig config;
  config.strategy = "greedy";
  const auto strategy = core::make_mapping_strategy(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->map(m, topo));
  }
}
BENCHMARK(BM_GreedyMapping32);

}  // namespace

BENCHMARK_MAIN();

#include "core/mapping_strategy.hpp"

#include <algorithm>

#include "core/hierarchical_mapper.hpp"
#include "core/mapper_detail.hpp"

namespace spcd::core {

std::uint64_t MappingStrategy::decision_cost(std::uint32_t num_threads,
                                             const SpcdConfig& config) const {
  // The Edmonds polynomial model the kernel has always charged:
  // base + c * N^3 (SpcdConfig::matching_*).
  const std::uint64_t n = num_threads;
  return config.matching_base_cost +
         config.matching_cost_per_thread_cubed * n * n * n;
}

namespace {

using detail::compute_with;
using detail::merge_round_greedy;
using detail::merge_round_matched;

// The thread mapping algorithm of Section IV-B: model the communication
// matrix as a complete weighted graph, pair threads with Edmonds' maximum
// weight perfect matching, then repeatedly pair the resulting groups using
// the heuristic of Eq. (1) (group-to-group weight = sum of member-pairwise
// communication), building a binary grouping tree. Leaves of that tree, in
// tree order, are assigned to hardware contexts in topology order — so the
// tightest pairs land on SMT siblings, the next level shares L2/L3, and the
// loosest split crosses sockets. A non-empty `current` keeps groups on
// their current symmetric resources where it can, so repeated remaps do
// not churn the whole fleet.
class BlossomStrategy final : public MappingStrategy {
 public:
  std::string_view name() const override { return "blossom"; }
  MappingResult map(const CommMatrix& matrix, const arch::Topology& topology,
                    const sim::Placement& current) const override {
    return compute_with(matrix, topology, merge_round_matched, current);
  }
};

// Greedy baseline for the ablation study (DESIGN.md S5.6): repeatedly pair
// the two unmatched threads with the highest mutual communication instead
// of solving the matching optimally.
class GreedyStrategy final : public MappingStrategy {
 public:
  std::string_view name() const override { return "greedy"; }
  MappingResult map(const CommMatrix& matrix, const arch::Topology& topology,
                    const sim::Placement& current) const override {
    (void)current;  // the greedy baseline has no placement-stable mode
    return compute_with(matrix, topology, merge_round_greedy, sim::Placement{});
  }
};

class HierarchicalStrategy final : public MappingStrategy {
 public:
  explicit HierarchicalStrategy(const MappingConfig& config)
      : config_(config) {}
  std::string_view name() const override { return "hierarchical"; }
  MappingResult map(const CommMatrix& matrix, const arch::Topology& topology,
                    const sim::Placement& current) const override {
    return hierarchical_mapping(matrix, topology, current, config_);
  }
  std::uint64_t decision_cost(std::uint32_t num_threads,
                              const SpcdConfig& config) const override {
    // Coarsening and each refinement sweep visit Theta(N^2) pairs (2
    // cycles per visit, like the filter's per-pair constant); the exact
    // Blossom solve is capped at the cutoff level.
    const std::uint64_t n = num_threads;
    const std::uint64_t cutoff = std::min<std::uint64_t>(
        n, std::max<std::uint32_t>(config_.blossom_cutoff, 2));
    return config.matching_base_cost +
           config.matching_cost_per_thread_cubed * cutoff * cutoff * cutoff +
           2 * n * n * (config_.refine_passes + 1);
  }

 private:
  MappingConfig config_;
};

std::unique_ptr<MappingStrategy> make_blossom(const MappingConfig&) {
  return std::make_unique<BlossomStrategy>();
}
std::unique_ptr<MappingStrategy> make_greedy(const MappingConfig&) {
  return std::make_unique<GreedyStrategy>();
}
std::unique_ptr<MappingStrategy> make_hierarchical(const MappingConfig& c) {
  return std::make_unique<HierarchicalStrategy>(c);
}

constexpr std::array<MappingRegistryEntry, 3> kRegistry = {{
    {"blossom", "exact Edmonds grouping (the paper's algorithm; default)",
     &make_blossom},
    {"greedy", "greedy pairing baseline (ablation)", &make_greedy},
    {"hierarchical", "multilevel coarsen/map/refine for large machines",
     &make_hierarchical},
}};

static_assert(kRegistry.size() == mapping_strategy_names().size());

}  // namespace

std::span<const MappingRegistryEntry> mapping_registry() { return kRegistry; }

std::optional<MappingRegistryEntry> parse_mapping_strategy(
    std::string_view name) {
  for (const MappingRegistryEntry& entry : kRegistry) {
    if (entry.name == name) return entry;
  }
  return std::nullopt;
}

std::string mapping_strategy_list() {
  std::string out;
  for (const MappingRegistryEntry& entry : kRegistry) {
    if (!out.empty()) out += '|';
    out += entry.name;
  }
  return out;
}

std::string MappingConfig::validate() const {
  if (!parse_mapping_strategy(strategy)) {
    return "mapping.strategy '" + strategy +
           "' is not a registered mapping strategy (expected " +
           mapping_strategy_list() + ")";
  }
  if (blossom_cutoff < 2 || blossom_cutoff > 4096) {
    return "mapping.blossom_cutoff must be in [2, 4096] (the exact-solve "
           "level must hold at least one pair)";
  }
  if (refine_passes > 64) {
    return "mapping.refine_passes must be <= 64";
  }
  if (refine_jobs > 1024) {
    return "mapping.refine_jobs must be <= 1024 (0 follows SPCD_JOBS)";
  }
  return {};
}

std::unique_ptr<MappingStrategy> make_mapping_strategy(
    const MappingConfig& config) {
  if (std::string error = config.validate(); !error.empty()) {
    throw ConfigError(error);
  }
  return parse_mapping_strategy(config.strategy)->make(config);
}

}  // namespace spcd::core

// Internals shared by the mapping strategies (core/mapping_strategy.hpp):
// the merge-round workspace and the grouping-tree driver behind the Blossom
// and greedy mappers, reused verbatim by the hierarchical multilevel mapper
// for its exact small levels. Not installed; include only from src/core
// and its tests.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "arch/topology.hpp"
#include "core/comm_matrix.hpp"
#include "core/mapper.hpp"
#include "core/matching.hpp"
#include "util/contracts.hpp"

namespace spcd::core::detail {

using Group = std::vector<std::uint32_t>;

/// Preallocated buffers for the merge rounds, reused across rounds so a
/// mapping computation allocates once, not per round. `weight` memoizes
/// the pairwise group weights: when groups merge, the new pair weight is
/// the exact integer sum of the old ones (Eq. 1 is additive over group
/// members), so no round after the first ever rescans the matrix.
struct MergeWorkspace {
  std::vector<std::uint64_t> weight;  ///< g*g pairwise group weights
  std::vector<std::uint64_t> next;    ///< next round's weights (swapped in)
  std::vector<std::uint64_t> rows;    ///< fold_weights row-sum scratch
  std::vector<std::int64_t> dense;    ///< Edmonds dense input buffer
  /// Each merged group's source indices in the previous round (second is
  /// -1 for pass-through groups).
  std::vector<std::array<std::int32_t, 2>> sources;

  void init(const CommMatrix& matrix) {
    const std::uint32_t n = matrix.size();
    weight.assign(static_cast<std::size_t>(n) * n, 0);
    // Stream the flat triangle (row-major, same (i, j) order as nested
    // at() calls) instead of per-pair lookups: at 1024 threads this is
    // the difference between ~2 ms and ~10 ms of init.
    const std::span<const std::uint64_t> tri = matrix.triangle();
    std::size_t k = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j, ++k) {
        const std::uint64_t w = tri[k];
        if (w != 0) {
          weight[static_cast<std::size_t>(i) * n + j] = w;
          weight[static_cast<std::size_t>(j) * n + i] = w;
        }
      }
    }
  }

  /// Fold the previous round's weights into the merged groups recorded in
  /// `sources` (called after a round built `sources`).
  void fold_weights(std::size_t old_g) {
    const std::size_t m = sources.size();
    // Two cache-friendly sweeps instead of gather-per-pair: fold source
    // rows into m x old_g partial sums (sequential adds), then collapse
    // the columns. Same exact integer sums, an order of magnitude fewer
    // cache misses on 1024-group rounds.
    rows.assign(m * old_g, 0);
    for (std::size_t x = 0; x < m; ++x) {
      std::uint64_t* dst = rows.data() + x * old_g;
      for (const std::int32_t a : sources[x]) {
        if (a < 0) continue;
        const std::uint64_t* src =
            weight.data() + static_cast<std::size_t>(a) * old_g;
        for (std::size_t j = 0; j < old_g; ++j) dst[j] += src[j];
      }
    }
    next.assign(m * m, 0);
    for (std::size_t x = 0; x < m; ++x) {
      const std::uint64_t* row = rows.data() + x * old_g;
      for (std::size_t y = 0; y < m; ++y) {
        if (y == x) continue;
        std::uint64_t w = 0;
        for (const std::int32_t b : sources[y]) {
          if (b >= 0) w += row[static_cast<std::size_t>(b)];
        }
        next[x * m + y] = w;
      }
    }
    weight.swap(next);
  }
};

/// One matching round: pair groups to maximize inter-group communication
/// (Eq. 1), merging matched pairs. Unmatched groups (odd counts) pass
/// through unchanged.
inline std::vector<Group> merge_round_matched(
    MergeWorkspace& ws, const std::vector<Group>& groups) {
  const int g = static_cast<int>(groups.size());
  ws.dense.assign(static_cast<std::size_t>(g) * static_cast<std::size_t>(g),
                  0);
  for (std::size_t i = 0; i < ws.dense.size(); ++i) {
    ws.dense[i] = static_cast<std::int64_t>(ws.weight[i]);
  }
  const std::vector<int> mate =
      max_weight_matching_dense(ws.dense, g, /*max_cardinality=*/true);

  std::vector<Group> merged;
  merged.reserve((groups.size() + 1) / 2);
  ws.sources.clear();
  for (int i = 0; i < g; ++i) {
    const int m = mate[static_cast<std::size_t>(i)];
    if (m != -1 && m < i) continue;  // already merged by the lower index
    Group next = groups[static_cast<std::size_t>(i)];
    if (m != -1) {
      const Group& other = groups[static_cast<std::size_t>(m)];
      next.insert(next.end(), other.begin(), other.end());
    }
    ws.sources.push_back({i, m});
    merged.push_back(std::move(next));
  }
  ws.fold_weights(static_cast<std::size_t>(g));
  return merged;
}

inline std::vector<Group> merge_round_greedy(MergeWorkspace& ws,
                                             const std::vector<Group>& groups) {
  const std::size_t g = groups.size();
  std::vector<bool> used(g, false);
  struct Pair {
    std::uint64_t weight;
    std::size_t i, j;
  };
  std::vector<Pair> pairs;
  pairs.reserve(g * g / 2);
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = i + 1; j < g; ++j) {
      pairs.push_back(Pair{ws.weight[i * g + j], i, j});
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair& a, const Pair& b) {
                     return a.weight > b.weight;
                   });
  std::vector<Group> merged;
  merged.reserve((g + 1) / 2);
  ws.sources.clear();
  for (const auto& p : pairs) {
    if (used[p.i] || used[p.j]) continue;
    used[p.i] = used[p.j] = true;
    Group next = groups[p.i];
    next.insert(next.end(), groups[p.j].begin(), groups[p.j].end());
    ws.sources.push_back({static_cast<std::int32_t>(p.i),
                          static_cast<std::int32_t>(p.j)});
    merged.push_back(std::move(next));
  }
  for (std::size_t i = 0; i < g; ++i) {
    if (!used[i]) {
      ws.sources.push_back({static_cast<std::int32_t>(i), -1});
      merged.push_back(groups[i]);
    }
  }
  ws.fold_weights(g);
  return merged;
}

/// One heavy-edge-matching round (the coarsening rule of multilevel graph
/// partitioners): visit groups in order of their heaviest incident weight
/// and pair each with its heaviest still-unmatched neighbor. O(g^2) against
/// the memoized weights — no Blossom solve — which is what makes coarsening
/// rounds affordable at 1024+ groups. Pairs even zero-weight groups so each
/// round halves the count (same termination guarantee as the exact round).
inline std::vector<Group> merge_round_heavy_edge(
    MergeWorkspace& ws, const std::vector<Group>& groups) {
  const std::size_t g = groups.size();
  // Heaviest incident weight and its lowest-index argmax per group. The
  // argmax doubles as a pairing shortcut below: while it is unmatched it
  // IS the heaviest unmatched neighbor (no lower index can tie it), so
  // most groups pair without a second row scan.
  std::vector<std::uint64_t> best(g, 0);
  std::vector<std::uint32_t> best_at(g, 0);
  for (std::size_t i = 0; i < g; ++i) {
    const std::uint64_t* row = ws.weight.data() + i * g;
    for (std::size_t j = 0; j < g; ++j) {
      if (j != i && row[j] > best[i]) {
        best[i] = row[j];
        best_at[i] = static_cast<std::uint32_t>(j);
      }
    }
  }
  std::vector<std::uint32_t> order(g);
  for (std::size_t i = 0; i < g; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&best](std::uint32_t a, std::uint32_t b) {
                     return best[a] > best[b];
                   });

  std::vector<bool> used(g, false);
  std::vector<Group> merged;
  merged.reserve((g + 1) / 2);
  ws.sources.clear();
  for (const std::uint32_t v : order) {
    if (used[v]) continue;
    // Heaviest unmatched partner; ties to the lowest index, like the
    // matrix's own partner tie rule.
    std::int64_t partner = -1;
    if (best[v] > 0 && !used[best_at[v]]) {
      partner = static_cast<std::int64_t>(best_at[v]);
    } else {
      std::uint64_t partner_w = 0;
      for (std::size_t j = 0; j < g; ++j) {
        if (j == v || used[j]) continue;
        const std::uint64_t w = ws.weight[static_cast<std::size_t>(v) * g + j];
        if (partner < 0 || w > partner_w) {
          partner = static_cast<std::int64_t>(j);
          partner_w = w;
        }
      }
    }
    used[v] = true;
    Group next = groups[v];
    if (partner >= 0) {
      used[static_cast<std::size_t>(partner)] = true;
      const Group& other = groups[static_cast<std::size_t>(partner)];
      next.insert(next.end(), other.begin(), other.end());
    }
    ws.sources.push_back({static_cast<std::int32_t>(v),
                          static_cast<std::int32_t>(partner)});
    merged.push_back(std::move(next));
  }
  ws.fold_weights(g);
  return merged;
}

// Recursively assign a segment of the leaf order to a contiguous block of
// contexts, choosing among the symmetric sub-block assignments the one
// keeping most threads on their current context. Arities are consumed from
// the root of the topology tree downward.
inline void assign_aligned(std::span<const std::uint32_t> segment,
                           arch::ContextId ctx_base,
                           std::span<const std::uint32_t> arities_top_down,
                           const sim::Placement& current,
                           sim::Placement& placement) {
  if (segment.size() == 1) {
    placement[segment[0]] = ctx_base;
    return;
  }
  SPCD_ASSERT(!arities_top_down.empty());
  const std::uint32_t arity = arities_top_down[0];
  const auto sub_size = static_cast<std::uint32_t>(segment.size()) / arity;
  SPCD_ASSERT(sub_size * arity == segment.size());

  // Overlap weights: how many threads of sub-segment i already sit in
  // context block j. Solved as a small assignment problem with the same
  // Edmonds solver used for the grouping itself (bipartite instance).
  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(arity) * arity);
  for (std::uint32_t i = 0; i < arity; ++i) {
    for (std::uint32_t j = 0; j < arity; ++j) {
      std::int64_t overlap = 0;
      for (std::uint32_t k = 0; k < sub_size; ++k) {
        const std::uint32_t tid = segment[i * sub_size + k];
        const arch::ContextId ctx = current[tid];
        if (ctx >= ctx_base + j * sub_size &&
            ctx < ctx_base + (j + 1) * sub_size) {
          ++overlap;
        }
      }
      edges.push_back(WeightedEdge{static_cast<int>(i),
                                   static_cast<int>(arity + j), overlap});
    }
  }
  const std::vector<int> mate = max_weight_matching(
      static_cast<int>(2 * arity), edges, /*max_cardinality=*/true);

  for (std::uint32_t i = 0; i < arity; ++i) {
    const int m = mate[i];
    SPCD_ASSERT(m >= static_cast<int>(arity));
    const auto block = static_cast<std::uint32_t>(m) - arity;
    assign_aligned(segment.subspan(i * sub_size, sub_size),
                   ctx_base + block * sub_size, arities_top_down.subspan(1),
                   current, placement);
  }
}

/// The grouping-tree driver: merge rounds until one group remains, then
/// assign the leaf order to contexts in topology order (placement-stable
/// when `current` fills the machine exactly). `merge(ws, groups)` picks the
/// pairing rule per round — strategies switch rules by group count.
template <typename MergeFn>
MappingResult compute_with(const CommMatrix& matrix,
                           const arch::Topology& topology, MergeFn merge,
                           const sim::Placement& current) {
  const std::uint32_t n = matrix.size();
  SPCD_EXPECTS(n <= topology.num_contexts());

  std::vector<Group> groups;
  groups.reserve(n);
  for (std::uint32_t t = 0; t < n; ++t) groups.push_back(Group{t});

  MergeWorkspace ws;
  ws.init(matrix);
  MappingResult result;
  while (groups.size() > 1) {
    groups = merge(ws, groups);
    ++result.rounds;
    SPCD_ASSERT(result.rounds <= 64);  // halving must terminate
  }

  // The grouping tree's leaf order places tightly communicating threads in
  // adjacent slots; topology context ids are laid out so adjacent slots are
  // nearest in the hierarchy (SMT, then core, then socket).
  const Group& order = groups.front();
  SPCD_ASSERT(order.size() == n);
  result.placement.assign(n, 0);

  // Placement-stable assignment: only possible when the thread count fills
  // the machine exactly (segments then line up with topology blocks).
  auto arities = topology.arity_path();          // leaf -> root
  std::reverse(arities.begin(), arities.end());  // root -> leaf
  const bool alignable =
      current.size() == n && n == topology.num_contexts();
  if (alignable) {
    assign_aligned(order, 0, arities, current, result.placement);
  } else {
    for (std::uint32_t slot = 0; slot < n; ++slot) {
      result.placement[order[slot]] = slot;
    }
  }
  return result;
}

}  // namespace spcd::core::detail

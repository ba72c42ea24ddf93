#include "sim/memory_hierarchy.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace spcd::sim {

namespace {
constexpr std::uint32_t bit(std::uint32_t i) { return 1u << i; }
}  // namespace

MemoryHierarchy::MemoryHierarchy(const arch::MachineSpec& spec,
                                 const arch::Topology& topo)
    : spec_(spec), topo_(topo) {
  SPCD_EXPECTS(topo.num_cores() <= 32);   // core_mask is 32 bits
  SPCD_EXPECTS(topo.num_sockets() <= 8);  // l3_mask is 8 bits
  l1_.reserve(topo.num_cores());
  l2_.reserve(topo.num_cores());
  for (std::uint32_t c = 0; c < topo.num_cores(); ++c) {
    l1_.emplace_back(spec.l1);
    l2_.emplace_back(spec.l2);
  }
  l3_.reserve(topo.num_sockets());
  for (std::uint32_t s = 0; s < topo.num_sockets(); ++s) {
    l3_.emplace_back(spec.l3);
  }
  // The directory grows on demand: sizing it to the working set keeps the
  // probe footprint cache-resident for small runs (a fixed megabyte-scale
  // reservation made every probe a cold miss).
  dram_free_at_.assign(topo.num_sockets(), 0);
}

arch::Proximity MemoryHierarchy::write_upgrade(arch::CoreId keep_core,
                                               std::uint64_t line,
                                               LineState& state) {
  auto farthest = arch::Proximity::kSameContext;  // "no other copy"
  const arch::SocketId keep_socket = topo_.socket_of_core(keep_core);

  std::uint32_t others = state.core_mask & ~bit(keep_core);
  while (others != 0) {
    const auto core = static_cast<arch::CoreId>(
        static_cast<std::uint32_t>(__builtin_ctz(others)));
    others &= others - 1;
    l1_[core].invalidate(line);
    l2_[core].invalidate(line);
    state.core_mask &= ~bit(core);
    ++counters_.invalidations;
    const auto prox = topo_.socket_of_core(core) == keep_socket
                          ? arch::Proximity::kSameSocket
                          : arch::Proximity::kCrossSocket;
    farthest = std::max(farthest, prox);
  }

  // Kill L3 copies on other sockets (their private copies are gone already,
  // since the core mask covered them).
  for (arch::SocketId sk = 0; sk < topo_.num_sockets(); ++sk) {
    if (sk == keep_socket || (state.l3_mask & bit(sk)) == 0) continue;
    l3_[sk].invalidate(line);
    state.l3_mask = static_cast<std::uint8_t>(state.l3_mask & ~bit(sk));
    ++counters_.invalidations;
    farthest = arch::Proximity::kCrossSocket;
  }

  state.dirty_core = static_cast<std::int16_t>(keep_core);
  return farthest;
}

void MemoryHierarchy::evict_from_core(arch::CoreId core,
                                      std::uint64_t victim) {
  // Overlap the victim's directory miss with the L1 invalidation walk.
  directory_.prefetch(victim);
  // Inclusive private hierarchy: dropping the L2 copy drops the L1 copy.
  l1_[core].invalidate(victim);
  LineState* st = directory_.find(victim);
  SPCD_ASSERT(st != nullptr);
  st->core_mask &= ~bit(core);
  if (st->dirty_core == static_cast<std::int16_t>(core)) {
    st->dirty_core = -1;  // write-back on eviction
  }
  erase_if_untracked(victim);
}

void MemoryHierarchy::evict_from_l3(arch::SocketId socket,
                                    std::uint64_t victim) {
  LineState* found = directory_.find(victim);
  SPCD_ASSERT(found != nullptr);
  LineState& st = *found;
  // Inclusive L3: every private copy on this socket must go too.
  std::uint32_t mask = st.core_mask;
  while (mask != 0) {
    const auto core = static_cast<arch::CoreId>(
        static_cast<std::uint32_t>(__builtin_ctz(mask)));
    mask &= mask - 1;
    if (topo_.socket_of_core(core) != socket) continue;
    l1_[core].invalidate(victim);
    l2_[core].invalidate(victim);
    st.core_mask &= ~bit(core);
    ++counters_.back_invalidations;
    if (st.dirty_core == static_cast<std::int16_t>(core)) st.dirty_core = -1;
  }
  st.l3_mask = static_cast<std::uint8_t>(st.l3_mask & ~bit(socket));
  erase_if_untracked(victim);
}

void MemoryHierarchy::erase_if_untracked(std::uint64_t line) {
  const LineState* st = directory_.find(line);
  if (st != nullptr && st->core_mask == 0 && st->l3_mask == 0) {
    directory_.erase(line);
  }
}

std::uint32_t MemoryHierarchy::access(arch::ContextId ctx, std::uint64_t line,
                                      bool write, std::uint32_t home_node,
                                      std::uint64_t now) {
  const arch::CoreId core = topo_.core_of(ctx);
  const arch::SocketId socket = topo_.socket_of(ctx);
  const arch::LatencySpec& lat = spec_.latency;
  // Every structure this access may probe is known now; issuing the loads
  // together overlaps what would otherwise be a serial chain of cache
  // misses (the tag stores model realistic sizes, so they don't fit in the
  // host's caches).
  l1_[core].prefetch(line);
  l2_[core].prefetch(line);
  l3_[socket].prefetch(line);
  directory_.prefetch(line);
  if (write) {
    ++counters_.writes;
  } else {
    ++counters_.reads;
  }

  auto upgrade_latency = [&lat](arch::Proximity prox) -> std::uint32_t {
    switch (prox) {
      case arch::Proximity::kSameSocket: return lat.c2c_same_socket;
      case arch::Proximity::kCrossSocket: return lat.c2c_cross_socket;
      default: return 0;
    }
  };

  // --- L1 ---
  if (l1_[core].probe(line)) {
    ++counters_.l1_hits;
    std::uint32_t latency = lat.l1_hit;
    if (write) {
      LineState* st = directory_.find(line);
      SPCD_ASSERT(st != nullptr);
      if (st->dirty_core != static_cast<std::int16_t>(core)) {
        latency = std::max(latency,
                           upgrade_latency(write_upgrade(core, line, *st)));
      }
    }
    return latency;
  }
  ++counters_.l1_misses;

  // --- L2 ---
  if (l2_[core].probe(line)) {
    ++counters_.l2_hits;
    l1_[core].insert(line);  // refill L1; victim stays in L2 (inclusion)
    std::uint32_t latency = lat.l2_hit;
    if (write) {
      LineState* st = directory_.find(line);
      SPCD_ASSERT(st != nullptr);
      if (st->dirty_core != static_cast<std::int16_t>(core)) {
        latency = std::max(latency,
                           upgrade_latency(write_upgrade(core, line, *st)));
      }
    }
    return latency;
  }
  ++counters_.l2_misses;

  LineState& st = directory_[line];  // may create a fresh entry
  std::uint32_t latency = 0;

  // --- L3 (own socket) ---
  if (l3_[socket].probe(line)) {
    ++counters_.l3_hits;
    latency = lat.l3_hit;
    if (st.dirty_core >= 0 &&
        st.dirty_core != static_cast<std::int16_t>(core)) {
      // Modified copy lives in another core's private cache. Cross-socket
      // writes invalidate our L3 copy, so the owner is on this socket.
      ++counters_.c2c_same_socket;
      latency = lat.c2c_same_socket;
      st.dirty_core = -1;  // owner writes back, line becomes shared
    }
  } else {
    ++counters_.l3_misses;
    const std::uint8_t other_l3 =
        static_cast<std::uint8_t>(st.l3_mask & ~bit(socket));
    if (other_l3 != 0) {
      // Served by a remote socket's cache: an off-chip c2c transaction,
      // provided by the nearest holder (deep NUMA: extra ring hops beyond
      // the first each add c2c_hop_extra cycles; 0 on flat machines).
      ++counters_.c2c_cross_socket;
      std::uint32_t provider_hops = topo_.num_sockets();
      for (arch::SocketId sk = 0; sk < topo_.num_sockets(); ++sk) {
        if ((other_l3 & bit(sk)) == 0) continue;
        provider_hops = std::min(provider_hops, topo_.numa_hops(socket, sk));
      }
      const std::uint64_t q =
          queue_delay(link_free_at_, now, spec_.latency.qpi_occupancy);
      link_queue_cycles_ += q;
      latency = lat.c2c_cross_socket +
                lat.c2c_hop_extra * (provider_hops - 1) +
                static_cast<std::uint32_t>(q);
      if (st.dirty_core >= 0 &&
          st.dirty_core != static_cast<std::int16_t>(core)) {
        st.dirty_core = -1;
      }
    } else {
      const std::uint64_t dq =
          queue_delay(dram_free_at_[home_node], now, spec_.latency.dram_occupancy);
      dram_queue_cycles_ += dq;
      if (home_node == socket) {
        ++counters_.dram_local;
        latency = lat.dram_local + static_cast<std::uint32_t>(dq);
      } else {
        // Remote memory crosses the inter-socket link as well; on deep
        // NUMA each ring hop beyond the first adds dram_hop_extra cycles.
        ++counters_.dram_remote;
        const std::uint64_t lq =
            queue_delay(link_free_at_, now, spec_.latency.qpi_occupancy);
        link_queue_cycles_ += lq;
        const std::uint32_t hops = topo_.numa_hops(socket, home_node);
        latency = lat.dram_remote + lat.dram_hop_extra * (hops - 1) +
                  static_cast<std::uint32_t>(dq + lq);
      }
    }
    const auto ins = l3_[socket].insert(line);
    st.l3_mask = static_cast<std::uint8_t>(st.l3_mask | bit(socket));
    if (ins.evicted) evict_from_l3(socket, ins.victim);
  }

  // --- fill private caches ---
  const auto ins2 = l2_[core].insert(line);
  if (ins2.evicted) evict_from_core(core, ins2.victim);
  l1_[core].insert(line);
  st.core_mask |= bit(core);

  if (write) {
    latency =
        std::max(latency, upgrade_latency(write_upgrade(core, line, st)));
  }
  return latency;
}

bool MemoryHierarchy::core_holds(arch::CoreId core, std::uint64_t line) const {
  const LineState* st = directory_.find(line);
  return st != nullptr && (st->core_mask & bit(core)) != 0;
}

bool MemoryHierarchy::l3_holds(arch::SocketId socket,
                               std::uint64_t line) const {
  const LineState* st = directory_.find(line);
  return st != nullptr && (st->l3_mask & bit(socket)) != 0;
}

std::int32_t MemoryHierarchy::dirty_owner_of(std::uint64_t line) const {
  const LineState* st = directory_.find(line);
  return st == nullptr ? -1 : st->dirty_core;
}

std::uint64_t MemoryHierarchy::check_invariants() const {
  std::uint64_t violations = 0;
  directory_.for_each([&](std::uint64_t line, const LineState& st) {
    for (arch::CoreId core = 0; core < topo_.num_cores(); ++core) {
      const bool bit_set = (st.core_mask & bit(core)) != 0;
      const bool in_l2 = l2_[core].contains(line);
      const bool in_l1 = l1_[core].contains(line);
      if (bit_set != in_l2) ++violations;             // mask mirrors L2
      if (in_l1 && !in_l2) ++violations;              // L1 subset of L2
      if (bit_set &&
          (st.l3_mask & bit(topo_.socket_of_core(core))) == 0) {
        ++violations;                                 // inclusive L3
      }
    }
    for (arch::SocketId sk = 0; sk < topo_.num_sockets(); ++sk) {
      const bool bit_set = (st.l3_mask & bit(sk)) != 0;
      if (bit_set != l3_[sk].contains(line)) ++violations;
    }
    if (st.dirty_core >= 0 &&
        (st.core_mask & bit(static_cast<std::uint32_t>(st.dirty_core))) ==
            0) {
      ++violations;  // dirty owner must hold the line
    }
    if (st.core_mask == 0 && st.l3_mask == 0) ++violations;  // stale entry
  });
  return violations;
}

}  // namespace spcd::sim

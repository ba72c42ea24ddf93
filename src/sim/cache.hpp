// Set-associative cache tag store with LRU replacement. Only tags are
// simulated (the simulator never stores data); timing and coherence are
// handled by MemoryHierarchy on top of this structure.
//
// Storage is struct-of-arrays: a probe scans one contiguous row of tags
// (one cache line for 8 ways) instead of interleaved tag/tick/valid
// records — the tag walk is the simulator's hottest memory traffic.
//
// Threading contract: a cache belongs to one run, and the engine that
// drives it is serial, so nothing here is (or needs to be) synchronized.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/machine_spec.hpp"

namespace spcd::sim {

class Cache {
 public:
  explicit Cache(const arch::CacheGeometry& geometry);

  /// Probe for a line address; a hit refreshes its LRU position.
  bool probe(std::uint64_t line);

  /// Prefetch the tag and LRU rows `line` maps to (cache hint only).
  void prefetch(std::uint64_t line) const {
    const std::size_t row = set_index(line) * ways_;
    __builtin_prefetch(&tags_[row]);
    __builtin_prefetch(&ticks_[row]);
  }

  /// Probe without touching LRU state (for inspection).
  bool contains(std::uint64_t line) const;

  struct InsertResult {
    bool evicted = false;
    std::uint64_t victim = 0;
  };

  /// Insert a line (must not be present); returns the evicted victim if the
  /// set was full.
  InsertResult insert(std::uint64_t line);

  /// Remove a line (coherence invalidation). Returns true if it was present.
  bool invalidate(std::uint64_t line);

  void flush();

  std::uint64_t num_sets() const { return num_sets_; }
  std::uint32_t ways() const { return ways_; }

 private:
  std::size_t set_index(std::uint64_t line) const {
    // Same index as line % num_sets_, but as a mask when the set count is a
    // power of two (always, for realistic geometries): probes run several
    // times per simulated op and a 64-bit divide dominated them.
    return static_cast<std::size_t>(
        sets_mask_ != 0 ? line & sets_mask_ : line % num_sets_);
  }

  std::uint64_t num_sets_;
  std::uint64_t sets_mask_ = 0;  // num_sets_-1 if power of two, else 0
  std::uint32_t ways_;
  std::vector<std::uint64_t> tags_;   // num_sets_ x ways_, row-major
  std::vector<std::uint64_t> ticks_;  // num_sets_ x ways_, row-major
  std::vector<std::uint32_t> valid_;  // per-set bitmask of valid ways
  std::uint64_t tick_ = 0;
};

}  // namespace spcd::sim

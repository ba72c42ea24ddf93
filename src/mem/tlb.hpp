// Per-context translation lookaside buffer, set-associative with LRU
// replacement. SPCD must invalidate the TLB entry of a page whose present
// bit it clears, otherwise the hardware would keep translating without
// faulting — the simulator models that shootdown faithfully.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/machine_spec.hpp"

namespace spcd::mem {

class Tlb {
 public:
  explicit Tlb(const arch::TlbSpec& spec);

  /// Look up a virtual page number. A hit refreshes LRU state.
  bool probe(std::uint64_t vpn);

  /// Install a translation (evicts the set's LRU victim if needed).
  void insert(std::uint64_t vpn);

  /// Remove one page's translation (shootdown). Returns true if present.
  bool invalidate(std::uint64_t vpn);

  /// Drop everything (e.g. on thread migration to this context in a model
  /// with address-space switches).
  void flush();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::uint64_t vpn = 0;
    std::uint64_t tick = 0;
    bool valid = false;
  };

  std::size_t set_of(std::uint64_t vpn) const {
    // A mask when the set count is a power of two (every real geometry),
    // as in sim::Cache::set_index: every access probes, and a mask is far
    // cheaper than a 64-bit divide.
    return static_cast<std::size_t>(sets_mask_ != 0 ? vpn & sets_mask_
                                                    : vpn % num_sets_);
  }

  std::size_t num_sets_;
  std::uint64_t sets_mask_ = 0;  // num_sets_-1 if power of two, else 0
  std::size_t ways_;
  std::vector<Entry> entries_;  // num_sets_ x ways_, row-major
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace spcd::mem

#include "mem/tlb.hpp"

#include "util/contracts.hpp"

namespace spcd::mem {

Tlb::Tlb(const arch::TlbSpec& spec)
    : num_sets_(spec.entries / spec.associativity), ways_(spec.associativity) {
  SPCD_EXPECTS(spec.associativity >= 1);
  SPCD_EXPECTS(spec.entries % spec.associativity == 0);
  SPCD_EXPECTS(num_sets_ >= 1);
  if ((num_sets_ & (num_sets_ - 1)) == 0) sets_mask_ = num_sets_ - 1;
  entries_.resize(num_sets_ * ways_);
}

bool Tlb::probe(std::uint64_t vpn) {
  Entry* set = &entries_[set_of(vpn) * ways_];
  for (std::size_t w = 0; w < ways_; ++w) {
    if (set[w].valid && set[w].vpn == vpn) {
      set[w].tick = ++tick_;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  return false;
}

void Tlb::insert(std::uint64_t vpn) {
  Entry* set = &entries_[set_of(vpn) * ways_];
  Entry* victim = &set[0];
  for (std::size_t w = 0; w < ways_; ++w) {
    if (!set[w].valid) {
      victim = &set[w];
      break;
    }
    if (set[w].tick < victim->tick) victim = &set[w];
  }
  victim->vpn = vpn;
  victim->valid = true;
  victim->tick = ++tick_;
}

bool Tlb::invalidate(std::uint64_t vpn) {
  Entry* set = &entries_[set_of(vpn) * ways_];
  for (std::size_t w = 0; w < ways_; ++w) {
    if (set[w].valid && set[w].vpn == vpn) {
      set[w].valid = false;
      return true;
    }
  }
  return false;
}

void Tlb::flush() {
  for (auto& e : entries_) e.valid = false;
}

}  // namespace spcd::mem

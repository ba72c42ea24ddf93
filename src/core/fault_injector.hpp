// The additional-page-fault generator (paper Section III-B2): a kernel
// thread that wakes at a fixed interval, walks the application's page table
// and clears the present bit of a random sample of resident pages
// (shooting down the TLB entries), so that subsequent accesses fault and
// feed the detector. A feedback controller sizes each batch so injected
// faults stay at the configured ratio of total faults.
//
// Robustness: an optional chaos::PerturbationEngine jitters the wake-up
// period or makes a wake-up overrun its deadline (the real daemon's 10 ms
// period is best-effort). The injector detects an overrun — a wake-up
// arriving later than overrun_skip_factor periods after the previous one —
// and skips that batch instead of piling the missed work onto one burst.
#pragma once

#include "chaos/perturbation.hpp"
#include "core/spcd_config.hpp"
#include "mem/address_space.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace spcd::core {

class FaultInjector {
 public:
  FaultInjector(const SpcdConfig& config, std::uint64_t seed,
                chaos::PerturbationEngine* chaos = nullptr);

  /// Schedule the first wake-up on the engine. The injector reschedules
  /// itself every `injector_period` until the run ends.
  void install(sim::Engine& engine);

  std::uint64_t pages_cleared() const { return pages_cleared_; }
  std::uint32_t wakeups() const { return wakeups_; }
  std::uint32_t last_batch() const { return last_batch_; }

  /// Wake-ups that overran their deadline and skipped their batch.
  std::uint32_t overrun_skips() const { return overrun_skips_; }

  /// The batch size the controller would choose right now (exposed for
  /// unit tests of the feedback law).
  std::uint32_t planned_batch(const mem::AddressSpace& as) const;

 private:
  void tick(sim::Engine& engine);
  void schedule_next(sim::Engine& engine);

  SpcdConfig config_;
  util::Xoshiro256 rng_;
  chaos::PerturbationEngine* chaos_;
  std::uint64_t pages_cleared_ = 0;
  std::uint32_t wakeups_ = 0;
  std::uint32_t last_batch_ = 0;
  std::uint32_t overrun_skips_ = 0;
  /// A tick firing after this deadline overran (0 = no deadline yet).
  util::Cycles deadline_ = 0;
};

}  // namespace spcd::core

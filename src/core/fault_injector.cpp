#include "core/fault_injector.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace spcd::core {

FaultInjector::FaultInjector(const SpcdConfig& config, std::uint64_t seed,
                             chaos::PerturbationEngine* chaos)
    : config_(config), rng_(seed), chaos_(chaos) {}

void FaultInjector::install(sim::Engine& engine) { schedule_next(engine); }

void FaultInjector::schedule_next(sim::Engine& engine) {
  util::Cycles delay = config_.injector_period;
  if (chaos_ != nullptr) delay = chaos_->perturb_period(delay);
  // The overrun tolerance is anchored to the nominal period: a wake-up
  // arriving more than overrun_skip_factor periods after the previous
  // activity missed its deadline.
  deadline_ = engine.now() +
              static_cast<util::Cycles>(std::llround(
                  config_.overrun_skip_factor *
                  static_cast<double>(config_.injector_period)));
  engine.schedule(engine.now() + delay, [this](sim::Engine& e) { tick(e); });
}

std::uint32_t FaultInjector::planned_batch(const mem::AddressSpace& as) const {
  // Keep injected / (minor + injected) at the target ratio r. Solving
  // injected = r * total for the steady state gives the deficit law:
  //   deficit = minor * r / (1 - r) - injections_planned_so_far.
  // Cleared pages that have not re-faulted yet count as planned, otherwise
  // the controller overshoots while faults are still in flight.
  const double r = config_.extra_fault_ratio;
  if (r <= 0.0) return 0;
  const double minor = static_cast<double>(as.minor_faults());
  const double desired = minor * r / (1.0 - r);
  const double deficit = desired - static_cast<double>(pages_cleared_);
  double frac = config_.min_sample_frac;
  if (wakeups_ < config_.startup_wakeups) frac *= config_.startup_boost;
  double floor = std::max<double>(
      config_.min_pages_floor,
      frac * static_cast<double>(as.resident_vpns().size()));
  floor = std::min<double>(floor, config_.max_floor_pages);
  return static_cast<std::uint32_t>(std::min<double>(
      std::max(deficit, floor),
      static_cast<double>(config_.max_pages_per_wakeup)));
}

void FaultInjector::tick(sim::Engine& engine) {
  mem::AddressSpace& as = engine.address_space();
  const auto& resident = as.resident_vpns();
  ++wakeups_;

  // Overrun detection: the daemon woke up so late that injecting the
  // planned batch now would stack onto the next period's batch. Skip this
  // beat — a thinner sample beats a bursty one — and count the skip.
  const bool overran = deadline_ != 0 && engine.now() > deadline_;

  util::Cycles cost = config_.injector_wakeup_cost;
  if (overran) {
    ++overrun_skips_;
    last_batch_ = 0;
    SPCD_LOG_DEBUG("spcd: injector overran its period at cycle %llu; "
                   "skipping batch (skip #%u)",
                   static_cast<unsigned long long>(engine.now()),
                   overrun_skips_);
  } else {
    std::uint32_t batch = planned_batch(as);
    batch = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        batch, resident.size()));
    last_batch_ = batch;

    for (std::uint32_t i = 0; i < batch; ++i) {
      const std::uint64_t vpn = resident[rng_.below(resident.size())];
      cost += config_.per_page_injection_cost;
      if (as.clear_present(vpn)) {
        ++pages_cleared_;
        // A cleared present bit is only effective once stale translations
        // are gone; this is the shootdown the paper's mechanism performs
        // when it removes the entry from the TLB.
        engine.counters().tlb_shootdowns +=
            engine.machine().tlb_shootdown(vpn);
      }
    }
  }

  // One instant per wake-up (batch size + overrun flag = the feedback
  // controller's visible state) and the injection-volume time series.
  obs::trace_instant("injector", overran ? "overrun_skip" : "wakeup",
                     engine.now(), {"batch", last_batch_},
                     {"wakeup", wakeups_});
  obs::trace_counter("injector", "pages_cleared", engine.now(),
                     pages_cleared_);
  if (obs::Session* s = obs::current_session()) {
    s->metrics()
        .histogram("injector.batch_pages", obs::Histogram::pow2_buckets(13))
        .observe(static_cast<double>(last_batch_));
  }

  // The kernel thread preempts whichever contexts it runs on; spread each
  // wake-up's work across a few rotating victims so the barrier critical
  // path is not inflated by one unlucky thread per wake-up. (The paper's
  // kernel thread wakes 40x less often relative to application progress,
  // so its per-wakeup burst is proportionally smaller.)
  const std::uint32_t n = engine.num_threads();
  const std::uint32_t shares = std::min<std::uint32_t>(4, n);
  for (std::uint32_t i = 0; i < shares; ++i) {
    engine.charge_detection(cost / shares, (wakeups_ + i) % n);
  }

  if (engine.active_threads() > 0) schedule_next(engine);
}

}  // namespace spcd::core

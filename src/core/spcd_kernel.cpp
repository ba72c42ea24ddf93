#include "core/spcd_kernel.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace spcd::core {

namespace {

// Reason codes attached to the filter's "suppress" trace event (DESIGN.md
// §9): why an evaluation did not lead to a remap this tick.
constexpr std::uint64_t kSuppressBelowThreshold = 0;  ///< too few changes
constexpr std::uint64_t kSuppressHysteresis = 1;      ///< switches held back
constexpr std::uint64_t kSuppressRateLimited = 2;     ///< token bucket empty
constexpr std::uint64_t kSuppressProbation = 3;       ///< remap under watch
constexpr std::uint64_t kSuppressCooldown = 4;        ///< rollback embargo

}  // namespace

SpcdKernel::SpcdKernel(const SpcdConfig& config, std::uint32_t num_threads,
                       std::uint64_t seed, chaos::PerturbationEngine* chaos,
                       chaos::AdversaryEngine* adversary)
    : config_(config),
      detector_(config, num_threads, chaos, adversary),
      injector_(config, util::derive_seed(seed, 0x1), chaos),
      filter_(num_threads, config.filter_threshold, config.filter_margin,
              config.hardening.enabled ? config.hardening.filter_hysteresis
                                       : 0),
      chaos_(chaos),
      remap_tokens_(static_cast<double>(config.hardening.remap_burst)) {
  if (const std::string error = config.validate(); !error.empty()) {
    throw ConfigError("SpcdConfig: " + error);
  }
  mapper_ = make_mapping_strategy(config_.mapping);
}

SpcdKernel::~SpcdKernel() {
  if (hooked_space_ != nullptr) {
    hooked_space_->remove_fault_observer(&detector_);
    if (data_mapper_) hooked_space_->remove_fault_observer(data_mapper_.get());
  }
}

void SpcdKernel::install(sim::Engine& engine) {
  hooked_space_ = &engine.address_space();
  hooked_space_->add_fault_observer(&detector_);
  if (config_.enable_data_mapping) {
    data_mapper_ = std::make_unique<DataMapper>(DataMapperConfig{});
    data_mapper_->bind(engine);
    hooked_space_->add_fault_observer(data_mapper_.get());
  }
  injector_.install(engine);
  engine.schedule(engine.now() + config_.mapping_interval,
                  [this](sim::Engine& e) { mapping_tick(e); });
}

SpcdKernel::ApplyOutcome SpcdKernel::apply_moves(
    sim::Engine& engine, const std::vector<sim::ThreadId>& tids,
    const sim::Placement& target, bool is_retry) {
  ApplyOutcome outcome;
  for (const sim::ThreadId tid : tids) {
    if (is_retry && (engine.thread_finished(tid) ||
                     engine.placement()[tid] == target[tid])) {
      continue;
    }
    if (chaos_ != nullptr && chaos_->fail_migration()) {
      outcome.failed.push_back(tid);
      continue;
    }
    util::Cycles delay = 0;
    if (chaos_ != nullptr && chaos_->delay_migration(&delay)) {
      // The migration request was accepted but lands late (the real
      // sched_setaffinity takes effect on a later scheduler tick).
      const arch::ContextId ctx = target[tid];
      engine.schedule(engine.now() + delay,
                      [tid, ctx](sim::Engine& e) {
                        if (!e.thread_finished(tid) &&
                            e.placement()[tid] != ctx) {
                          e.migrate(tid, ctx);
                        }
                      });
      ++outcome.moved;
      continue;
    }
    engine.migrate(tid, target[tid]);
    ++outcome.moved;
  }
  return outcome;
}

void SpcdKernel::schedule_retry(sim::Engine& engine, sim::Placement target,
                                std::vector<sim::ThreadId> failed,
                                std::uint32_t attempt) {
  if (attempt >= config_.migration_max_retries) {
    ++migration_giveups_;
    obs::trace_instant("mapper", "migration_giveup", engine.now(),
                       {"threads", failed.size()}, {"attempts", attempt});
    SPCD_LOG_WARN("spcd: giving up on migrating %zu thread(s) after %u "
                  "retries; keeping their old mapping",
                  failed.size(), attempt);
    return;
  }
  // Exponential backoff anchored at the configured base.
  const util::Cycles backoff = config_.migration_retry_backoff
                               << std::min<std::uint32_t>(attempt, 31);
  const std::uint64_t generation = remap_generation_;
  engine.schedule(
      engine.now() + backoff,
      [this, generation, target = std::move(target),
       failed = std::move(failed), attempt](sim::Engine& e) {
        // A newer remap decision supersedes this retry.
        if (generation != remap_generation_) return;
        ++migration_retries_;
        obs::trace_instant("mapper", "migration_retry", e.now(),
                           {"attempt", attempt}, {"threads", failed.size()});
        const std::uint32_t n = e.num_threads();
        e.charge_mapping(config_.migration_retry_cost,
                         static_cast<sim::ThreadId>(migration_retries_ % n));
        ApplyOutcome outcome =
            apply_moves(e, failed, target, /*is_retry=*/true);
        if (!outcome.failed.empty()) {
          schedule_retry(e, target, std::move(outcome.failed), attempt + 1);
        }
      });
}

void SpcdKernel::mapping_tick(sim::Engine& engine) {
  // Quantum boundary: deliver all ring-buffered fault events before any
  // mapping decision reads detector state.
  detector_.flush();
  const std::uint32_t n = engine.num_threads();
  const bool hardened = config_.hardening.enabled;

  // Filter evaluation is Theta(N^2); its cost is mapping overhead.
  util::Cycles cost = config_.filter_cost_per_thread_sq *
                      static_cast<util::Cycles>(n) * n;
  bool migrated = false;

  const std::uint64_t total = detector_.matrix().total();
  obs::trace_counter("mapper", "matrix_total", engine.now(), total);
  const bool refine =
      mapped_once_ && config_.refine_growth > 0.0 &&
      static_cast<double>(total) >=
          config_.refine_growth * static_cast<double>(last_remap_total_);
  if (hardened) {
    // Token-bucket refill: one remap credit per refill interval, capped at
    // the burst size.
    remap_tokens_ = std::min(
        static_cast<double>(config_.hardening.remap_burst),
        remap_tokens_ +
            static_cast<double>(engine.now() - last_refill_time_) /
                static_cast<double>(config_.hardening.remap_refill_interval));
    last_refill_time_ = engine.now();
  }
  // The filter only runs once the matrix is warm and migration is on —
  // identical to the short-circuit it replaced, but with the decision
  // hoisted so the trigger/suppress verdict can be traced. Committing the
  // trigger is split from evaluating so a guard-deferred remap keeps its
  // pending trigger instead of silently counting as served.
  const bool warm =
      total >= config_.min_matrix_total && config_.enable_migration;
  bool filter_fired = false;
  if (warm) filter_fired = filter_.evaluate(detector_.matrix());

  bool act = warm && (filter_fired || refine);
  std::int64_t suppress_reason = -1;
  if (act && hardened) {
    // Mapper guards, checked in escalation order: an in-flight probation
    // blocks everything, then the post-rollback cooldown, then the rate
    // limiter. A deferral leaves the filter accumulator intact, so the
    // trigger re-fires once the guard clears.
    if (probation_.active) {
      suppress_reason = static_cast<std::int64_t>(kSuppressProbation);
    } else if (engine.now() < cooldown_until_) {
      suppress_reason = static_cast<std::int64_t>(kSuppressCooldown);
    } else if (remap_tokens_ < 1.0) {
      suppress_reason = static_cast<std::int64_t>(kSuppressRateLimited);
    }
    if (suppress_reason >= 0) {
      act = false;
      ++remaps_deferred_;
      obs::trace_instant("mapper", "remap_deferred", engine.now(),
                         {"reason", static_cast<std::uint64_t>(
                                        suppress_reason)},
                         {"changes", filter_.last_changes()});
    }
  }
  if (warm) {
    if (filter_fired && act) {
      filter_.commit_trigger();
      obs::trace_instant("filter", "trigger", engine.now(),
                         {"changes", filter_.last_changes()},
                         {"evaluations", filter_.evaluations()});
    } else {
      if (suppress_reason < 0) {
        // No guard deferral: the accumulator is below threshold, or enough
        // switches to meet it are still held by the persistence
        // (hysteresis) requirement.
        const bool held_back =
            filter_.pending_changes() > 0 &&
            filter_.last_changes() + filter_.pending_changes() >=
                config_.filter_threshold;
        suppress_reason = static_cast<std::int64_t>(
            held_back ? kSuppressHysteresis : kSuppressBelowThreshold);
        if (held_back) ++remaps_deferred_;
      }
      obs::trace_instant("filter", "suppress", engine.now(),
                         {"changes", filter_.last_changes()},
                         {"reason",
                          static_cast<std::uint64_t>(suppress_reason)});
    }
  }
  if (act) {
    mapped_once_ = true;
    last_remap_total_ = total;
    cost += mapper_->decision_cost(n, config_);
    const MappingResult mapping = mapper_->map(
        detector_.matrix(), engine.machine().topology(), engine.placement());
    const double current_cost = placement_comm_cost(
        detector_.matrix(), engine.machine().topology(), engine.placement());
    const double new_cost = placement_comm_cost(
        detector_.matrix(), engine.machine().topology(), mapping.placement);
    const std::uint32_t would_move =
        count_moves(engine.placement(), mapping.placement);
    const double penalty = config_.move_penalty_frac *
                           static_cast<double>(total) *
                           static_cast<double>(would_move);
    ApplyOutcome outcome;
    if (new_cost + penalty <= config_.mapping_gain_threshold * current_cost) {
      // A fresh remap decision: any retry still pending for the previous
      // target placement is obsolete.
      ++remap_generation_;
      // Probation bookkeeping *before* any thread moves: the placement to
      // restore and the remote-traffic rate the remap must beat.
      const bool probe =
          hardened && config_.hardening.probation_window > 0;
      sim::Placement prev_placement;
      std::uint64_t remote_before = 0;
      double pre_rate = 0.0;
      if (probe) {
        prev_placement = engine.placement();
        remote_before = remote_traffic(engine);
        const util::Cycles dt = engine.now() - last_tick_time_;
        if (dt > 0) {
          pre_rate = static_cast<double>(remote_before - last_tick_remote_) /
                     static_cast<double>(dt);
        }
      }
      if (hardened) remap_tokens_ -= 1.0;
      std::vector<sim::ThreadId> movers;
      movers.reserve(would_move);
      for (sim::ThreadId tid = 0; tid < n; ++tid) {
        if (engine.placement()[tid] != mapping.placement[tid]) {
          movers.push_back(tid);
        }
      }
      outcome = apply_moves(engine, movers, mapping.placement,
                            /*is_retry=*/false);
      migrated = outcome.moved > 0;
      obs::trace_instant("mapper", "remap", engine.now(),
                         {"moved", outcome.moved},
                         {"planned", would_move});
      if (!outcome.failed.empty()) {
        schedule_retry(engine, mapping.placement,
                       std::move(outcome.failed), 0);
      }
      if (probe && migrated) {
        probation_.active = true;
        probation_.generation = remap_generation_;
        probation_.prev_placement = std::move(prev_placement);
        probation_.remote_at = remote_before;
        probation_.time_at = engine.now();
        probation_.pre_rate = pre_rate;
        const std::uint64_t generation = remap_generation_;
        engine.schedule(engine.now() + config_.hardening.probation_window,
                        [this, generation](sim::Engine& e) {
                          probation_check(e, generation);
                        });
        obs::trace_instant(
            "mapper", "probation_start", engine.now(),
            {"moved", outcome.moved},
            {"pre_rate_x1000",
             static_cast<std::uint64_t>(pre_rate * 1000.0)});
      }
    } else {
      // The gain gate rejected the computed placement: the migrations'
      // cache-refill cost would eat the communication win.
      obs::trace_instant("mapper", "remap_rejected", engine.now(),
                         {"would_move", would_move});
    }
    if (migrated) {
      ++migration_events_;
      std::uint32_t band_adj = 0;
      const auto& topo2 = engine.machine().topology();
      for (sim::ThreadId t2 = 0; t2 + 1 < n; ++t2) {
        if (topo2.socket_of(mapping.placement[t2]) ==
            topo2.socket_of(mapping.placement[t2 + 1])) {
          ++band_adj;
        }
      }
      SPCD_LOG_INFO(
          "spcd: migration event %u at cycle %llu (moved %u threads, "
          "filter changes %u, matrix total %llu, band adjacency %u/%u, "
          "cost ratio %.3f)",
          migration_events_, static_cast<unsigned long long>(engine.now()),
          outcome.moved, filter_.last_changes(),
          static_cast<unsigned long long>(detector_.matrix().total()),
          band_adj, n - 1, new_cost / current_cost);
    }
  }

  // Remember this tick's remote-traffic sample: the next remap's pre-rate
  // is measured over the interval since the last tick.
  if (hardened) {
    last_tick_remote_ = remote_traffic(engine);
    last_tick_time_ = engine.now();
  }

  // Charge the analysis to a rotating victim thread, like the injector.
  const sim::ThreadId victim =
      static_cast<sim::ThreadId>(filter_.evaluations() % n);
  engine.charge_mapping(cost, victim);

  if (engine.active_threads() > 0) {
    engine.schedule(engine.now() + config_.mapping_interval,
                    [this](sim::Engine& e) { mapping_tick(e); });
  }
}

std::uint64_t SpcdKernel::remote_traffic(const sim::Engine& engine) {
  const sim::PerfCounters& c = engine.counters();
  return c.c2c_cross_socket + c.dram_remote;
}

void SpcdKernel::probation_check(sim::Engine& engine,
                                 std::uint64_t generation) {
  // A rollback (or any newer decision) supersedes this check.
  if (!probation_.active || probation_.generation != generation) return;
  probation_.active = false;
  const util::Cycles now = engine.now();
  const double dt = static_cast<double>(now - probation_.time_at);
  if (dt <= 0.0) return;
  const double post_rate =
      static_cast<double>(remote_traffic(engine) - probation_.remote_at) / dt;
  // A remap on a healthy signal lowers (or at worst holds) the remote
  // rate; a remap baited by fabricated sharing raises it. pre_rate == 0
  // means there was no remote traffic to improve on — nothing to judge.
  const bool regressed =
      probation_.pre_rate > 0.0 &&
      post_rate > config_.hardening.rollback_tolerance * probation_.pre_rate;
  obs::trace_instant(
      "mapper", regressed ? "rollback" : "probation_ok", now,
      {"post_rate_x1000", static_cast<std::uint64_t>(post_rate * 1000.0)},
      {"pre_rate_x1000",
       static_cast<std::uint64_t>(probation_.pre_rate * 1000.0)});
  if (!regressed) return;

  ++remaps_rolled_back_;
  // The restoration is itself a fresh decision: cancel any retries still
  // chasing the rolled-back target, then move every misplaced thread back
  // through the standard apply/retry/fallback machinery.
  ++remap_generation_;
  std::vector<sim::ThreadId> movers;
  const std::uint32_t n = engine.num_threads();
  for (sim::ThreadId tid = 0; tid < n; ++tid) {
    if (!engine.thread_finished(tid) &&
        engine.placement()[tid] != probation_.prev_placement[tid]) {
      movers.push_back(tid);
    }
  }
  ApplyOutcome outcome = apply_moves(engine, movers,
                                     probation_.prev_placement,
                                     /*is_retry=*/false);
  if (!outcome.failed.empty()) {
    schedule_retry(engine, probation_.prev_placement,
                   std::move(outcome.failed), 0);
  }
  // Embargo further remaps while the restored placement re-stabilizes (and
  // the poisoned matrix evidence ages out of the pre-rate window).
  cooldown_until_ = now + config_.hardening.probation_window;
  SPCD_LOG_WARN("spcd: remap rolled back at cycle %llu (remote rate "
                "%.4f -> %.4f, tolerance %.2f); restored %u thread(s)",
                static_cast<unsigned long long>(now), probation_.pre_rate,
                post_rate, config_.hardening.rollback_tolerance,
                outcome.moved);
}

}  // namespace spcd::core

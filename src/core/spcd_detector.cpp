#include "core/spcd_detector.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace spcd::core {

namespace {

// The detector's table copy inherits the hardening admission guard from the
// SpcdConfig, so callers only flip the one master switch.
mem::SharingTableConfig table_config_with_hardening(const SpcdConfig& c) {
  mem::SharingTableConfig table = c.table;
  if (c.hardening.enabled) {
    table.guard_admission = true;
    table.admission_max_refusals = c.hardening.admission_max_refusals;
  }
  return table;
}

}  // namespace

SpcdDetector::SpcdDetector(const SpcdConfig& config, std::uint32_t num_threads,
                           chaos::PerturbationEngine* chaos,
                           chaos::AdversaryEngine* adversary)
    : config_(config),
      table_(table_config_with_hardening(config)),
      matrix_(num_threads),
      chaos_(chaos),
      adversary_(adversary) {
  if (chaos_ != nullptr && chaos_->config().forced_collision > 0.0) {
    table_.set_bucket_hook(
        [chaos](std::uint64_t num_buckets, std::uint64_t* bucket) {
          return chaos->redirect_bucket(num_buckets, bucket);
        });
  }
  if (config_.hardening.enabled) {
    window_faults_.assign(num_threads, 0);
    flagged_.assign(num_threads, 0);
    discount_ctr_.assign(num_threads, 0);
    window_snap_ = matrix_.snapshot();
    // The admission guard reads the anomaly verdicts directly: a thread
    // flagged in the last window cannot evict established entries. The
    // vector is sized once here, so the pointer stays valid for the
    // table's lifetime.
    table_.set_suspects(flagged_.data(), num_threads);
  }
}

util::Cycles SpcdDetector::on_fault(const mem::FaultEvent& event) {
  // A dropped notification models fault coalescing: the handler ran but the
  // detection hook never saw the event, so it costs nothing here.
  if (chaos_ != nullptr && chaos_->drop_fault()) return 0;

  // The cost must be charged to the faulting thread *now*, and the chaos
  // draws must advance their streams in fault order — both stay
  // synchronous. Only the table/matrix walk is deferred to the ring.
  util::Cycles cost = config_.fault_hook_cost;
  const bool duplicated = chaos_ != nullptr && chaos_->duplicate_fault();
  if (duplicated) cost += config_.fault_hook_cost;

  ring_[ring_size_++] =
      PendingFault{event.vaddr, event.tid, event.time, duplicated};
  if (ring_size_ == kRingCapacity) drain();
  return cost;
}

void SpcdDetector::flush() const {
  // See the header: flush() is logically const — every accessor routes
  // through it, so post-drain state is the only observable state.
  if (ring_size_ != 0) const_cast<SpcdDetector*>(this)->drain();
}

void SpcdDetector::drain() {
  // Batching dividend: the ring holds the next few faults' addresses, so
  // their table buckets can be prefetched ahead of delivery — the probe of
  // a paper-sized (memory-resident) table is otherwise a full cache miss
  // per fault. Purely a hint; results are unchanged.
  constexpr std::size_t kPrefetchAhead = 6;
  const std::size_t prime = ring_size_ < kPrefetchAhead ? ring_size_
                                                        : kPrefetchAhead;
  for (std::size_t i = 0; i < prime; ++i) table_.prefetch(ring_[i].vaddr);
  for (std::size_t i = 0; i < ring_size_; ++i) {
    if (i + kPrefetchAhead < ring_size_) {
      table_.prefetch(ring_[i + kPrefetchAhead].vaddr);
    }
    const PendingFault& fault = ring_[i];
    deliver(fault);
    if (adversary_ != nullptr) {
      // Phantom faults ride on the delivered real fault, fabricated here
      // in the serial drain loop: the attack schedule is a pure function
      // of the fault stream, so it is identical at any job count.
      // The detector itself cannot tell them from real faults — they run
      // through the exact same delivery path.
      chaos::PhantomFault phantoms[4];
      const std::uint32_t count = adversary_->fabricate(
          fault.vaddr, fault.tid, fault.time, phantoms, 4);
      for (std::uint32_t p = 0; p < count; ++p) {
        deliver(PendingFault{phantoms[p].vaddr, phantoms[p].tid, fault.time,
                             /*duplicated=*/false});
      }
    }
  }
  ring_size_ = 0;
}

void SpcdDetector::deliver(const PendingFault& fault) {
  ++faults_seen_;
  if (hardened()) {
    if (fault.tid < window_faults_.size()) ++window_faults_[fault.tid];
    ++window_total_;
  }
  const std::uint64_t comm_before = comm_events_;
  record(fault);
  if (fault.duplicated) record(fault);
  obs::trace_instant("detector", "fault", fault.time, {"tid", fault.tid},
                     {"comm", comm_events_ - comm_before});
  maybe_score_anomalies(fault.time);
  maybe_handle_saturation(fault.time);
}

void SpcdDetector::record(const PendingFault& fault) {
  const mem::CommunicationEvent comm =
      table_.record_access(fault.vaddr, fault.tid, fault.time);
  const bool harden = hardened();
  for (std::uint32_t i = 0; i < comm.partner_count; ++i) {
    const std::uint32_t partner = comm.partners[i];
    if (partner >= matrix_.size() || fault.tid >= matrix_.size()) continue;
    if (harden) {
      // Confidence weighting: an edge whose source or partner was flagged
      // anomalous counts only once every anomaly_discount events (the
      // flagged endpoint's own phase counter keeps the thinning exact and
      // deterministic). Honest edges pass untouched.
      const bool src_flagged = flagged_[fault.tid] != 0;
      const bool dst_flagged = flagged_[partner] != 0;
      if (src_flagged || dst_flagged) {
        const std::uint32_t idx = src_flagged ? fault.tid : partner;
        if (++discount_ctr_[idx] % config_.hardening.anomaly_discount != 0) {
          continue;
        }
      }
    }
    matrix_.add(fault.tid, partner);
    ++comm_events_;
  }
}

void SpcdDetector::maybe_score_anomalies(util::Cycles now) {
  if (!hardened() ||
      window_total_ < config_.hardening.anomaly_window_faults) {
    return;
  }
  const std::uint32_t n = matrix_.size();
  const CommMatrix delta = matrix_.since(window_snap_);
  const double uniform_share =
      static_cast<double>(window_total_) / static_cast<double>(n);
  const double w = config_.hardening.anomaly_entropy_weight;
  const double norm = n > 2 ? std::log2(static_cast<double>(n - 1)) : 0.0;
  for (std::uint32_t t = 0; t < n; ++t) {
    // Rate spike: this thread's share of the window's faults relative to a
    // uniform share (1.0 = exactly its fair share).
    const double rate =
        static_cast<double>(window_faults_[t]) / uniform_share;
    // Edge entropy: how widely this thread's *new* communication spreads
    // over partners. A flooder spraying edges across the fleet scores ~1;
    // honest point-to-point communication scores ~0.
    double entropy = 0.0;
    if (norm > 0.0) {
      double row_total = 0.0;
      for (std::uint32_t j = 0; j < n; ++j) {
        if (j != t) row_total += static_cast<double>(delta.at(t, j));
      }
      if (row_total > 0.0) {
        for (std::uint32_t j = 0; j < n; ++j) {
          if (j == t) continue;
          const double p = static_cast<double>(delta.at(t, j)) / row_total;
          if (p > 0.0) entropy -= p * std::log2(p);
        }
        entropy /= norm;
      }
    }
    const double score = rate * ((1.0 - w) + w * entropy);
    const bool flag = score >= config_.hardening.anomaly_flag_threshold;
    if (flag) {
      ++anomalies_flagged_;
      obs::trace_instant(
          "detector", "anomaly_flag", now, {"tid", t},
          {"score_x100", static_cast<std::uint64_t>(score * 100.0)});
    }
    flagged_[t] = flag ? 1 : 0;
  }
  // Start the next scoring window from the current matrix state.
  std::fill(window_faults_.begin(), window_faults_.end(), 0);
  window_total_ = 0;
  window_snap_ = matrix_.snapshot();
}

void SpcdDetector::maybe_handle_saturation(util::Cycles now) {
  if (config_.saturation_check_faults == 0 ||
      faults_seen_ < last_check_faults_ + config_.saturation_check_faults) {
    return;
  }
  const std::uint64_t accesses = table_.accesses() - last_check_accesses_;
  const std::uint64_t collisions =
      table_.collisions() - last_check_collisions_;
  last_check_faults_ = faults_seen_;
  last_check_accesses_ = table_.accesses();
  last_check_collisions_ = table_.collisions();
  // One counter sample per saturation-check window: the detection-side
  // time series (fault volume, detected communication, table pressure).
  obs::trace_counter("detector", "faults_seen", now, faults_seen_);
  obs::trace_counter("detector", "comm_events", now, comm_events_);
  obs::trace_counter("detector", "table_collisions", now,
                     table_.collisions());
  if (accesses == 0 ||
      static_cast<double>(collisions) <
          config_.saturation_collision_ratio * static_cast<double>(accesses)) {
    return;
  }
  // Saturated: collisions are evicting live sharer lists faster than they
  // accumulate communication. Age stale entries first; if every entry is
  // recent the table is genuinely over-subscribed — reset it wholesale and
  // let the (cheap) re-detection repopulate it.
  const std::uint64_t aged =
      table_.age(now, config_.saturation_age_window);
  if (aged == 0) table_.reset_entries();
  ++saturation_resets_;
  obs::trace_instant("detector", "saturation_reset", now, {"aged", aged},
                     {"collisions", collisions});
  SPCD_LOG_INFO("spcd: sharing table saturated (%llu/%llu collisions in "
                "window) — %s (reset #%u)",
                static_cast<unsigned long long>(collisions),
                static_cast<unsigned long long>(accesses),
                aged > 0 ? "aged stale entries" : "reset all entries",
                saturation_resets_);
}

}  // namespace spcd::core

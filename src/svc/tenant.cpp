#include "svc/tenant.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace spcd::svc {

const char* tenant_state_name(TenantState s) {
  switch (s) {
    case TenantState::kRegistered: return "registered";
    case TenantState::kActive: return "active";
    case TenantState::kSuspect: return "suspect";
    case TenantState::kExited: return "exited";
    case TenantState::kReaped: return "reaped";
  }
  return "?";
}

std::uint32_t TenantRegistry::add(const std::string& name,
                                  std::uint32_t num_threads) {
  SPCD_EXPECTS(num_threads >= 1);
  const auto id = static_cast<std::uint32_t>(tenants_.size() + 1);
  tenants_.push_back(
      std::make_unique<Tenant>(id, name, num_threads, next_tid_));
  next_tid_ += num_threads;
  ++participating_count_;
  participating_threads_ += num_threads;
  return id;
}

Tenant* TenantRegistry::find(std::uint32_t id) {
  if (id == 0 || id > tenants_.size()) return nullptr;
  return tenants_[id - 1].get();
}

const Tenant* TenantRegistry::find(std::uint32_t id) const {
  if (id == 0 || id > tenants_.size()) return nullptr;
  return tenants_[id - 1].get();
}

bool TenantRegistry::re_register(std::uint32_t id,
                                 std::uint32_t new_threads) {
  Tenant* t = find(id);
  if (t == nullptr || !tenant_participates(t->state) || new_threads == 0) {
    return false;
  }
  const std::uint32_t old_n = t->num_threads;
  // Deterministic remap of the accumulated matrix onto the new shape:
  // growth embeds the old matrix identically; shrink folds old tid i
  // onto i % new_threads and merges the folded weights (cells whose
  // endpoints collide fold onto the diagonal and are dropped — a thread
  // does not communicate with itself).
  core::CommMatrix remapped(new_threads);
  for (std::uint32_t a = 0; a < old_n; ++a) {
    for (std::uint32_t b = a + 1; b < old_n; ++b) {
      const std::uint64_t w = t->matrix.at(a, b);
      if (w == 0) continue;
      const std::uint32_t na = a % new_threads;
      const std::uint32_t nb = b % new_threads;
      if (na != nb) remapped.add(na, nb, w);
    }
  }
  t->matrix = std::move(remapped);
  // Fresh tid block: the old block is never reused, so stale partner
  // tids in the sharing table can never alias another tenant's threads.
  t->base_tid = next_tid_;
  next_tid_ += new_threads;
  participating_threads_ += new_threads;
  participating_threads_ -= old_n;
  t->num_threads = new_threads;
  ++t->reregisters;
  return true;
}

bool TenantRegistry::can_mark(std::uint32_t id, TenantState to) const {
  const Tenant* t = find(id);
  if (t == nullptr) return false;
  switch (to) {
    case TenantState::kActive:
      return t->state == TenantState::kRegistered ||
             t->state == TenantState::kSuspect;
    case TenantState::kSuspect:
      return t->state == TenantState::kRegistered ||
             t->state == TenantState::kActive;
    case TenantState::kReaped: return t->state == TenantState::kSuspect;
    case TenantState::kExited: return tenant_participates(t->state);
    case TenantState::kRegistered: return false;
  }
  return false;
}

bool TenantRegistry::mark(std::uint32_t id, TenantState to) {
  if (!can_mark(id, to)) return false;
  Tenant* t = find(id);
  if (tenant_participates(to)) {
    t->state = to;
  } else {
    depart(t, to);
  }
  return true;
}

void TenantRegistry::depart(Tenant* t, TenantState to) {
  t->state = to;
  --participating_count_;
  participating_threads_ -= t->num_threads;
}

std::vector<const Tenant*> TenantRegistry::participating() const {
  std::vector<const Tenant*> out;
  out.reserve(participating_count_);
  for (const auto& t : tenants_) {
    if (tenant_participates(t->state)) out.push_back(t.get());
  }
  return out;
}

Tenant* TenantRegistry::restore(std::uint32_t id, const std::string& name,
                                std::uint32_t num_threads,
                                std::uint32_t base_tid, TenantState state,
                                std::uint64_t events, std::uint64_t batches,
                                std::uint64_t comm_events,
                                std::uint32_t reregisters) {
  if (id != tenants_.size() + 1 || num_threads == 0) return nullptr;
  tenants_.push_back(
      std::make_unique<Tenant>(id, name, num_threads, base_tid));
  Tenant* t = tenants_.back().get();
  t->state = state;
  t->events = events;
  t->batches = batches;
  t->comm_events = comm_events;
  t->reregisters = reregisters;
  if (tenant_participates(state)) {
    ++participating_count_;
    participating_threads_ += num_threads;
  }
  return t;
}

void TenantRegistry::restore_tid_space(std::uint32_t next_tid) {
  next_tid_ = next_tid;
}

}  // namespace spcd::svc

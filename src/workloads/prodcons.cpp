#include "workloads/prodcons.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "workloads/block_program.hpp"
#include "workloads/layout.hpp"

namespace spcd::workloads {

namespace {

class ProdConsProgram final : public BlockProgram {
 public:
  ProdConsProgram(const ProducerConsumer& workload,
                  const ProdConsParams& params, std::uint32_t tid,
                  std::uint64_t seed)
      : workload_(workload), params_(params), tid_(tid), rng_(seed) {}

 protected:
  bool fill(std::vector<sim::Op>& out) override {
    const std::uint32_t total_iters =
        params_.iterations_per_phase * params_.phases;
    if (iter_ >= total_iters) return false;

    const std::uint32_t phase = iter_ / params_.iterations_per_phase;
    const std::uint32_t partner = workload_.partner_in_phase(tid_, phase);
    const bool is_producer = tid_ < partner;
    const std::uint64_t buffer = workload_.buffer_base(tid_, phase);

    for (; step_ < params_.refs_per_iter && room(out); ++step_) {
      const std::uint64_t addr = buffer + rng_.below(params_.buffer_bytes);
      // The producer mostly writes the shared vector; the consumer mostly
      // reads it. Both touch the same pages, which is what SPCD detects.
      const bool write = is_producer
                             ? rng_.uniform() < params_.producer_write_frac
                             : rng_.uniform() <
                                   (1.0 - params_.producer_write_frac);
      out.push_back(sim::Op::access(addr, write, params_.insns_per_ref,
                                    params_.compute_cycles));
    }
    end_iteration(out, params_.refs_per_iter);
    return true;
  }

 private:
  const ProducerConsumer& workload_;
  const ProdConsParams& params_;
  std::uint32_t tid_;
  util::Xoshiro256 rng_;
};

}  // namespace

ProducerConsumer::ProducerConsumer(ProdConsParams params, std::uint64_t seed)
    : params_(params), seed_(seed) {
  SPCD_EXPECTS(params_.pairs >= 2);
  SPCD_EXPECTS(params_.phases >= 1);
}

std::uint32_t ProducerConsumer::partner_in_phase(std::uint32_t tid,
                                                 std::uint32_t phase) const {
  const std::uint32_t n = num_threads();
  SPCD_EXPECTS(tid < n);
  if (phase % 2 == 0) return tid ^ 1u;  // neighbors: (0,1), (2,3), ...
  return (tid + n / 2) % n;             // distant: (0,16), (1,17), ...
}

std::uint64_t ProducerConsumer::buffer_base(std::uint32_t tid,
                                            std::uint32_t phase) const {
  const std::uint32_t partner = partner_in_phase(tid, phase);
  const std::uint32_t lo = std::min(tid, partner);
  const std::uint64_t stride = (params_.buffer_bytes + 4095) & ~4095ULL;
  // Even phases use one region of buffers, odd phases a disjoint region, so
  // phase patterns do not alias in the sharing table.
  const std::uint64_t region =
      kSharedBase + (phase % 2 == 0 ? 0 : 64 * util::kMiB);
  return region + lo * stride;
}

std::unique_ptr<sim::ThreadProgram> ProducerConsumer::make_thread(
    std::uint32_t tid, std::uint64_t seed) {
  return std::make_unique<ProdConsProgram>(
      *this, params_, tid,
      util::derive_seed(seed_, (static_cast<std::uint64_t>(tid) << 16) ^
                                   seed));
}

}  // namespace spcd::workloads

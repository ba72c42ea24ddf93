#include "workloads/private_kernel.hpp"

#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "workloads/block_program.hpp"
#include "workloads/layout.hpp"

namespace spcd::workloads {

namespace {

class PrivateProgram final : public BlockProgram {
 public:
  PrivateProgram(const PrivateParams& params, std::uint32_t tid,
                 std::uint64_t seed)
      : params_(params),
        rng_(seed),
        own_base_(private_base(tid)),
        local_(own_base_, params.private_bytes, params.locality) {}

 protected:
  bool fill(std::vector<sim::Op>& out) override {
    if (iter_ > params_.iterations) return false;
    if (iter_ == 0) {
      const std::uint64_t pages = (params_.private_bytes + 4095) / 4096;
      for (; step_ < pages && room(out); ++step_) {
        out.push_back(sim::Op::access(own_base_ + step_ * 4096, true,
                                      params_.insns_per_ref, 40));
      }
      end_iteration(out, pages);
      return true;
    }
    if (step_ == 0) local_.drift(iter_);
    for (; step_ < params_.refs_per_iter && room(out); ++step_) {
      std::uint64_t addr;
      bool write;
      if (rng_.uniform() < params_.shared_frac) {
        addr = kSharedBase + rng_.below(params_.shared_table_bytes);
        write = false;  // read-only constants
      } else {
        addr = local_.next(rng_);
        write = rng_.uniform() < params_.write_frac;
      }
      out.push_back(sim::Op::access(addr, write, params_.insns_per_ref,
                                    params_.compute_cycles));
    }
    end_iteration(out, params_.refs_per_iter);
    return true;
  }

 private:
  const PrivateParams& params_;
  util::Xoshiro256 rng_;
  std::uint64_t own_base_;
  LocalityCursor local_;
};

}  // namespace

PrivateKernel::PrivateKernel(PrivateParams params, std::uint64_t seed)
    : params_(std::move(params)), seed_(seed) {
  SPCD_EXPECTS(params_.threads >= 1);
}

std::unique_ptr<sim::ThreadProgram> PrivateKernel::make_thread(
    std::uint32_t tid, std::uint64_t seed) {
  return std::make_unique<PrivateProgram>(
      params_, tid,
      util::derive_seed(seed_, (static_cast<std::uint64_t>(tid) << 16) ^
                                   seed));
}

}  // namespace spcd::workloads

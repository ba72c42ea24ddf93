#include "workloads/alltoall_kernel.hpp"

#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "workloads/block_program.hpp"
#include "workloads/layout.hpp"

namespace spcd::workloads {

namespace {

class AllToAllProgram final : public BlockProgram {
 public:
  AllToAllProgram(const AllToAllKernel& kernel, const AllToAllParams& params,
                  std::uint32_t tid, std::uint64_t seed)
      : kernel_(kernel),
        params_(params),
        tid_(tid),
        rng_(seed),
        own_base_(kernel.chunk_base(tid)),
        local_(own_base_, params.chunk_bytes, params.locality) {}

 protected:
  bool fill(std::vector<sim::Op>& out) override {
    if (iter_ > params_.iterations) return false;
    if (iter_ == 0) {
      // Touch every line: initialization loads/stores the whole array, so
      // compulsory misses are front-loaded like in the real codes (and the
      // frames land on this thread's NUMA node, first-touch).
      const std::uint64_t lines = (params_.chunk_bytes + 63) / 64;
      for (; step_ < lines && room(out); ++step_) {
        out.push_back(sim::Op::access(own_base_ + step_ * 64, true,
                                      params_.insns_per_ref, 12));
      }
      end_iteration(out, lines);
      return true;
    }
    if (step_ == 0) local_.drift(iter_);

    for (; step_ < params_.refs_per_iter && room(out); ++step_) {
      std::uint64_t addr;
      bool write;
      if (rng_.uniform() < params_.remote_frac) {
        auto other = static_cast<std::uint32_t>(
            rng_.below(params_.threads - 1));
        if (other >= tid_) ++other;
        addr = kernel_.chunk_base(other) + rng_.below(params_.chunk_bytes);
        write = params_.remote_writes;
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
  const AllToAllKernel& kernel_;
  const AllToAllParams& params_;
  std::uint32_t tid_;
  util::Xoshiro256 rng_;
  std::uint64_t own_base_;
  LocalityCursor local_;
};

}  // namespace

AllToAllKernel::AllToAllKernel(AllToAllParams params, std::uint64_t seed)
    : params_(std::move(params)), seed_(seed) {
  SPCD_EXPECTS(params_.threads >= 2);
  chunk_stride_ = (params_.chunk_bytes + 4095) & ~4095ULL;
}

std::uint64_t AllToAllKernel::chunk_base(std::uint32_t tid) const {
  return kSharedBase + tid * chunk_stride_;
}

std::unique_ptr<sim::ThreadProgram> AllToAllKernel::make_thread(
    std::uint32_t tid, std::uint64_t seed) {
  return std::make_unique<AllToAllProgram>(
      *this, params_, tid,
      util::derive_seed(seed_, (static_cast<std::uint64_t>(tid) << 16) ^
                                   seed));
}

}  // namespace spcd::workloads

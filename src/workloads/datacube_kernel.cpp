#include "workloads/datacube_kernel.hpp"

#include <algorithm>
#include <optional>

#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "workloads/block_program.hpp"
#include "workloads/layout.hpp"

namespace spcd::workloads {

namespace {

class DataCubeProgram final : public BlockProgram {
 public:
  DataCubeProgram(const DataCubeParams& params, std::uint32_t tid,
                  std::uint64_t seed)
      : params_(params), tid_(tid), rng_(seed) {
    const std::uint64_t slice = params_.cube_bytes / params_.threads;
    const auto window = static_cast<std::uint64_t>(
        params_.hot_window_factor * static_cast<double>(slice));
    const std::uint64_t center = tid_ * slice + slice / 2;
    hot_base_ = center >= window / 2 ? center - window / 2 : 0;
    hot_size_ = std::min(window, params_.cube_bytes - hot_base_);
    hot_cursor_.emplace(kSharedBase + hot_base_, hot_size_, params_.locality);
  }

 protected:
  bool fill(std::vector<sim::Op>& out) override {
    if (iter_ > params_.iterations) return false;
    if (iter_ == 0) {
      // Parallel first touch of this thread's slice of the cube.
      const std::uint64_t slice = params_.cube_bytes / params_.threads;
      const std::uint64_t base = kSharedBase + tid_ * slice;
      const std::uint64_t pages = (slice + 4095) / 4096;
      for (; step_ < pages && room(out); ++step_) {
        out.push_back(sim::Op::access(base + step_ * 4096, true,
                                      params_.insns_per_ref, 40));
      }
      end_iteration(out, pages);
      return true;
    }
    if (step_ == 0) hot_cursor_->drift(iter_);
    for (; step_ < params_.refs_per_iter && room(out); ++step_) {
      const double u = rng_.uniform();
      std::uint64_t addr;
      bool write;
      if (u < params_.hot_frac) {
        addr = hot_cursor_->next(rng_);
        write = false;
      } else if (u < params_.hot_frac + params_.uniform_frac) {
        addr = kSharedBase + rng_.below(params_.cube_bytes);
        write = false;
      } else {
        addr = private_base(tid_) + rng_.below(params_.staging_bytes);
        write = true;
      }
      out.push_back(sim::Op::access(addr, write, params_.insns_per_ref,
                                    params_.compute_cycles));
    }
    end_iteration(out, params_.refs_per_iter);
    return true;
  }

 private:
  const DataCubeParams& params_;
  std::uint32_t tid_;
  util::Xoshiro256 rng_;
  std::uint64_t hot_base_ = 0;
  std::uint64_t hot_size_ = 0;
  std::optional<LocalityCursor> hot_cursor_;
};

}  // namespace

DataCubeKernel::DataCubeKernel(DataCubeParams params, std::uint64_t seed)
    : params_(std::move(params)), seed_(seed) {
  SPCD_EXPECTS(params_.threads >= 2);
  SPCD_EXPECTS(params_.cube_bytes >= params_.threads * 4096ULL);
}

std::unique_ptr<sim::ThreadProgram> DataCubeKernel::make_thread(
    std::uint32_t tid, std::uint64_t seed) {
  return std::make_unique<DataCubeProgram>(
      params_, tid,
      util::derive_seed(seed_, (static_cast<std::uint64_t>(tid) << 16) ^
                                   seed));
}

}  // namespace spcd::workloads

#include "workloads/domain_kernel.hpp"

#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "workloads/block_program.hpp"
#include "workloads/layout.hpp"

namespace spcd::workloads {

namespace {

class DomainProgram final : public BlockProgram {
 public:
  DomainProgram(const DomainKernel& kernel, const DomainParams& params,
                const std::vector<double>& stride_cdf, std::uint32_t tid,
                std::uint64_t seed)
      : kernel_(kernel),
        params_(params),
        stride_cdf_(stride_cdf),
        tid_(tid),
        rng_(seed),
        own_base_(kernel.chunk_base(tid)),
        interior_(own_base_ + params.halo_bytes,
                  params.chunk_bytes - params.halo_bytes, params.locality) {}

 protected:
  bool fill(std::vector<sim::Op>& out) override {
    if (iter_ > params_.iterations) return false;
    if (iter_ == 0) {
      emit_init(out);
    } else {
      emit_iteration(out);
    }
    return true;
  }

 private:
  // Parallel first-touch initialization: every thread touches each page of
  // its own chunk so the frames land on its NUMA node, like an OpenMP
  // initialization loop would.
  void emit_init(std::vector<sim::Op>& out) {
    // Touch every line: initialization writes the whole array, so
    // compulsory misses are front-loaded like in the real codes (and the
    // frames land on this thread's NUMA node, first-touch).
    const std::uint64_t lines = (params_.chunk_bytes + 63) / 64;
    for (; step_ < lines && room(out); ++step_) {
      out.push_back(sim::Op::access(own_base_ + step_ * 64, /*write=*/true,
                                    params_.insns_per_ref, 12));
    }
    end_iteration(out, lines);
  }

  std::uint32_t pick_partner() {
    const double u = rng_.uniform();
    std::size_t k = 0;
    while (k + 1 < stride_cdf_.size() && u > stride_cdf_[k]) ++k;
    const int stride = params_.neighbor_strides[k].stride;
    const auto n = params_.threads;
    if (stride == 0) {
      // "Random thread" entry: uniform over all other threads.
      auto other = static_cast<std::uint32_t>(rng_.below(n - 1));
      if (other >= tid_) ++other;
      return other;
    }
    return static_cast<std::uint32_t>(
        (static_cast<int>(tid_) + stride + static_cast<int>(n)) %
        static_cast<int>(n));
  }

  void emit_iteration(std::vector<sim::Op>& out) {
    if (step_ == 0) interior_.drift(iter_);
    for (; step_ < params_.refs_per_iter && room(out); ++step_) {
      std::uint64_t addr;
      bool write;
      if (rng_.uniform() < params_.halo_frac) {
        if (rng_.uniform() < params_.neighbor_read_frac) {
          // Read a neighbor's halo: this is the communication SPCD sees.
          const std::uint32_t partner = pick_partner();
          addr = kernel_.chunk_base(partner) +
                 rng_.below(params_.halo_bytes);
          write = false;
        } else {
          // Publish into the own halo for neighbors to consume.
          addr = own_base_ + rng_.below(params_.halo_bytes);
          write = true;
        }
      } else {
        addr = interior_.next(rng_);
        write = rng_.uniform() < params_.write_frac;
      }
      out.push_back(sim::Op::access(addr, write, params_.insns_per_ref,
                                    params_.compute_cycles));
    }
    end_iteration(out, params_.refs_per_iter);
  }

  const DomainKernel& kernel_;
  const DomainParams& params_;
  const std::vector<double>& stride_cdf_;
  std::uint32_t tid_;
  util::Xoshiro256 rng_;
  std::uint64_t own_base_;
  LocalityCursor interior_;
};

}  // namespace

DomainKernel::DomainKernel(DomainParams params, std::uint64_t seed)
    : params_(std::move(params)), seed_(seed) {
  SPCD_EXPECTS(params_.threads >= 2);
  SPCD_EXPECTS(params_.halo_bytes < params_.chunk_bytes);
  SPCD_EXPECTS(!params_.neighbor_strides.empty());

  double total = 0.0;
  for (const auto& s : params_.neighbor_strides) total += s.weight;
  SPCD_EXPECTS(total > 0.0);
  double acc = 0.0;
  for (const auto& s : params_.neighbor_strides) {
    acc += s.weight / total;
    stride_cdf_.push_back(acc);
  }
}

std::uint64_t DomainKernel::chunk_base(std::uint32_t tid) const {
  return kSharedBase + tid * params_.chunk_bytes;
}

std::unique_ptr<sim::ThreadProgram> DomainKernel::make_thread(
    std::uint32_t tid, std::uint64_t seed) {
  return std::make_unique<DomainProgram>(
      *this, params_, stride_cdf_, tid,
      util::derive_seed(seed_, (static_cast<std::uint64_t>(tid) << 16) ^
                                   seed));
}

}  // namespace spcd::workloads

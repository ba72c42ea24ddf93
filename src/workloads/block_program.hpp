// Helper base for thread programs: concrete workloads generate their op
// stream a block of at most kBlockOps ops at a time; the engine consumes
// it op by op. The kernels stay written as straightforward loops that keep
// a cursor and resume where the last block stopped — mid-iteration, or
// mid-way through a first-touch sweep — so the buffer between generator
// and engine stays 1.5 KB, whatever the iteration length, and an op is
// still in the host's caches when the engine reads it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/workload.hpp"
#include "util/contracts.hpp"

namespace spcd::workloads {

class BlockProgram : public sim::ThreadProgram {
 public:
  /// Most ops one fill() may emit.
  static constexpr std::size_t kBlockOps = 64;

  BlockProgram() { block_.reserve(kBlockOps); }

  sim::Op next() final {
    while (pos_ >= block_.size()) {
      block_.clear();
      pos_ = 0;
      if (!fill(block_)) return sim::Op::finish();
      SPCD_ENSURES(block_.size() <= kBlockOps);
    }
    return block_[pos_++];
  }

 protected:
  /// Emit the next batch of at most kBlockOps ops. Return false when the
  /// thread is done (`out` must then be left empty).
  virtual bool fill(std::vector<sim::Op>& out) = 0;

  /// True while `out` can take another op.
  static bool room(const std::vector<sim::Op>& out) {
    return out.size() < kBlockOps;
  }

  /// Closes outer iteration `iter_` with its barrier once all `ops` of its
  /// ops are out and the block has room, moving the cursor to the next.
  void end_iteration(std::vector<sim::Op>& out, std::uint64_t ops) {
    if (step_ < ops || !room(out)) return;
    out.push_back(sim::Op::barrier());
    step_ = 0;
    ++iter_;
  }

  /// Where the kernels' loops resume: outer iteration `iter_` (0 is the
  /// first-touch sweep in kernels that have one) has emitted `step_` ops.
  std::uint32_t iter_ = 0;
  std::uint64_t step_ = 0;

 private:
  std::vector<sim::Op> block_;
  std::size_t pos_ = 0;
};

}  // namespace spcd::workloads

#include "workloads/block_program.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workloads/layout.hpp"
#include "workloads/npb.hpp"

namespace spcd::workloads {
namespace {

/// Emits `blocks` blocks of `per_block` compute ops.
class CountingProgram final : public BlockProgram {
 public:
  CountingProgram(int blocks, int per_block)
      : blocks_(blocks), per_block_(per_block) {}
  int fills = 0;

 protected:
  bool fill(std::vector<sim::Op>& out) override {
    if (fills >= blocks_) return false;
    ++fills;
    for (int i = 0; i < per_block_; ++i) {
      out.push_back(sim::Op::compute(1, 10));
    }
    return true;
  }

 private:
  int blocks_, per_block_;
};

TEST(BlockProgramTest, DrainsAllBlocksThenFinishes) {
  CountingProgram program(3, 5);
  int ops = 0;
  while (program.next().kind != sim::OpKind::kFinish) ++ops;
  EXPECT_EQ(ops, 15);
  EXPECT_EQ(program.fills, 3);
}

TEST(BlockProgramTest, FillIsLazy) {
  CountingProgram program(2, 4);
  EXPECT_EQ(program.fills, 0);
  (void)program.next();
  EXPECT_EQ(program.fills, 1);  // only the first block generated so far
  for (int i = 0; i < 3; ++i) (void)program.next();
  EXPECT_EQ(program.fills, 1);
  (void)program.next();  // crosses into block 2
  EXPECT_EQ(program.fills, 2);
}

TEST(BlockProgramTest, EmptyBlocksAreSkipped) {
  class Sparse final : public BlockProgram {
   public:
    int fills = 0;

   protected:
    bool fill(std::vector<sim::Op>& out) override {
      ++fills;
      if (fills > 5) return false;
      if (fills == 3) out.push_back(sim::Op::compute(1, 1));
      return true;  // all other blocks empty
    }
  };
  Sparse program;
  EXPECT_EQ(program.next().kind, sim::OpKind::kCompute);
  EXPECT_EQ(program.next().kind, sim::OpKind::kFinish);
  EXPECT_EQ(program.fills, 6);
}

TEST(BlockProgramTest, FinishIsSticky) {
  CountingProgram program(1, 1);
  (void)program.next();
  EXPECT_EQ(program.next().kind, sim::OpKind::kFinish);
  EXPECT_EQ(program.next().kind, sim::OpKind::kFinish);
}

TEST(BlockProgramTest, FillsStayWithinTheBound) {
  // next() checks every block against kBlockOps: a block of exactly the
  // bound is fine, one op more aborts.
  CountingProgram exact(1, static_cast<int>(BlockProgram::kBlockOps));
  EXPECT_EQ(exact.next().kind, sim::OpKind::kCompute);
  CountingProgram over(1, static_cast<int>(BlockProgram::kBlockOps) + 1);
  EXPECT_DEATH((void)over.next(), "Postcondition");

  // So draining threads of every kernel through a whole run (first
  // touch included) aborts if any of their fills emitted more.
  std::vector<std::unique_ptr<sim::Workload>> workloads;
  for (const auto& info : nas_benchmarks()) {
    workloads.push_back(make_nas(info.name, 3, 0.05));
  }
  workloads.push_back(make_prodcons(3, 0.05));
  for (auto& wl : workloads) {
    for (std::uint32_t tid = 0; tid < wl->num_threads(); tid += 7) {
      auto program = wl->make_thread(tid, tid);
      std::uint64_t ops = 0;
      while (program->next().kind != sim::OpKind::kFinish) ++ops;
      EXPECT_GT(ops, BlockProgram::kBlockOps) << wl->name();
    }
  }
}

TEST(LayoutTest, PrivateRegionsAreDisjointAndAboveShared) {
  EXPECT_GT(kPrivateBase, kSharedBase);
  for (std::uint32_t t = 0; t < 64; ++t) {
    EXPECT_EQ(private_base(t + 1) - private_base(t), kPrivateStride);
  }
  // 64 MiB windows: a thread's buffer never bleeds into the next window.
  EXPECT_EQ(private_base(1) - private_base(0), 64ULL * 1024 * 1024);
}

TEST(OpFactoryTest, BuildersSetAllFields) {
  const auto a = sim::Op::access(0x123, true, 7, 99);
  EXPECT_EQ(a.kind, sim::OpKind::kAccess);
  EXPECT_TRUE(a.write);
  EXPECT_EQ(a.insns, 7u);
  EXPECT_EQ(a.cycles, 99u);
  EXPECT_EQ(a.vaddr, 0x123u);

  const auto c = sim::Op::compute(3, 50);
  EXPECT_EQ(c.kind, sim::OpKind::kCompute);
  EXPECT_EQ(c.insns, 3u);

  EXPECT_EQ(sim::Op::barrier().kind, sim::OpKind::kBarrier);
  EXPECT_EQ(sim::Op::finish().kind, sim::OpKind::kFinish);
}

}  // namespace
}  // namespace spcd::workloads

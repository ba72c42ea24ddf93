#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "workloads/alltoall_kernel.hpp"
#include "workloads/datacube_kernel.hpp"
#include "workloads/domain_kernel.hpp"
#include "workloads/locality.hpp"
#include "workloads/layout.hpp"
#include "workloads/npb.hpp"
#include "workloads/private_kernel.hpp"
#include "workloads/prodcons.hpp"

namespace spcd::workloads {
namespace {

/// Drain a thread program, returning every op (bounded for safety).
std::vector<sim::Op> drain(sim::ThreadProgram& program,
                           std::size_t limit = 5'000'000) {
  std::vector<sim::Op> ops;
  for (std::size_t i = 0; i < limit; ++i) {
    const sim::Op op = program.next();
    if (op.kind == sim::OpKind::kFinish) return ops;
    ops.push_back(op);
  }
  ADD_FAILURE() << "program did not finish within " << limit << " ops";
  return ops;
}

std::size_t barrier_count(const std::vector<sim::Op>& ops) {
  std::size_t n = 0;
  for (const auto& op : ops) {
    if (op.kind == sim::OpKind::kBarrier) ++n;
  }
  return n;
}

TEST(LocalityCursorTest, StaysInBounds) {
  util::Xoshiro256 rng(1);
  LocalityParams params;
  LocalityCursor cursor(0x1000, 0x8000, params);
  for (int i = 0; i < 50000; ++i) {
    const auto addr = cursor.next(rng);
    ASSERT_GE(addr, 0x1000u);
    ASSERT_LT(addr, 0x9000u);
    if (i % 1000 == 0) cursor.drift(static_cast<std::uint64_t>(i));
  }
}

TEST(LocalityCursorTest, LineBurstKeepsConsecutiveAccessesOnOneLine) {
  util::Xoshiro256 rng(2);
  LocalityParams params;
  params.stream_frac = 0.0;  // only hot/background picks, which burst
  params.hot_frac = 1.0;
  params.line_burst = 4;
  LocalityCursor cursor(0, 1 << 20, params);
  std::size_t same_line = 0, total = 0;
  std::uint64_t prev = cursor.next(rng);
  for (int i = 0; i < 4000; ++i) {
    const auto addr = cursor.next(rng);
    ++total;
    if ((addr >> 6) == (prev >> 6)) ++same_line;
    prev = addr;
  }
  // With bursts of 4, at least ~70% of consecutive accesses share a line.
  EXPECT_GT(static_cast<double>(same_line) / static_cast<double>(total),
            0.70);
}

TEST(LocalityCursorTest, StreamAdvancesSequentially) {
  util::Xoshiro256 rng(3);
  LocalityParams params;
  params.stream_frac = 1.0;
  params.hot_frac = 0.0;
  params.stream_step = 8;
  LocalityCursor cursor(100, 1000, params);
  std::uint64_t prev = cursor.next(rng);
  for (int i = 0; i < 50; ++i) {
    const auto addr = cursor.next(rng);
    EXPECT_EQ(addr, 100 + ((prev - 100) + 8) % 1000);
    prev = addr;
  }
}

TEST(DomainKernelTest, ThreadsProduceBarriersPerIteration) {
  DomainParams p;
  p.threads = 4;
  p.iterations = 5;
  p.refs_per_iter = 100;
  p.chunk_bytes = 64 * 1024;
  p.halo_bytes = 8 * 1024;
  DomainKernel kernel(p, 1);
  auto program = kernel.make_thread(0, 0);
  const auto ops = drain(*program);
  EXPECT_EQ(barrier_count(ops), 6u);  // init + 5 iterations
}

TEST(DomainKernelTest, ChunksAreContiguous) {
  DomainParams p;
  p.chunk_bytes = 100'000;  // deliberately not page aligned
  DomainKernel kernel(p, 1);
  EXPECT_EQ(kernel.chunk_base(1) - kernel.chunk_base(0), 100'000u);
}

TEST(DomainKernelTest, HaloTrafficTargetsNeighbors) {
  DomainParams p;
  p.threads = 8;
  p.iterations = 20;
  p.refs_per_iter = 500;
  p.chunk_bytes = 256 * 1024;
  p.halo_bytes = 32 * 1024;
  p.halo_frac = 0.5;
  DomainKernel kernel(p, 1);
  auto program = kernel.make_thread(3, 0);
  std::set<std::uint32_t> touched_owners;
  for (const auto& op : drain(*program)) {
    if (op.kind != sim::OpKind::kAccess) continue;
    const auto owner = static_cast<std::uint32_t>(
        (op.vaddr - kernel.chunk_base(0)) / p.chunk_bytes);
    touched_owners.insert(owner);
  }
  EXPECT_TRUE(touched_owners.count(2));
  EXPECT_TRUE(touched_owners.count(3));
  EXPECT_TRUE(touched_owners.count(4));
  EXPECT_FALSE(touched_owners.count(6));  // distant chunk untouched
}

TEST(DomainKernelTest, RandomStrideEntryReachesDistantThreads) {
  DomainParams p;
  p.threads = 8;
  p.iterations = 30;
  p.refs_per_iter = 1000;
  p.chunk_bytes = 128 * 1024;
  p.halo_bytes = 16 * 1024;
  p.halo_frac = 0.5;
  p.neighbor_strides = {{0, 1.0}};  // pure random partner
  DomainKernel kernel(p, 1);
  auto program = kernel.make_thread(0, 0);
  std::set<std::uint32_t> owners;
  for (const auto& op : drain(*program)) {
    if (op.kind != sim::OpKind::kAccess) continue;
    owners.insert(static_cast<std::uint32_t>(
        (op.vaddr - kernel.chunk_base(0)) / p.chunk_bytes));
  }
  EXPECT_GE(owners.size(), 7u);  // reaches almost everyone
}

TEST(AllToAllKernelTest, RemoteRefsSpreadUniformly) {
  AllToAllParams p;
  p.threads = 8;
  p.iterations = 30;
  p.refs_per_iter = 1000;
  p.chunk_bytes = 128 * 1024;
  p.remote_frac = 0.5;
  AllToAllKernel kernel(p, 1);
  auto program = kernel.make_thread(0, 0);
  std::map<std::uint32_t, int> owner_counts;
  for (const auto& op : drain(*program)) {
    if (op.kind != sim::OpKind::kAccess) continue;
    const auto owner = static_cast<std::uint32_t>(
        (op.vaddr - kernel.chunk_base(0)) / ((p.chunk_bytes + 4095) &
                                             ~4095ULL));
    if (owner != 0) ++owner_counts[owner];
  }
  EXPECT_EQ(owner_counts.size(), 7u);
  int min = INT32_MAX, max = 0;
  for (const auto& [owner, count] : owner_counts) {
    min = std::min(min, count);
    max = std::max(max, count);
  }
  EXPECT_LT(max, 2 * min);  // roughly uniform
}

TEST(AllToAllKernelTest, RemoteWritesFlagHonored) {
  AllToAllParams p;
  p.threads = 4;
  p.iterations = 10;
  p.refs_per_iter = 500;
  p.chunk_bytes = 64 * 1024;
  p.remote_frac = 1.0;
  p.remote_writes = true;
  AllToAllKernel kernel(p, 1);
  auto program = kernel.make_thread(0, 0);
  bool saw_iteration_op = false;
  std::size_t barriers = 0;
  for (const auto& op : drain(*program)) {
    if (op.kind == sim::OpKind::kBarrier) {
      ++barriers;
      continue;
    }
    if (barriers >= 1 && op.kind == sim::OpKind::kAccess) {
      saw_iteration_op = true;
      EXPECT_TRUE(op.write);  // every post-init ref is a remote write
    }
  }
  EXPECT_TRUE(saw_iteration_op);
}

TEST(PrivateKernelTest, AlmostNoSharedAccesses) {
  PrivateParams p;
  p.threads = 4;
  p.iterations = 10;
  p.refs_per_iter = 2000;
  p.shared_frac = 0.001;
  PrivateKernel kernel(p, 1);
  auto program = kernel.make_thread(2, 0);
  std::size_t shared = 0, total = 0;
  for (const auto& op : drain(*program)) {
    if (op.kind != sim::OpKind::kAccess) continue;
    ++total;
    if (op.vaddr < kPrivateBase) ++shared;
  }
  EXPECT_LT(static_cast<double>(shared) / static_cast<double>(total), 0.01);
}

TEST(DataCubeKernelTest, HotWindowOverlapsNeighborSlices) {
  DataCubeParams p;
  p.threads = 8;
  p.iterations = 10;
  p.refs_per_iter = 2000;
  p.cube_bytes = 8 * util::kMiB;
  p.uniform_frac = 0.0;
  p.hot_frac = 1.0;
  DataCubeKernel kernel(p, 1);
  auto program = kernel.make_thread(4, 0);
  const std::uint64_t slice = p.cube_bytes / p.threads;
  std::set<std::uint32_t> slices;
  std::size_t barriers = 0;
  for (const auto& op : drain(*program)) {
    if (op.kind == sim::OpKind::kBarrier) {
      ++barriers;
      continue;
    }
    if (barriers == 0 || op.kind != sim::OpKind::kAccess) continue;
    if (op.vaddr >= kPrivateBase) continue;
    slices.insert(static_cast<std::uint32_t>((op.vaddr - kSharedBase) /
                                             slice));
  }
  EXPECT_TRUE(slices.count(4));
  // The 1.25-slice hot window spills into an adjacent slice.
  EXPECT_GE(slices.size(), 2u);
  for (const auto s : slices) {
    EXPECT_GE(s, 3u);
    EXPECT_LE(s, 5u);
  }
}

TEST(ProducerConsumerTest, PartnersMatchPaperPhases) {
  ProdConsParams p;
  ProducerConsumer wl(p, 1);
  // Phase 0: neighbors.
  EXPECT_EQ(wl.partner_in_phase(0, 0), 1u);
  EXPECT_EQ(wl.partner_in_phase(1, 0), 0u);
  EXPECT_EQ(wl.partner_in_phase(30, 0), 31u);
  // Phase 1: distant (t, t+16).
  EXPECT_EQ(wl.partner_in_phase(0, 1), 16u);
  EXPECT_EQ(wl.partner_in_phase(16, 1), 0u);
  EXPECT_EQ(wl.partner_in_phase(31, 1), 15u);
  // Partnership is symmetric in both phases.
  for (std::uint32_t phase = 0; phase < 2; ++phase) {
    for (std::uint32_t t = 0; t < 32; ++t) {
      EXPECT_EQ(wl.partner_in_phase(wl.partner_in_phase(t, phase), phase), t);
    }
  }
}

TEST(ProducerConsumerTest, PairSharesBufferWithinPhase) {
  ProdConsParams p;
  ProducerConsumer wl(p, 1);
  EXPECT_EQ(wl.buffer_base(0, 0), wl.buffer_base(1, 0));
  EXPECT_EQ(wl.buffer_base(0, 1), wl.buffer_base(16, 1));
  EXPECT_NE(wl.buffer_base(0, 0), wl.buffer_base(2, 0));
  // Phase regions are disjoint.
  EXPECT_NE(wl.buffer_base(0, 0), wl.buffer_base(0, 1));
}

TEST(ProducerConsumerTest, ProducerWritesConsumerReads) {
  ProdConsParams p;
  p.pairs = 2;
  p.iterations_per_phase = 5;
  p.phases = 1;
  p.refs_per_iter = 1000;
  ProducerConsumer wl(p, 1);
  auto producer = wl.make_thread(0, 0);
  auto consumer = wl.make_thread(1, 0);
  auto count_writes = [](const std::vector<sim::Op>& ops) {
    std::size_t w = 0, total = 0;
    for (const auto& op : ops) {
      if (op.kind != sim::OpKind::kAccess) continue;
      ++total;
      if (op.write) ++w;
    }
    return static_cast<double>(w) / static_cast<double>(total);
  };
  EXPECT_GT(count_writes(drain(*producer)), 0.8);
  EXPECT_LT(count_writes(drain(*consumer)), 0.2);
}

TEST(NpbRegistryTest, AllTenBenchmarksListed) {
  const auto& list = nas_benchmarks();
  ASSERT_EQ(list.size(), 10u);
  EXPECT_EQ(list[0].name, "bt");
  EXPECT_EQ(list[9].name, "ua");
  // Classification matches the paper's Table II.
  std::map<std::string, PatternClass> expected = {
      {"bt", PatternClass::kHeterogeneous},
      {"cg", PatternClass::kHeterogeneous},
      {"dc", PatternClass::kHeterogeneous},
      {"ep", PatternClass::kHomogeneous},
      {"ft", PatternClass::kHomogeneous},
      {"is", PatternClass::kHomogeneous},
      {"lu", PatternClass::kHeterogeneous},
      {"mg", PatternClass::kHeterogeneous},
      {"sp", PatternClass::kHeterogeneous},
      {"ua", PatternClass::kHeterogeneous},
  };
  for (const auto& info : list) {
    EXPECT_EQ(info.pattern, expected.at(info.name)) << info.name;
  }
}

TEST(NpbRegistryTest, EveryBenchmarkInstantiatesWith32Threads) {
  for (const auto& info : nas_benchmarks()) {
    const auto wl = make_nas(info.name, 1);
    ASSERT_NE(wl, nullptr);
    EXPECT_EQ(wl->num_threads(), 32u) << info.name;
    EXPECT_EQ(wl->name(), info.name);
    auto program = wl->make_thread(0, 0);
    EXPECT_NE(program->next().kind, sim::OpKind::kFinish) << info.name;
  }
}

TEST(NpbRegistryTest, UnknownNameThrows) {
  EXPECT_THROW((void)make_nas("xx", 1), std::invalid_argument);
}

TEST(NpbRegistryTest, ScaleShortensRuns) {
  const auto full = make_nas("sp", 1, 1.0);
  const auto tiny = make_nas("sp", 1, 0.05);
  auto count_ops = [](sim::Workload& wl) {
    auto program = wl.make_thread(0, 0);
    std::size_t n = 0;
    while (program->next().kind != sim::OpKind::kFinish) ++n;
    return n;
  };
  EXPECT_LT(count_ops(*tiny), count_ops(*full) / 5);
}

TEST(NpbRegistryTest, FactoryAdapterWorks) {
  const auto factory = nas_factory("cg", 0.1);
  const auto wl = factory(123);
  ASSERT_NE(wl, nullptr);
  EXPECT_EQ(wl->name(), "cg");
}

TEST(NpbRegistryTest, ProdconsFactory) {
  const auto wl = make_prodcons(1, 0.2);
  ASSERT_NE(wl, nullptr);
  EXPECT_EQ(wl->num_threads(), 32u);
}

/// FNV-1a over the bytes of an integer, low byte first.
template <typename T>
void fnv1a(std::uint64_t& h, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    h ^= static_cast<std::uint64_t>(value >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

/// FNV-1a over every field of every op a thread program emits, up to and
/// including its finish op.
std::uint64_t stream_digest(sim::ThreadProgram& program) {
  std::uint64_t h = kFnvOffset;
  for (;;) {
    const sim::Op op = program.next();
    fnv1a(h, static_cast<std::uint8_t>(op.kind));
    fnv1a(h, static_cast<std::uint8_t>(op.write));
    fnv1a(h, op.insns);
    fnv1a(h, op.cycles);
    fnv1a(h, op.vaddr);
    if (op.kind == sim::OpKind::kFinish) return h;
  }
}

/// Digest of a workload's op streams: each thread's stream digest, made
/// the way the engine makes threads (seed = tid), folded in tid order.
std::uint64_t workload_digest(sim::Workload& wl) {
  std::uint64_t h = kFnvOffset;
  for (std::uint32_t tid = 0; tid < wl.num_threads(); ++tid) {
    fnv1a(h, stream_digest(*wl.make_thread(tid, tid)));
  }
  return h;
}

// Every kernel's op streams at scale 0.05, pinned to the digests they had
// when op generation still emitted one whole outer iteration per fill:
// how a program cuts its stream into blocks must not change the stream.
TEST(OpStreamTest, StreamsMatchPinnedDigests) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"bt", 13763132132623188489ULL},
      {"cg", 3813639435526441625ULL},
      {"dc", 16756907711840056401ULL},
      {"ep", 2748826070884290899ULL},
      {"ft", 9772232176786582704ULL},
      {"is", 12746476094887318512ULL},
      {"lu", 2633984331948881128ULL},
      {"mg", 6136162196020019436ULL},
      {"prodcons", 11703890559778928882ULL},
      {"sp", 7184212023470740768ULL},
      {"ua", 2101002071430115762ULL},
  };
  std::map<std::string, std::uint64_t> actual;
  for (const auto& info : nas_benchmarks()) {
    actual[info.name] = workload_digest(*make_nas(info.name, 7, 0.05));
  }
  actual["prodcons"] = workload_digest(*make_prodcons(7, 0.05));
  EXPECT_EQ(actual, pinned);
}

}  // namespace
}  // namespace spcd::workloads

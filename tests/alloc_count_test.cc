// Counts calls to the global operator new to check that the sharded,
// batched and patched paths hand their results back without copying
// them: a run that copies its result on the way out allocates about one
// extra block per output tuple. Replacing operator new affects the whole
// binary, so this suite has a binary of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "engine/batch_runner.h"
#include "engine/incremental.h"
#include "engine/join_engine.h"
#include "engine/parallel_executor.h"
#include "workload/generators.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* Allocate(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* AllocateOrThrow(std::size_t size) {
  if (void* p = Allocate(size)) return p;
  throw std::bad_alloc();
}

// Out of line: inlined into a caller, std::free would face a pointer
// from operator new, and GCC's -Wmismatched-new-delete would flag it.
__attribute__((noinline)) void Release(void* p) noexcept { std::free(p); }

}  // namespace

// Every replaceable form, nothrow and array ones included, goes through
// malloc and free, so no block is released by another allocator than
// the one that made it (AddressSanitizer checks that pairing).
void* operator new(std::size_t size) { return AllocateOrThrow(size); }
void* operator new[](std::size_t size) { return AllocateOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}

namespace tetris {
namespace {

// The allocations `fn` makes, on every thread of the process.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  const int64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

// The sharded Tetris path on the AGM worst case: a full-grid triangle
// with Z = 24^3 outputs, 8 shards on a 1-worker pool.
class AllocCountTest : public ::testing::Test {
 protected:
  static constexpr double kSlack = 1.1;

  AllocCountTest() : instance_(FullGridTriangle(24)), pool_(1) {
    sharded_.shards = 8;
    sharded_.executor = &pool_;
  }

  int64_t PlainRunAllocations() {
    EngineResult r;
    const int64_t n = CountAllocations(
        [&] { r = RunJoin(instance_.query, EngineKind::kTetrisPreloaded); });
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.tuples.size(), kOutputs);
    return n;
  }

  static constexpr size_t kOutputs = 24 * 24 * 24;
  QueryInstance instance_;
  WorkStealingPool pool_;
  EngineOptions sharded_;
};

TEST_F(AllocCountTest, ShardedRunAllocatesLikeAPlainRun) {
  const int64_t plain = PlainRunAllocations();
  EngineResult r;
  const int64_t sharded = CountAllocations([&] {
    r = RunJoin(instance_.query, EngineKind::kTetrisPreloaded, sharded_);
  });
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.stats.shards, 8u);
  EXPECT_EQ(r.tuples.size(), kOutputs);
  EXPECT_LE(static_cast<double>(sharded), kSlack * static_cast<double>(plain))
      << "plain " << plain << ", sharded " << sharded;
}

TEST_F(AllocCountTest, OneQueryBatchAllocatesLikeAPlainRun) {
  const int64_t plain = PlainRunAllocations();
  BatchOptions bopts;
  bopts.shards = sharded_.shards;
  bopts.executor = &pool_;
  BatchResult batch;
  const int64_t batched = CountAllocations([&] {
    batch = RunBatch({}, {instance_.query}, EngineKind::kTetrisPreloaded,
                     bopts);
  });
  ASSERT_TRUE(batch.ok) << batch.error;
  ASSERT_EQ(batch.results.size(), 1u);
  ASSERT_TRUE(batch.results[0].ok) << batch.results[0].error;
  EXPECT_EQ(batch.results[0].tuples.size(), kOutputs);
  EXPECT_LE(static_cast<double>(batched), kSlack * static_cast<double>(plain))
      << "plain " << plain << ", batched " << batched;
}

// A patch must copy the old result once (the tuples it keeps), not twice.
TEST_F(AllocCountTest, OneRowPatchCopiesTheResultOnce) {
  const EngineResult full =
      RunJoin(instance_.query, EngineKind::kTetrisPreloaded, sharded_);
  ASSERT_TRUE(full.ok) << full.error;
  const std::vector<DyadicBox> touched = TouchedOutputBoxes(
      instance_.query, instance_.depth, "R", {Tuple{5, 7}});
  ASSERT_EQ(touched.size(), 1u);
  PatchResult patch;
  const int64_t patched = CountAllocations([&] {
    patch = PatchJoin(instance_.query, EngineKind::kTetrisPreloaded,
                      sharded_, full.tuples, touched);
  });
  ASSERT_TRUE(patch.result.ok) << patch.result.error;
  EXPECT_FALSE(patch.full_recompute);
  EXPECT_LT(patch.shards_rerun, patch.shards_total);
  EXPECT_EQ(patch.result.tuples, full.tuples);
  EXPECT_LE(static_cast<double>(patched),
            kSlack * static_cast<double>(kOutputs))
      << "Z " << kOutputs << ", patched " << patched;
}

}  // namespace
}  // namespace tetris

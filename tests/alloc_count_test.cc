// Counts calls to the global operator new to check that the sharded,
// batched, patched and served paths hand their results back without
// copying them: a run that copies its result on the way out allocates
// about one extra block per output tuple. It also checks that a Tetris run
// allocates nothing per gap box or per probe: gap boxes stream from the
// indexes into the knowledge base. Replacing operator new affects the
// whole binary, so this suite has a binary of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "engine/batch_runner.h"
#include "engine/incremental.h"
#include "engine/join_engine.h"
#include "engine/join_runner.h"
#include "engine/parallel_executor.h"
#include "server/join_service.h"
#include "server/protocol.h"
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

// A serve session prints each run row from the result the service hands
// back, without copying it: a second, identical query is a cache hit and
// must not allocate per output tuple.
TEST_F(AllocCountTest, ServedCacheHitRowDoesNotCopyTheResult) {
  auto session_allocations = [&](int queries) {
    ServiceOptions options;
    options.executor = &pool_;
    JoinService service(options);
    std::string error;
    for (const auto& rel : instance_.storage) {
      EXPECT_TRUE(service.Register(*rel, &error)) << error;
    }
    std::string text;
    for (int i = 0; i < queries; ++i) {
      text += "{\"op\":\"query\",\"relations\":[\"R\",\"S\",\"T\"]}\n";
    }
    std::istringstream in(text);
    ServeSessionStats stats;
    testing::internal::CaptureStdout();
    const int64_t n = CountAllocations([&] {
      stats = RunServeSession(in, &service, cli::OutputFormat::kJsonl);
    });
    testing::internal::GetCapturedStdout();
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_EQ(service.cache().hits(), static_cast<size_t>(queries - 1));
    return n;
  };
  const int64_t one = session_allocations(1);
  const int64_t two = session_allocations(2);
  EXPECT_LT(two - one, static_cast<int64_t>(kOutputs / 10))
      << "one query " << one << ", two " << two;
}

// RunTetrisJoin's blocks on prebuilt SAO-consistent indexes (SAO B, A, C)
// of an empty striped path: only the knowledge base's own arrays grow,
// by doubling (a preload's node arena not even that), so the count must
// not track the gap boxes or the probes.
struct StreamRun {
  int64_t blocks = 0;
  size_t gap_boxes = 0;
  int64_t probes = 0;
};

StreamRun CountTetrisJoin(const QueryInstance& q, JoinAlgorithm algo) {
  const std::vector<int> sao = {1, 0, 2};
  const auto owned = MakeSaoConsistentIndexes(q.query, sao, q.depth);
  const std::vector<const Index*> indexes = IndexPtrs(owned);
  JoinRunResult r;
  StreamRun run;
  run.blocks = CountAllocations(
      [&] { r = RunTetrisJoin(q.query, indexes, q.depth, algo, sao); });
  EXPECT_TRUE(r.tuples.empty());
  run.gap_boxes = r.input_gap_boxes;
  run.probes = r.oracle_probes;
  return run;
}

// Each count at most 128 blocks, and the largest within 32 of the
// smallest.
void ExpectFlat(const std::vector<StreamRun>& runs) {
  int64_t lo = runs.front().blocks;
  int64_t hi = lo;
  for (const StreamRun& run : runs) {
    SCOPED_TRACE(std::to_string(run.gap_boxes) + " gap boxes, " +
                 std::to_string(run.probes) + " probes");
    EXPECT_LE(run.blocks, 128);
    lo = std::min(lo, run.blocks);
    hi = std::max(hi, run.blocks);
  }
  EXPECT_LE(hi, lo + 32) << "blocks from " << lo << " to " << hi;
}

TEST(GapStreamAllocTest, PreloadedRunDoesNotGrowWithGapBoxes) {
  std::vector<StreamRun> runs;
  for (size_t rows : {2000, 4000, 8000}) {
    runs.push_back(CountTetrisJoin(StripedEmptyPath(5, rows, 16, 7),
                                   JoinAlgorithm::kTetrisPreloaded));
  }
  // Each doubling of N roughly doubles the gap boxes.
  EXPECT_GT(runs[2].gap_boxes, 3 * runs[0].gap_boxes);
  ExpectFlat(runs);
  // The preload stages B in the component pool and its provenance bits,
  // which regrow by doubling, twice each here, and then allocates the
  // trie's node arena once, sized from the staged boxes. Inserted one
  // box at a time, the arena regrew with them: two more blocks.
  EXPECT_LE(runs[2].blocks - runs[0].blocks, 4)
      << "blocks from " << runs[0].blocks << " to " << runs[2].blocks;
}

TEST(GapStreamAllocTest, ReloadedRunDoesNotGrowWithProbes) {
  std::vector<StreamRun> runs;
  for (int stripes_log2 : {5, 6, 7}) {
    runs.push_back(
        CountTetrisJoin(StripedEmptyPath(stripes_log2, 20000, 16, 7),
                        JoinAlgorithm::kTetrisReloaded));
  }
  // Each doubling of the stripes doubles the probes.
  EXPECT_EQ(runs[2].probes, 4 * runs[0].probes);
  ExpectFlat(runs);
}

}  // namespace
}  // namespace tetris

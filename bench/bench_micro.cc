// Micro-benchmarks of the geometric core (google-benchmark): resolution,
// knowledge-base insert / containment query, index probing, dyadic
// decomposition. These are the O~(1) primitives Lemma 4.5 charges each
// resolution with.
//
// End-to-end joins are covered too: a BM_RunJoin/<engine> benchmark is
// registered per engine selected with --engine/--engines (default: one
// per engine family), each driving a random triangle through the
// JoinEngine facade. Harness flags are stripped before google-benchmark
// parses its own (e.g. --benchmark_filter).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "engine/balance.h"
#include "engine/cli.h"
#include "geometry/decompose.h"
#include "geometry/resolution.h"
#include "index/sorted_index.h"
#include "kb/dyadic_tree_store.h"
#include "util/rng.h"
#include "workload/box_families.h"
#include "workload/generators.h"

namespace tetris {
namespace {

DyadicBox RandomBox(Rng& rng, int n, int d) {
  DyadicBox b = DyadicBox::Universal(n);
  for (int j = 0; j < n; ++j) {
    int len = static_cast<int>(rng.Below(d + 1));
    b[j] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
  }
  return b;
}

void BM_OrderedResolve(benchmark::State& state) {
  const int d = 16;
  DyadicBox w1 = DyadicBox::Of({{0x2bcd, 15}, {0x1a, 5}, {0, 0}});
  DyadicBox w2 = DyadicBox::Of({{0xaf, 8}, {0x1b, 5}, {0, 0}});
  (void)d;
  for (auto _ : state) {
    auto r = OrderedResolve(w1, w2);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OrderedResolve);

void BM_GeometricResolveAttempt(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::pair<DyadicBox, DyadicBox>> pairs;
  for (int i = 0; i < 512; ++i) {
    pairs.emplace_back(RandomBox(rng, 4, 12), RandomBox(rng, 4, 12));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto r = GeometricResolve(pairs[i & 511].first, pairs[i & 511].second);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_GeometricResolveAttempt);

void BM_KbInsert(benchmark::State& state) {
  // Setup (box generation) is batched outside the loop, and the timed
  // region holds only store construction + the 4096 inserts: the former
  // per-iteration PauseTiming()/ResumeTiming() pair costs microseconds
  // per call on its own and swamped the real insert cost, so the
  // reported cal/op tracked timer overhead instead of the store.
  Rng rng(11);
  std::vector<DyadicBox> boxes;
  for (int i = 0; i < 4096; ++i) boxes.push_back(RandomBox(rng, 3, 16));
  for (auto _ : state) {
    DyadicTreeStore store(3);
    for (const auto& b : boxes) store.Insert(b);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_KbInsert);

void BM_KbFindContaining(benchmark::State& state) {
  Rng rng(13);
  DyadicTreeStore store(3);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    store.Insert(RandomBox(rng, 3, 16));
  }
  std::vector<DyadicBox> probes;
  for (int i = 0; i < 512; ++i) {
    probes.push_back(DyadicBox::Point(
        {rng.Below(1 << 16), rng.Below(1 << 16), rng.Below(1 << 16)}, 16));
  }
  DyadicBox found = DyadicBox::Universal(3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.FindContaining(probes[i & 511], &found));
    benchmark::DoNotOptimize(found);
    ++i;
  }
}
BENCHMARK(BM_KbFindContaining)->Arg(1024)->Arg(16384);

// Index construction over the flat columnar relation buffer: permuted
// gather + permutation sort + dedup-gather, the build path every engine
// pays per atom before evaluation.
void BM_SortedIndexBuild(benchmark::State& state) {
  const int d = 16;
  Relation r = RandomRelation("R", {"A", "B"}, state.range(0), d, 23);
  for (auto _ : state) {
    SortedIndex ix(r, d);
    benchmark::DoNotOptimize(ix.MemoryBytes());
  }
  state.SetItemsProcessed(state.iterations() * r.size());
}
BENCHMARK(BM_SortedIndexBuild)->Arg(4096);

void BM_SortedIndexProbe(benchmark::State& state) {
  const int d = 16;
  Relation r = RandomRelation("R", {"A", "B"}, state.range(0), d, 5);
  SortedIndex ix(r, d);
  Rng rng(17);
  size_t gaps = 0;
  for (auto _ : state) {
    const uint64_t t[2] = {rng.Below(1 << d), rng.Below(1 << d)};
    ix.GapsContaining(t, [&gaps](const DyadicBox&) { ++gaps; });
    benchmark::DoNotOptimize(gaps);
  }
}
BENCHMARK(BM_SortedIndexProbe)->Arg(1024)->Arg(65536);

// The same probe at join-certificate scale under a permuted layout:
// reversed column order over 2^18 rows at depth 16. BM_SortedIndexProbe's
// identity layout over a canonical relation has sequential ranks; here
// each rank points anywhere in the base buffer, so a search step costs a
// cache miss unless the fence level narrows it first.
void BM_SortedIndexProbePermuted(benchmark::State& state) {
  const int d = 16;
  // Built once per process (one size is registered): google-benchmark
  // calls this once per trial iteration count, and rebuilding 2^18 rows
  // each time would dominate bench_micro's wall time.
  static const Relation r =
      RandomRelation("R", {"A", "B"}, state.range(0), d, 5);
  static const SortedIndex ix(r, {1, 0}, d);
  Rng rng(17);
  size_t gaps = 0;
  for (auto _ : state) {
    const uint64_t t[2] = {rng.Below(1 << d), rng.Below(1 << d)};
    ix.GapsContaining(t, [&gaps](const DyadicBox&) { ++gaps; });
    benchmark::DoNotOptimize(gaps);
  }
}
BENCHMARK(BM_SortedIndexProbePermuted)->Arg(262144);

// The rebuild-free append path: promote a shared base index across
// `overlay` 1-row epochs (delta overlays, no rebuild), then measure
// GapsContaining latency through the overlay. Arg = overlay rows;
// Arg 0 is the pure permutation view, the baseline the overlay's probe
// cost is compared against (perf_smoke gates Arg 0 and Arg 16).
void BM_SortedIndexAppendProbe(benchmark::State& state) {
  const int d = 16;
  const size_t overlay = static_cast<size_t>(state.range(0));
  Rng rng(29);
  auto version = std::make_shared<const Relation>(
      RandomRelation("R", {"A", "B"}, 4096, d, 23));
  auto ix = std::make_shared<const SortedIndex>(*version, d);
  for (size_t i = 0; i < overlay; ++i) {
    Tuple row = {rng.Below(1 << d), rng.Below(1 << d)};
    if (version->Contains(row)) continue;  // keep the delta effective
    Relation next(version->name(), version->attrs());
    next.Reserve(version->size() + 1);
    for (TupleRef t : version->rows()) next.AddRow(t.data());
    next.Add(row);
    next.Canonicalize();
    auto next_version = std::make_shared<const Relation>(std::move(next));
    ix = SortedIndex::Promote(ix, version, *next_version, {row}, {});
    version = next_version;
  }
  Rng prng(17);
  size_t gaps = 0;
  for (auto _ : state) {
    const uint64_t t[2] = {prng.Below(1 << d), prng.Below(1 << d)};
    ix->GapsContaining(t, [&gaps](const DyadicBox&) { ++gaps; });
    benchmark::DoNotOptimize(gaps);
  }
}
BENCHMARK(BM_SortedIndexAppendProbe)->Arg(0)->Arg(16)->Arg(256);

void BM_DyadicCover(benchmark::State& state) {
  Rng rng(19);
  const int d = 32;
  for (auto _ : state) {
    uint64_t a = rng.Below(uint64_t{1} << d);
    uint64_t b = rng.Below(uint64_t{1} << d);
    if (a > b) std::swap(a, b);
    auto v = DyadicCover(a, b, d);
    benchmark::DoNotOptimize(v.size());
  }
}
BENCHMARK(BM_DyadicCover);

void BM_BalancedPartitionBuild(benchmark::State& state) {
  auto boxes = ExampleF1Boxes(10);
  for (auto _ : state) {
    auto p = ComputeBalancedPartition(boxes, 0, 10);
    benchmark::DoNotOptimize(p.size());
  }
}
BENCHMARK(BM_BalancedPartitionBuild);

// One end-to-end facade join per selected engine: the price of a full
// RunJoin (index build + evaluation + canonicalization) on a random
// triangle, comparable across the engine matrix.
void RegisterFacadeJoins(const cli::HarnessOptions& opts) {
  const size_t tuples = opts.size ? opts.size : 200;
  const uint64_t seed = opts.seed ? opts.seed : 42;
  for (EngineKind kind : opts.engines) {
    std::string name = std::string("BM_RunJoin/") + EngineKindName(kind);
    benchmark::RegisterBenchmark(
        name.c_str(), [kind, tuples, seed](benchmark::State& state) {
          QueryInstance qi = RandomTriangle(tuples, /*d=*/8, seed);
          for (auto _ : state) {
            EngineResult r = RunJoin(qi.query, kind);
            if (!r.ok) {
              state.SkipWithError(r.error.c_str());
              return;
            }
            benchmark::DoNotOptimize(r.tuples.size());
          }
        });
  }
}

}  // namespace
}  // namespace tetris

int main(int argc, char** argv) {
  tetris::cli::HarnessOptions opts;
  opts.engines = {tetris::EngineKind::kTetrisPreloaded,
                  tetris::EngineKind::kTetrisReloaded,
                  tetris::EngineKind::kLeapfrog,
                  tetris::EngineKind::kGenericJoin,
                  tetris::EngineKind::kPairwiseHash};
  if (auto exit_code = tetris::cli::HandleStartup(
          &argc, argv, &opts,
          "bench_micro — geometric-core micro-benchmarks plus "
          "BM_RunJoin/<engine> facade joins\n(google-benchmark flags, "
          "e.g. --benchmark_filter, pass through)",
          /*allow_unknown_flags=*/true)) {
    return *exit_code;
  }
  tetris::RegisterFacadeJoins(opts);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// MergeSortedRuns, the merge behind MergeShardRuns and the PatchJoin
// splice, checked against std::sort of the concatenated runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "engine/parallel_executor.h"
#include "util/rng.h"

namespace tetris {
namespace {

std::vector<Tuple> SortedConcat(const std::vector<std::vector<Tuple>>& runs) {
  std::vector<Tuple> all;
  for (const std::vector<Tuple>& run : runs) {
    all.insert(all.end(), run.begin(), run.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

TEST(MergeSortedRuns, NoRunsAndEmptyRunsGiveNothing) {
  EXPECT_TRUE(MergeSortedRuns({}).empty());
  EXPECT_TRUE(MergeSortedRuns({{}, {}, {}}).empty());
}

TEST(MergeSortedRuns, SingleRunComesBackUnchanged) {
  const std::vector<Tuple> run = {{0, 1}, {0, 2}, {3, 0}};
  EXPECT_EQ(MergeSortedRuns({run}), run);
  EXPECT_EQ(MergeSortedRuns({{}, run, {}}), run);
}

TEST(MergeSortedRuns, InterleavedOddRunCount) {
  const std::vector<std::vector<Tuple>> runs = {
      {{0, 0}, {2, 0}}, {{1, 0}, {3, 0}}, {{0, 1}, {2, 1}, {4, 0}}};
  EXPECT_EQ(MergeSortedRuns(runs), SortedConcat(runs));
}

// Random sorted runs: 0 to 8 of them (none, one, odd and even counts),
// about a quarter empty, values drawn from a small domain so that runs
// interleave and repeat each other's tuples.
TEST(MergeSortedRuns, MatchesSortOnRandomRuns) {
  Rng rng(20150531);
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::vector<Tuple>> runs(static_cast<size_t>(trial % 9));
    for (std::vector<Tuple>& run : runs) {
      const uint64_t len = rng.Chance(0.25) ? 0 : rng.Range(1, 24);
      const size_t arity = 1 + static_cast<size_t>(trial % 3);
      for (uint64_t i = 0; i < len; ++i) {
        Tuple t(arity);
        for (uint64_t& v : t) v = rng.Below(6);
        run.push_back(std::move(t));
      }
      std::sort(run.begin(), run.end());
    }
    EXPECT_EQ(MergeSortedRuns(runs), SortedConcat(runs));
  }
}

}  // namespace
}  // namespace tetris

// Load balancing: balanced dimension partitions and the Balance lift
// (paper, Sections 4.5 and F.2-F.6).
//
// Ordered geometric resolution can be forced into Ω(|C|^{n-1}) work by
// instances that pack all resolutions into one dimension (Example F.1).
// The fix lifts the BCP from n dimensions to 2n-2: each of the first n-2
// dimensions X is split by a *balanced partition* P_X into a coarse part
// X' (a partition element, at most O~(√|C|) values) and a fine part X''
// (the remaining bits), with SAO
//
//     (A'_1, ..., A'_{n-2}, A_n, A_{n-1}, A''_{n-2}, ..., A''_1).
//
// Running plain Tetris on the lifted boxes yields O~(|C|^{n/2} + Z)
// (Theorems F.7 / F.9), which is general *geometric* resolution from the
// original space's point of view.
#ifndef TETRIS_ENGINE_BALANCE_H_
#define TETRIS_ENGINE_BALANCE_H_

#include <unordered_set>
#include <vector>

#include "engine/split_space.h"
#include "engine/tetris.h"
#include "geometry/dyadic_box.h"

namespace tetris {

/// A prefix-free, complete partition of a depth-`d` domain into dyadic
/// intervals, with the s = s1·s2 factorization of the paper (eqs 19/20).
class DimPartition {
 public:
  /// `elements` must be prefix-free and cover the domain.
  DimPartition(std::vector<DyadicInterval> elements, int depth);

  /// The trivial partition {λ}.
  static DimPartition Trivial(int depth) {
    return DimPartition({DyadicInterval::Lambda()}, depth);
  }

  size_t size() const { return elements_.size(); }
  const std::vector<DyadicInterval>& elements() const { return elements_; }

  /// True iff `s` is a partition element.
  bool IsElement(const DyadicInterval& s) const {
    return element_set_.count(s) > 0;
  }

  /// Factors `s` per the paper: if s is a prefix of a partition element
  /// (or an element itself), returns (s, λ); otherwise s = p · rest with
  /// p the unique element that strictly prefixes s, and returns (p, rest).
  std::pair<DyadicInterval, DyadicInterval> Factor(
      const DyadicInterval& s) const;

 private:
  int d_;
  std::vector<DyadicInterval> elements_;
  std::unordered_set<DyadicInterval, DyadicIntervalHash> element_set_;
};

/// Builds a balanced partition for dimension `dim` of the box set `boxes`
/// (Definition F.3, construction of Proposition F.4): split any interval x
/// with more than √|C| boxes strictly inside the x-layer.
DimPartition ComputeBalancedPartition(const std::vector<DyadicBox>& boxes,
                                      int dim, int depth);

/// The Balance lift: maps n-dimensional boxes into the (2n-2)-dimensional
/// balanced space and back. Requires n >= 3.
class BalanceMap {
 public:
  /// Partitions are computed from `boxes` for dimensions 0..n-3.
  BalanceMap(const std::vector<DyadicBox>& boxes, int n, int depth);

  int original_dims() const { return n_; }
  int lifted_dims() const { return 2 * n_ - 2; }
  int depth() const { return d_; }

  /// Lifted layout: j in [0, n-2) -> A'_j; n-2 -> A_{n-1} (last original);
  /// n-1 -> A_{n-2}; and A''_j sits at lifted dimension 2n-3-j.
  int LiftedPrimeDim(int j) const { return j; }
  int LiftedSuffixDim(int j) const { return 2 * n_ - 3 - j; }

  /// Maps an original-space box to the lifted space (paper, BalanceX map).
  DyadicBox Lift(const DyadicBox& b) const;

  /// Maps a lifted-space *point* back to the original space.
  DyadicBox UnliftPoint(const DyadicBox& p) const;

  const DimPartition& partition(int j) const { return parts_[j]; }

 private:
  int n_;
  int d_;
  std::vector<DimPartition> parts_;
};

/// SplitSpace of the lifted space: A'_j dimensions bottom out at partition
/// elements, A''_j dimensions at the complementary depth d - |A'_j|.
/// Only valid with the identity SAO over the lifted layout (the engine
/// consults suffix dimensions only after their prime dimension is unit).
class BalancedSpace : public SplitSpace {
 public:
  explicit BalancedSpace(const BalanceMap* map) : map_(map) {}

  int dims() const override { return map_->lifted_dims(); }

  bool IsUnit(const DyadicBox& b, int dim) const override;

 private:
  const BalanceMap* map_;
};

/// Tetris with the Balance lift (Algorithm 3 and its online variant).
///
/// * Offline / preloaded (Tetris-Preloaded-LB): materializes B, computes
///   partitions once, runs plain Tetris preloaded on the lifted boxes.
/// * Online / reloaded (Tetris-Reloaded-LB): runs lifted Tetris-Reloaded
///   with a doubling load budget; when the budget trips, partitions are
///   recomputed from all boxes seen so far and the engine restarts
///   (outputs are deduplicated across restarts).
class TetrisLB {
 public:
  TetrisLB(const BoxOracle* oracle, int n, int depth, bool preloaded);

  RunStatus Run(const OutputSink& sink);

  const TetrisStats& stats() const { return stats_; }

 private:
  const BoxOracle* oracle_;
  int n_;
  int d_;
  bool preloaded_;
  TetrisStats stats_;
};

}  // namespace tetris

#endif  // TETRIS_ENGINE_BALANCE_H_

// R-tree index (paper, Section 1: "multidimensional index structures like
// KD-trees and RTrees").
//
// Bulk-loaded by recursive median partitioning; leaves hold up to
// `leaf_capacity` tuples under a *tight* minimum bounding rectangle
// (MBR). Unlike the kd-tree's cell decomposition, the space between
// MBRs is tuple-free by construction, so large gaps appear directly as
// the complement of a few rectangles instead of many aligned cells.
//
// Gap extraction works on the dyadic grid: a dyadic cell disjoint from
// every leaf MBR is a gap box; cells meeting few tuples fall back to the
// exact per-tuple complement.
#ifndef TETRIS_INDEX_RTREE_INDEX_H_
#define TETRIS_INDEX_RTREE_INDEX_H_

#include "index/index.h"

namespace tetris {

/// Bulk-loaded R-tree over all columns.
class RTreeIndex : public Index {
 public:
  RTreeIndex(const Relation& rel, int depth, size_t leaf_capacity = 8);

  int arity() const override { return k_; }
  int depth() const override { return d_; }
  /// Cells in depth-first order, low half first, skipping cells disjoint
  /// from `box`.
  void GapsIntersecting(const DyadicBox& box, BoxSink sink) const override;
  size_t MemoryBytes() const override {
    const size_t per_tuple =
        sizeof(Tuple) + static_cast<size_t>(k_) * sizeof(uint64_t);
    // Each leaf also owns two MBR corner tuples.
    return leaves_.size() * (sizeof(Leaf) + 2 * per_tuple) +
           points_.size() * per_tuple;
  }
  std::string Describe() const override { return "r-tree"; }

  size_t leaf_count() const { return leaves_.size(); }

 private:
  struct Leaf {
    Tuple lo, hi;          // tight MBR corners
    size_t begin, end;     // range in points_
    bool IntersectsCell(const DyadicBox& cell, int d) const;
  };

  void Bulkload(size_t lo, size_t hi, int dim);
  // The gaps meeting `box` inside `cell`, which meets it: a cell disjoint
  // from every MBR is a gap; a cell with few tuples uses the exact
  // complement; everything else splits.
  void GapsRec(const DyadicBox& cell, const std::vector<const Leaf*>& active,
               const DyadicBox& box, BoxSink sink) const;

  int k_;
  int d_;
  size_t leaf_capacity_;
  std::vector<Tuple> points_;
  std::vector<Leaf> leaves_;
};

}  // namespace tetris

#endif  // TETRIS_INDEX_RTREE_INDEX_H_

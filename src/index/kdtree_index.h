// KD-tree index (paper, Section 1 and 4: "we reason about multiple
// B-trees on the same relation, multidimensional index structures like
// KD-trees and R-trees, and even sophisticated dyadic trees").
//
// The tree recursively splits the data at the midpoint of the current
// cell along a rotating dimension. A leaf cell with no tuples is a gap;
// gap boxes are the dyadic decompositions of those empty cells. Unlike
// the quad-tree (DyadicTreeIndex), cells halve one dimension at a time,
// so skewed data yields elongated gap boxes a quad-tree cannot express
// at the same depth.
#ifndef TETRIS_INDEX_KDTREE_INDEX_H_
#define TETRIS_INDEX_KDTREE_INDEX_H_

#include "index/index.h"

namespace tetris {

/// Midpoint KD-tree over all columns, rotating the split dimension.
class KdTreeIndex : public Index {
 public:
  /// `leaf_capacity`: cells with at most this many tuples are not split
  /// further (their gaps are emitted at tuple granularity).
  KdTreeIndex(const Relation& rel, int depth, size_t leaf_capacity = 1);

  int arity() const override { return k_; }
  int depth() const override { return d_; }
  /// Leaf by leaf, low child first, skipping cells disjoint from `box`;
  /// a leaf's gaps in ForEachComplementBox order.
  void GapsIntersecting(const DyadicBox& box, BoxSink sink) const override;
  size_t MemoryBytes() const override {
    return nodes_.size() * sizeof(Node) +
           points_.size() *
               (sizeof(Tuple) + static_cast<size_t>(k_) * sizeof(uint64_t));
  }
  std::string Describe() const override { return "kd-tree"; }

  /// Number of internal nodes (for the index-size experiments).
  size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    // Cell = per-dimension dyadic intervals; split extends dimension
    // `split_dim` by one bit.
    DyadicBox cell;
    int split_dim = -1;           // -1 for leaves
    int32_t child[2] = {-1, -1};  // node ids
    size_t lo = 0, hi = 0;        // tuple range (in points_)
  };

  int32_t Build(DyadicBox cell, size_t lo, size_t hi, int next_dim);
  // The gaps meeting `box` under node `id`: a leaf's are the parts of its
  // cell holding no tuple.
  void GapsRec(int32_t id, const DyadicBox& box, BoxSink sink) const;

  int k_;
  int d_;
  size_t leaf_capacity_;
  std::vector<Tuple> points_;  // partitioned in build order
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace tetris

#endif  // TETRIS_INDEX_KDTREE_INDEX_H_

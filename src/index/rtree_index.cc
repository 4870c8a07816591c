#include "index/rtree_index.h"

#include <algorithm>

#include "geometry/decompose.h"

namespace tetris {

bool RTreeIndex::Leaf::IntersectsCell(const DyadicBox& cell, int d) const {
  for (size_t i = 0; i < lo.size(); ++i) {
    uint64_t c_lo = cell[static_cast<int>(i)].Low(d);
    uint64_t c_hi = cell[static_cast<int>(i)].High(d);
    if (hi[i] < c_lo || lo[i] > c_hi) return false;
  }
  return true;
}

RTreeIndex::RTreeIndex(const Relation& rel, int depth, size_t leaf_capacity)
    : k_(rel.arity()),
      d_(depth),
      leaf_capacity_(std::max<size_t>(1, leaf_capacity)) {
  points_ = rel.ToTuples();
  if (!points_.empty()) Bulkload(0, points_.size(), 0);
}

void RTreeIndex::Bulkload(size_t lo, size_t hi, int dim) {
  if (hi - lo <= leaf_capacity_) {
    Leaf leaf;
    leaf.begin = lo;
    leaf.end = hi;
    leaf.lo = points_[lo];
    leaf.hi = points_[lo];
    for (size_t i = lo + 1; i < hi; ++i) {
      for (int c = 0; c < k_; ++c) {
        leaf.lo[c] = std::min(leaf.lo[c], points_[i][c]);
        leaf.hi[c] = std::max(leaf.hi[c], points_[i][c]);
      }
    }
    leaves_.push_back(std::move(leaf));
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  std::nth_element(points_.begin() + lo, points_.begin() + mid,
                   points_.begin() + hi,
                   [dim](const Tuple& a, const Tuple& b) {
                     return a[dim] < b[dim];
                   });
  Bulkload(lo, mid, (dim + 1) % k_);
  Bulkload(mid, hi, (dim + 1) % k_);
}

void RTreeIndex::GapsRec(const DyadicBox& cell,
                         const std::vector<const Leaf*>& active,
                         const DyadicBox& box, BoxSink sink) const {
  std::vector<const Leaf*> live;
  for (const Leaf* leaf : active) {
    if (leaf->IntersectsCell(cell, d_)) live.push_back(leaf);
  }
  if (live.empty()) {
    sink(cell);  // no MBR touches the cell: pure gap
    return;
  }
  // Count (and collect) the tuples of the live leaves inside the cell.
  std::vector<const uint64_t*> inside;
  for (const Leaf* leaf : live) {
    for (size_t i = leaf->begin; i < leaf->end; ++i) {
      if (cell.ContainsPoint(points_[i], d_)) {
        inside.push_back(points_[i].data());
      }
    }
  }
  if (inside.size() <= leaf_capacity_) {
    ForEachComplementBox(cell, inside.data(), inside.data() + inside.size(),
                         box, d_, sink);
    return;
  }
  int dim = -1;
  for (int i = 0; i < k_; ++i) {
    if (cell[i].len < d_ && (dim < 0 || cell[i].len < cell[dim].len)) {
      dim = i;
    }
  }
  if (dim < 0) return;  // unit cell with a tuple
  DyadicBox half = cell;
  for (int side = 0; side < 2; ++side) {
    half[dim] = cell[dim].Child(side);
    if (half[dim].ComparableWith(box[dim])) GapsRec(half, live, box, sink);
  }
}

void RTreeIndex::GapsIntersecting(const DyadicBox& box, BoxSink sink) const {
  std::vector<const Leaf*> all;
  for (const Leaf& leaf : leaves_) all.push_back(&leaf);
  GapsRec(DyadicBox::Universal(k_), all, box, sink);
}

}  // namespace tetris

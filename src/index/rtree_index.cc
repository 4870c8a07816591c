#include "index/rtree_index.h"

#include <algorithm>
#include <cassert>

namespace tetris {

bool RTreeIndex::Leaf::IntersectsCell(const DyadicBox& cell, int d) const {
  for (size_t i = 0; i < lo.size(); ++i) {
    uint64_t c_lo = cell[static_cast<int>(i)].Low(d);
    uint64_t c_hi = cell[static_cast<int>(i)].High(d);
    if (hi[i] < c_lo || lo[i] > c_hi) return false;
  }
  return true;
}

bool RTreeIndex::Leaf::ContainsPoint(const Tuple& t) const {
  for (size_t i = 0; i < lo.size(); ++i) {
    if (t[i] < lo[i] || t[i] > hi[i]) return false;
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

bool RTreeIndex::Contains(const Tuple& t) const {
  for (const Leaf& leaf : leaves_) {
    if (!leaf.ContainsPoint(t)) continue;
    for (size_t i = leaf.begin; i < leaf.end; ++i) {
      if (points_[i] == t) return true;
    }
  }
  return false;
}

namespace {

// Exact dyadic complement of `tuples` within `cell` (the kd-tree leaf
// logic; duplicated locally to keep the index self-contained).
void ComplementRec(const DyadicBox& cell,
                   const std::vector<const Tuple*>& tuples, int k, int d,
                   const uint64_t* probe, BoxSink sink) {
  if (tuples.empty()) {
    sink(cell);
    return;
  }
  int dim = -1;
  for (int i = 0; i < k; ++i) {
    if (cell[i].len < d && (dim < 0 || cell[i].len < cell[dim].len)) {
      dim = i;
    }
  }
  if (dim < 0) return;  // unit cell holding a tuple
  const int bit_pos = d - cell[dim].len - 1;
  for (int side = 0; side < 2; ++side) {
    if (probe != nullptr &&
        static_cast<int>((probe[dim] >> bit_pos) & 1) != side) {
      continue;
    }
    DyadicBox half = cell;
    half[dim] = cell[dim].Child(side);
    std::vector<const Tuple*> sub;
    for (const Tuple* t : tuples) {
      if ((((*t)[dim] >> bit_pos) & 1) == static_cast<uint64_t>(side)) {
        sub.push_back(t);
      }
    }
    ComplementRec(half, sub, k, d, probe, sink);
  }
}

}  // namespace

void RTreeIndex::GapsRec(const DyadicBox& cell,
                         const std::vector<const Leaf*>& active,
                         const uint64_t* probe, BoxSink sink) const {
  std::vector<const Leaf*> live;
  for (const Leaf* leaf : active) {
    if (leaf->IntersectsCell(cell, d_)) live.push_back(leaf);
  }
  if (live.empty()) {
    sink(cell);  // no MBR touches the cell: pure gap
    return;
  }
  // Count (and collect) the tuples of the live leaves inside the cell.
  std::vector<const Tuple*> inside;
  for (const Leaf* leaf : live) {
    for (size_t i = leaf->begin; i < leaf->end; ++i) {
      if (cell.ContainsPoint(points_[i], d_)) inside.push_back(&points_[i]);
    }
  }
  if (inside.size() <= leaf_capacity_) {
    ComplementRec(cell, inside, k_, d_, probe, sink);
    return;
  }
  int dim = -1;
  for (int i = 0; i < k_; ++i) {
    if (cell[i].len < d_ && (dim < 0 || cell[i].len < cell[dim].len)) {
      dim = i;
    }
  }
  if (dim < 0) return;  // unit cell with a tuple
  const int bit_pos = d_ - cell[dim].len - 1;
  for (int side = 0; side < 2; ++side) {
    if (probe != nullptr &&
        static_cast<int>((probe[dim] >> bit_pos) & 1) != side) {
      continue;
    }
    DyadicBox half = cell;
    half[dim] = cell[dim].Child(side);
    GapsRec(half, live, probe, sink);
  }
}

void RTreeIndex::GapsContaining(const uint64_t* t, BoxSink sink) const {
  if (Contains(Tuple(t, t + k_))) return;
  std::vector<const Leaf*> all;
  for (const Leaf& leaf : leaves_) all.push_back(&leaf);
  GapsRec(DyadicBox::Universal(k_), all, t, sink);
}

void RTreeIndex::AllGaps(BoxSink sink) const {
  std::vector<const Leaf*> all;
  for (const Leaf& leaf : leaves_) all.push_back(&leaf);
  GapsRec(DyadicBox::Universal(k_), all, nullptr, sink);
}

}  // namespace tetris

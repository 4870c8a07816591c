#include "index/kdtree_index.h"

#include <algorithm>

#include "geometry/decompose.h"

namespace tetris {

KdTreeIndex::KdTreeIndex(const Relation& rel, int depth, size_t leaf_capacity)
    : k_(rel.arity()), d_(depth), leaf_capacity_(std::max<size_t>(1, leaf_capacity)) {
  points_ = rel.ToTuples();
  root_ = Build(DyadicBox::Universal(k_), 0, points_.size(), 0);
}

int32_t KdTreeIndex::Build(DyadicBox cell, size_t lo, size_t hi,
                           int next_dim) {
  int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[id].cell = cell;
  nodes_[id].lo = lo;
  nodes_[id].hi = hi;

  // Choose the next refinable dimension in rotation.
  int split_dim = -1;
  for (int step = 0; step < k_; ++step) {
    int dim = (next_dim + step) % k_;
    if (cell[dim].len < d_) {
      split_dim = dim;
      break;
    }
  }
  if (split_dim < 0 || hi - lo <= leaf_capacity_) return id;  // leaf

  const int bit_pos = d_ - cell[split_dim].len - 1;
  auto mid_it = std::partition(
      points_.begin() + lo, points_.begin() + hi, [&](const Tuple& t) {
        return ((t[split_dim] >> bit_pos) & 1) == 0;
      });
  size_t mid = static_cast<size_t>(mid_it - points_.begin());

  DyadicBox left = cell, right = cell;
  left[split_dim] = cell[split_dim].Child(0);
  right[split_dim] = cell[split_dim].Child(1);
  int32_t c0 = Build(left, lo, mid, (split_dim + 1) % k_);
  int32_t c1 = Build(right, mid, hi, (split_dim + 1) % k_);
  nodes_[id].split_dim = split_dim;
  nodes_[id].child[0] = c0;
  nodes_[id].child[1] = c1;
  return id;
}

void KdTreeIndex::GapsRec(int32_t id, const DyadicBox& box,
                          BoxSink sink) const {
  const Node& n = nodes_[id];
  if (!n.cell.Intersects(box)) return;
  if (n.split_dim < 0) {
    std::vector<const uint64_t*> tuples;
    for (size_t i = n.lo; i < n.hi; ++i) tuples.push_back(points_[i].data());
    ForEachComplementBox(n.cell, tuples.data(), tuples.data() + tuples.size(),
                         box, d_, sink);
    return;
  }
  GapsRec(n.child[0], box, sink);
  GapsRec(n.child[1], box, sink);
}

void KdTreeIndex::GapsIntersecting(const DyadicBox& box, BoxSink sink) const {
  GapsRec(root_, box, sink);
}

}  // namespace tetris

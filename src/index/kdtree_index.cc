#include "index/kdtree_index.h"

#include <algorithm>
#include <cassert>

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

const KdTreeIndex::Node& KdTreeIndex::LeafFor(const uint64_t* t) const {
  int32_t id = root_;
  for (;;) {
    const Node& n = nodes_[id];
    if (n.split_dim < 0) return n;
    const int bit_pos = d_ - n.cell[n.split_dim].len - 1;
    id = n.child[(t[n.split_dim] >> bit_pos) & 1];
  }
}

bool KdTreeIndex::Contains(const Tuple& t) const {
  const Node& leaf = LeafFor(t.data());
  for (size_t i = leaf.lo; i < leaf.hi; ++i) {
    if (points_[i] == t) return true;
  }
  return false;
}

namespace {

// Emits the dyadic complement of `tuples` within the dyadic `cell`.
void ComplementRec(const DyadicBox& cell,
                   const std::vector<const Tuple*>& tuples, int k, int d,
                   BoxSink sink) {
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
  DyadicBox halves[2] = {cell, cell};
  halves[0][dim] = cell[dim].Child(0);
  halves[1][dim] = cell[dim].Child(1);
  for (int side = 0; side < 2; ++side) {
    std::vector<const Tuple*> sub;
    for (const Tuple* t : tuples) {
      if ((((*t)[dim] >> bit_pos) & 1) == static_cast<uint64_t>(side)) {
        sub.push_back(t);
      }
    }
    ComplementRec(halves[side], sub, k, d, sink);
  }
}

}  // namespace

void KdTreeIndex::EmitLeafGaps(const Node& node, BoxSink sink) const {
  std::vector<const Tuple*> tuples;
  for (size_t i = node.lo; i < node.hi; ++i) tuples.push_back(&points_[i]);
  ComplementRec(node.cell, tuples, k_, d_, sink);
}

void KdTreeIndex::GapsContaining(const uint64_t* t, BoxSink sink) const {
  const Node& leaf = LeafFor(t);
  if (leaf.lo == leaf.hi) {
    sink(leaf.cell);  // empty leaf: the whole cell is one gap
    return;
  }
  // Occupied leaf: descend the complement decomposition toward t until
  // the region holds no tuple.
  DyadicBox region = leaf.cell;
  std::vector<const Tuple*> inside;
  for (size_t i = leaf.lo; i < leaf.hi; ++i) inside.push_back(&points_[i]);
  for (;;) {
    if (inside.empty()) {
      sink(region);
      return;
    }
    int dim = -1;
    for (int i = 0; i < k_; ++i) {
      if (region[i].len < d_) {
        dim = i;
        break;
      }
    }
    if (dim < 0) return;  // region is exactly the (present) tuple t
    const int bit_pos = d_ - region[dim].len - 1;
    const int side = static_cast<int>((t[dim] >> bit_pos) & 1);
    region[dim] = region[dim].Child(side);
    std::vector<const Tuple*> sub;
    for (const Tuple* p : inside) {
      if ((((*p)[dim] >> bit_pos) & 1) == static_cast<uint64_t>(side)) {
        sub.push_back(p);
      }
    }
    inside = std::move(sub);
  }
}

void KdTreeIndex::AllGapsRec(int32_t id, BoxSink sink) const {
  const Node& n = nodes_[id];
  if (n.split_dim < 0) {
    EmitLeafGaps(n, sink);
    return;
  }
  AllGapsRec(n.child[0], sink);
  AllGapsRec(n.child[1], sink);
}

void KdTreeIndex::AllGaps(BoxSink sink) const { AllGapsRec(root_, sink); }

}  // namespace tetris

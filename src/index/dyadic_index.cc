#include "index/dyadic_index.h"

#include <algorithm>
#include <cassert>

namespace tetris {

DyadicTreeIndex::DyadicTreeIndex(const Relation& rel, int depth)
    : k_(rel.arity()), d_(depth) {
  assert(k_ * d_ <= 62 && "Morton code must fit in one 64-bit word");
  codes_.reserve(rel.size());
  for (TupleRef t : rel.rows()) codes_.push_back(Morton(t.data()));
  std::sort(codes_.begin(), codes_.end());
  codes_.erase(std::unique(codes_.begin(), codes_.end()), codes_.end());
}

uint64_t DyadicTreeIndex::Morton(const uint64_t* t) const {
  // Interleave: for each bit position from the most significant, take one
  // bit from every column in order. The level-L cell of a point is then
  // the (k*L)-bit Morton prefix.
  uint64_t m = 0;
  for (int bit = d_ - 1; bit >= 0; --bit) {
    for (int c = 0; c < k_; ++c) {
      m = (m << 1) | ((t[c] >> bit) & 1);
    }
  }
  return m;
}

bool DyadicTreeIndex::CellOccupied(uint64_t prefix, int prefix_bits) const {
  const int shift = k_ * d_ - prefix_bits;
  uint64_t lo = prefix << shift;
  uint64_t hi = lo + ((uint64_t{1} << shift) - 1);
  auto it = std::lower_bound(codes_.begin(), codes_.end(), lo);
  return it != codes_.end() && *it <= hi;
}

DyadicBox DyadicTreeIndex::CellBox(uint64_t prefix, int level) const {
  // De-interleave the (k*level)-bit Morton prefix back into one length-
  // `level` dyadic interval per column.
  DyadicBox b = DyadicBox::Universal(k_);
  for (int c = 0; c < k_; ++c) {
    uint64_t bits = 0;
    for (int l = 0; l < level; ++l) {
      int pos = k_ * level - 1 - (l * k_ + c);  // bit index within prefix
      bits = (bits << 1) | ((prefix >> pos) & 1);
    }
    b[c] = {bits, static_cast<uint8_t>(level)};
  }
  return b;
}

void DyadicTreeIndex::GapsRec(uint64_t prefix, int level,
                              const DyadicBox& box, BoxSink sink) const {
  if (!CellOccupied(prefix, k_ * level)) {
    sink(CellBox(prefix, level));
    return;
  }
  if (level == d_) return;  // occupied unit cell = a tuple
  // A child's Morton digit holds one bit per column, column 0 highest.
  // Where the box's component is longer than `level`, the child meets
  // the box only with the component's next bit there; the other bits
  // range freely.
  uint64_t fixed = 0, want = 0;
  for (int c = 0; c < k_; ++c) {
    const DyadicInterval& iv = box[c];
    if (iv.len <= level) continue;
    const uint64_t bit = uint64_t{1} << (k_ - 1 - c);
    fixed |= bit;
    if ((iv.bits >> (iv.len - 1 - level)) & 1) want |= bit;
  }
  const uint64_t free = ((uint64_t{1} << k_) - 1) & ~fixed;
  // The subsets of `free` in increasing order: children in Morton order.
  for (uint64_t s = 0;; s = (s - free) & free) {
    GapsRec((prefix << k_) | want | s, level + 1, box, sink);
    if (s == free) break;
  }
}

void DyadicTreeIndex::GapsIntersecting(const DyadicBox& box,
                                       BoxSink sink) const {
  GapsRec(0, 0, box, sink);
}

}  // namespace tetris

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

bool DyadicTreeIndex::Contains(const Tuple& t) const {
  return std::binary_search(codes_.begin(), codes_.end(), Morton(t.data()));
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

void DyadicTreeIndex::GapsContaining(const uint64_t* t, BoxSink sink) const {
  const uint64_t m = Morton(t);
  for (int level = 0; level <= d_; ++level) {
    uint64_t prefix = m >> (k_ * (d_ - level));
    if (!CellOccupied(prefix, k_ * level)) {
      sink(CellBox(prefix, level));  // maximal empty cell
      return;
    }
  }
  // Level-d cell occupied == tuple present: no gap.
}

void DyadicTreeIndex::AllGapsRec(uint64_t prefix, int level,
                                 BoxSink sink) const {
  if (!CellOccupied(prefix, k_ * level)) {
    sink(CellBox(prefix, level));
    return;
  }
  if (level == d_) return;  // occupied unit cell = a tuple
  const uint64_t children = uint64_t{1} << k_;
  for (uint64_t c = 0; c < children; ++c) {
    AllGapsRec((prefix << k_) | c, level + 1, sink);
  }
}

void DyadicTreeIndex::AllGaps(BoxSink sink) const { AllGapsRec(0, 0, sink); }

}  // namespace tetris

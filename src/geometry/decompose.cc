#include "geometry/decompose.h"

#include <algorithm>

namespace tetris {

std::vector<DyadicInterval> DyadicCover(uint64_t lo, uint64_t hi, int d) {
  std::vector<DyadicInterval> out;
  ForEachDyadicCover(lo, hi, d,
                     [&out](DyadicInterval iv) { out.push_back(iv); });
  return out;
}

std::vector<DyadicBox> DecomposeBox(const IntBox& box, int d) {
  const int n = static_cast<int>(box.lo.size());
  std::vector<std::vector<DyadicInterval>> per_dim(n);
  for (int i = 0; i < n; ++i) {
    per_dim[i] = DyadicCover(box.lo[i], box.hi[i], d);
    if (per_dim[i].empty()) return {};  // empty range => empty box
  }
  std::vector<DyadicBox> out;
  std::vector<int> idx(n, 0);
  for (;;) {
    DyadicBox b = DyadicBox::Universal(n);
    for (int i = 0; i < n; ++i) b[i] = per_dim[i][idx[i]];
    out.push_back(b);
    int i = n - 1;
    while (i >= 0 && ++idx[i] == static_cast<int>(per_dim[i].size())) {
      idx[i] = 0;
      --i;
    }
    if (i < 0) break;
  }
  return out;
}

void ForEachComplementBox(const DyadicBox& cell, const uint64_t** first,
                          const uint64_t** last, const DyadicBox& box, int d,
                          BoxSink sink) {
  if (first == last) {
    sink(cell);
    return;
  }
  int dim = -1;
  for (int i = 0; i < cell.dims(); ++i) {
    if (cell[i].len < d && (dim < 0 || cell[i].len < cell[dim].len)) {
      dim = i;
    }
  }
  if (dim < 0) return;  // a unit cell holding a point
  const int bit = d - cell[dim].len - 1;
  const uint64_t** mid = std::partition(first, last, [&](const uint64_t* p) {
    return ((p[dim] >> bit) & 1) == 0;
  });
  DyadicBox half = cell;
  for (int side = 0; side < 2; ++side) {
    half[dim] = cell[dim].Child(side);
    if (!half[dim].ComparableWith(box[dim])) continue;
    if (side == 0) {
      ForEachComplementBox(half, first, mid, box, d, sink);
    } else {
      ForEachComplementBox(half, mid, last, box, d, sink);
    }
  }
}

}  // namespace tetris

#include "geometry/decompose.h"

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

}  // namespace tetris

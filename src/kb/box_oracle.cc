#include "kb/box_oracle.h"

namespace tetris {

void KeepMaximalBoxes(std::vector<DyadicBox>* boxes) {
  std::vector<DyadicBox>& v = *boxes;
  std::vector<bool> dead(v.size(), false);
  for (size_t i = 0; i < v.size(); ++i) {
    if (dead[i]) continue;
    for (size_t j = 0; j < v.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (v[j].Contains(v[i]) && !(v[i] == v[j] && j > i)) {
        dead[i] = true;
        break;
      }
    }
  }
  size_t w = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    if (!dead[i]) v[w++] = v[i];
  }
  v.resize(w);
}

void MaterializedOracle::Probe(const DyadicBox& point, BoxSink sink) const {
  ++probe_count_;
  std::vector<DyadicBox> found;
  store_.CollectContaining(point, &found);
  if (maximal_only_ && found.size() > 1) KeepMaximalBoxes(&found);
  for (const DyadicBox& b : found) sink(b);
}

}  // namespace tetris

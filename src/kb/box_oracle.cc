#include "kb/box_oracle.h"

#include <cassert>

#include "geometry/box_restrict.h"

namespace tetris {

RestrictedOracle::RestrictedOracle(const BoxOracle* base, DyadicBox box)
    : base_(base), box_(box) {
  assert(box_.dims() == base_->dims() &&
         "restriction box must span the oracle's output space");
}

void RestrictedOracle::Probe(const DyadicBox& point, BoxSink sink) const {
  ++probe_count_;
  if (!box_.Contains(point)) {
    EmitComplementContaining(box_, point, sink);
    return;
  }
  // Clip each result to the box; drop the ones disjoint from it (some
  // oracles emit sibling band boxes that do not contain the probe — the
  // complement slabs already cover the outside). A result containing
  // the in-box probe always survives the clip, so probe-emptiness is
  // preserved.
  DyadicBox clipped = DyadicBox::Universal(box_.dims());
  base_->Probe(point, [&](const DyadicBox& g) {
    if (IntersectBoxes(g, box_, &clipped)) sink(clipped);
  });
}

bool RestrictedOracle::EnumerateAll(BoxSink sink) const {
  EmitBoxComplement(box_, sink);
  // Only base boxes meeting the subcube can survive the clip, so ask for
  // exactly those — a pruned base (materialized store, sorted index)
  // then skips the rest of its enumeration.
  DyadicBox clipped = DyadicBox::Universal(box_.dims());
  return base_->EnumerateIntersecting(box_, [&](const DyadicBox& g) {
    if (IntersectBoxes(g, box_, &clipped)) sink(clipped);
  });
}

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

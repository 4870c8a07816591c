#include "index/index_view.h"

#include <cassert>

namespace tetris {

IndexView::IndexView(const Index* base, DyadicBox box)
    : base_(base), box_(box) {
  assert(box_.dims() == base_->arity() &&
         "view box must span the base index's columns");
}

bool IndexView::Contains(const Tuple& t) const {
  return box_.ContainsPoint(t.data(), base_->depth()) && base_->Contains(t);
}

void IndexView::GapsContaining(const uint64_t* t, BoxSink sink) const {
  const DyadicBox point = DyadicBox::Point(t, box_.dims(), base_->depth());
  if (!box_.Contains(point)) {
    EmitComplementContaining(box_, point, sink);
    return;
  }
  // Base probes may emit sibling band boxes that do not contain the
  // probe; clip each to the box and drop the ones disjoint from it (the
  // complement slabs already cover that space). The gap that contains
  // the in-box probe always survives: two dyadic intervals containing
  // the same point are comparable, so its clip cannot fail — the
  // postcondition (nothing iff Contains) carries over.
  DyadicBox clipped = DyadicBox::Universal(box_.dims());
  base_->GapsContaining(t, [&](const DyadicBox& g) {
    if (IntersectBoxes(g, box_, &clipped)) sink(clipped);
  });
}

void IndexView::AllGaps(BoxSink sink) const {
  EmitBoxComplement(box_, sink);
  // Pruned: only the base gaps meeting the box can survive the clip, so
  // let the base skip the rest of its enumeration up front.
  DyadicBox clipped = DyadicBox::Universal(box_.dims());
  base_->GapsIntersecting(box_, [&](const DyadicBox& g) {
    if (IntersectBoxes(g, box_, &clipped)) sink(clipped);
  });
}

}  // namespace tetris

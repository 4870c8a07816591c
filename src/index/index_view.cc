#include "index/index_view.h"

#include <cassert>

namespace tetris {

IndexView::IndexView(const Index* base, DyadicBox box)
    : base_(base), box_(box) {
  assert(box_.dims() == base_->arity() &&
         "view box must span the base index's columns");
}

void IndexView::GapsIntersecting(const DyadicBox& box, BoxSink sink) const {
  EmitBoxComplement(box_, [&](const DyadicBox& slab) {
    if (slab.Intersects(box)) sink(slab);
  });
  // A base gap clipped to the view box meets `box` iff the base gap meets
  // both boxes, so the base enumerates only those.
  DyadicBox both = DyadicBox::Universal(box_.dims());
  if (!IntersectBoxes(box_, box, &both)) return;
  DyadicBox clipped = DyadicBox::Universal(box_.dims());
  base_->GapsIntersecting(both, [&](const DyadicBox& g) {
    if (IntersectBoxes(g, box_, &clipped)) sink(clipped);
  });
}

void IndexView::GapsContaining(const uint64_t* t, BoxSink sink) const {
  if (!box_.ContainsPoint(t, base_->depth())) {
    return GapsIntersecting(DyadicBox::Point(t, box_.dims(), base_->depth()),
                            sink);
  }
  // Base probes may emit sibling band boxes that do not contain the
  // probe; clip each to the box and drop the ones disjoint from it (the
  // complement slabs already cover that space). The gap that contains
  // the in-box probe always survives: two dyadic intervals containing
  // the same point are comparable, so its clip cannot fail — the
  // postcondition (nothing iff the probe is in the restriction) carries
  // over.
  DyadicBox clipped = DyadicBox::Universal(box_.dims());
  base_->GapsContaining(t, [&](const DyadicBox& g) {
    if (IntersectBoxes(g, box_, &clipped)) sink(clipped);
  });
}

}  // namespace tetris

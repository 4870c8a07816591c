// Restriction algebra over dyadic boxes — the geometric substrate of the
// zero-copy shard views (index/index_view.h).
//
// Restricting a relation or a box set to a dyadic subcube never needs new
// data structures: the restricted gap set is the original gaps *clipped*
// to the subcube plus the dyadic complement of the subcube itself (every
// point outside the subcube is a gap of the restriction). Both pieces are
// O(1)-per-box prefix arithmetic on dyadic intervals.
#ifndef TETRIS_GEOMETRY_BOX_RESTRICT_H_
#define TETRIS_GEOMETRY_BOX_RESTRICT_H_

#include <cassert>

#include "geometry/dyadic_box.h"

namespace tetris {

/// Intersection of two same-dimensionality dyadic boxes. Dyadic intervals
/// intersect iff comparable, and then the intersection is the longer one;
/// so the box intersection is the componentwise-longer box, or empty.
/// Writes it, with a's provenance bit, into `*out`, a box of a's
/// dimension, so a clipping loop reuses one box for every gap. Returns
/// false (and leaves `*out` untouched) when the boxes are disjoint.
inline bool IntersectBoxes(const DyadicBox& a, const DyadicBox& b,
                           DyadicBox* out) {
  assert(out->dims() == a.dims());
  for (int i = 0; i < a.dims(); ++i) {
    if (!a[i].ComparableWith(b[i])) return false;
  }
  for (int i = 0; i < a.dims(); ++i) {
    (*out)[i] = a[i].IntersectComparable(b[i]);
  }
  out->set_output_derived(a.output_derived());
  return true;
}

/// The smallest dyadic box containing both `a` and `b`: per dimension,
/// the longest common prefix of the two intervals. The incremental
/// layer (engine/incremental.h) re-runs the hull of the touched boxes
/// that meet a shard, clipped to it, instead of the whole shard.
inline DyadicBox DyadicHull(const DyadicBox& a, const DyadicBox& b) {
  DyadicBox r = DyadicBox::Universal(a.dims());
  for (int i = 0; i < a.dims(); ++i) {
    const int l = a[i].len < b[i].len ? a[i].len : b[i].len;
    const uint64_t x = a[i].bits >> (a[i].len - l);
    const uint64_t y = b[i].bits >> (b[i].len - l);
    const int p = FirstDiffBit(x, y, l);
    r[i] = DyadicInterval{x >> (l - p), static_cast<uint8_t>(p)};
  }
  return r;
}

/// Emits the maximal dyadic boxes covering the complement of `box`: for
/// every non-λ component, the sibling of each prefix along its path,
/// padded with λ elsewhere, dimension by dimension. The slabs overlap
/// across dimensions, which is fine for gap sets; each is maximal
/// (growing any slab would reach into `box`).
inline void EmitBoxComplement(const DyadicBox& box, BoxSink sink) {
  DyadicBox slab = DyadicBox::Universal(box.dims());
  for (int i = 0; i < box.dims(); ++i) {
    for (int j = 1; j <= box[i].len; ++j) {
      const DyadicInterval pref = box[i].Prefix(j);
      slab[i] = DyadicInterval{pref.bits ^ 1, pref.len};
      sink(slab);
    }
    slab[i] = DyadicInterval::Lambda();
  }
}

}  // namespace tetris

#endif  // TETRIS_GEOMETRY_BOX_RESTRICT_H_

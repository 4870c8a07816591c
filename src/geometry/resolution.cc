#include "geometry/resolution.h"

namespace tetris {
namespace {

// Writes the resolvent of w1 and w2 on `pivot` into *out, once `pivot` is
// known to satisfy the sibling condition and all other dimensions are
// comparable. Component i reads only component i of each input, so `out`
// may alias either input.
void WriteResolvent(const DyadicBox& w1, const DyadicBox& w2, int pivot,
                    DyadicBox* out) {
  const bool derived = w1.output_derived() || w2.output_derived();
  for (int i = 0; i < w1.dims(); ++i) {
    if (i == pivot) {
      (*out)[i] = w1[i].Parent();
    } else {
      (*out)[i] = w1[i].IntersectComparable(w2[i]);
    }
  }
  out->set_output_derived(derived);
}

// The resolvent of w1 and w2 on a valid `pivot`, in a fresh box. It
// returns the optional itself so callers hand it straight back: their
// failure paths then build no box and set up no frame for one.
std::optional<Resolvent> MakeResolvent(const DyadicBox& w1,
                                       const DyadicBox& w2, int pivot) {
  std::optional<Resolvent> r(Resolvent{DyadicBox::Universal(w1.dims()),
                                       pivot});
  WriteResolvent(w1, w2, pivot, &r->box);
  return r;
}

// The pivot of an ordered resolution of w1 and w2 (equations (1)/(2)),
// or -1 if the pair does not have that shape.
int OrderedPivot(const DyadicBox& w1, const DyadicBox& w2) {
  if (w1.dims() != w2.dims()) return -1;
  // Locate the pivot: the unique sibling dimension; everything before it
  // must be comparable, everything after it must be λ in both inputs.
  int pivot = -1;
  for (int i = 0; i < w1.dims(); ++i) {
    if (w1[i].IsSiblingOf(w2[i])) {
      pivot = i;
      break;
    }
    if (!w1[i].ComparableWith(w2[i])) return -1;
  }
  if (pivot < 0) return -1;
  for (int i = pivot + 1; i < w1.dims(); ++i) {
    if (!w1[i].IsLambda() || !w2[i].IsLambda()) return -1;
  }
  return pivot;
}

}  // namespace

std::optional<Resolvent> GeometricResolve(const DyadicBox& w1,
                                          const DyadicBox& w2) {
  if (w1.dims() != w2.dims()) return std::nullopt;
  int pivot = -1;
  for (int i = 0; i < w1.dims(); ++i) {
    if (w1[i].IsSiblingOf(w2[i])) {
      if (pivot < 0) pivot = i;
      // A second sibling dimension makes the pair unresolvable: the
      // "other dimensions comparable" condition would fail there.
    } else if (!w1[i].ComparableWith(w2[i])) {
      return std::nullopt;
    }
  }
  if (pivot < 0) return std::nullopt;
  // Re-check: all non-pivot dimensions must be comparable (a dimension
  // that is a sibling pair but not the chosen pivot is not comparable).
  for (int i = 0; i < w1.dims(); ++i) {
    if (i != pivot && !w1[i].ComparableWith(w2[i])) return std::nullopt;
  }
  return MakeResolvent(w1, w2, pivot);
}

int OrderedResolveInto(const DyadicBox& w1, const DyadicBox& w2,
                       DyadicBox* out) {
  const int pivot = OrderedPivot(w1, w2);
  if (pivot >= 0) WriteResolvent(w1, w2, pivot, out);
  return pivot;
}

std::optional<Resolvent> OrderedResolve(const DyadicBox& w1,
                                        const DyadicBox& w2) {
  const int pivot = OrderedPivot(w1, w2);
  if (pivot < 0) return std::nullopt;
  return MakeResolvent(w1, w2, pivot);
}

namespace {

// Exact check that box `b` is covered by w1 ∪ w2, by dyadic splitting.
// Terminates quickly because each recursion either decides or halves a
// component; worst case O(d * n) levels with branching only where the
// boundary of w1/w2 cuts through b.
bool CoveredByPair(const DyadicBox& b, const DyadicBox& w1,
                   const DyadicBox& w2, int d) {
  if (w1.Contains(b) || w2.Contains(b)) return true;
  bool i1 = b.Intersects(w1);
  bool i2 = b.Intersects(w2);
  if (!i1 && !i2) return false;
  // Find a splittable dimension.
  for (int i = 0; i < b.dims(); ++i) {
    if (b[i].len < d) {
      DyadicBox lo = b, hi = b;
      lo[i] = b[i].Child(0);
      hi[i] = b[i].Child(1);
      return CoveredByPair(lo, w1, w2, d) && CoveredByPair(hi, w1, w2, d);
    }
  }
  return false;  // unit box not contained in either input
}

}  // namespace

bool ResolventIsSound(const DyadicBox& w1, const DyadicBox& w2,
                      const DyadicBox& r, int d) {
  return CoveredByPair(r, w1, w2, d);
}

}  // namespace tetris

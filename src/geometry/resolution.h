// Geometric resolution (paper, Section 4.1).
//
// The resolution of two dyadic boxes w1 = <y1..yn>, w2 = <z1..zn> is defined
// when (1) there is a pivot dimension ℓ with yℓ = x0 and zℓ = x1 (adjacent
// siblings), and (2) every other dimension is comparable (one a prefix of
// the other). The resolvent is <y1∩z1, ..., x, ..., yn∩zn>, where ∩ picks
// the longer string. Geometrically: two boxes adjacent in dimension ℓ merge
// into one box covering their shared shadow; logically it is clause
// resolution restricted to dyadic clauses (paper, Example 4.1).
//
// *Ordered* geometric resolution (Definition 4.3) is the special case where
// both inputs have the trailing-λ shape of equations (1)/(2); TetrisSkeleton
// only ever produces that shape (Lemma C.1), but the general form is also
// provided for the resolution-complexity experiments and tests. The
// ordered form has one implementation, a shape check plus a resolvent
// writer: OrderedResolveInto writes into caller storage (in place over
// the first input, as the skeleton uses it), and OrderedResolve runs the
// same two steps into a fresh box for the tests and micro-benchmarks.
#ifndef TETRIS_GEOMETRY_RESOLUTION_H_
#define TETRIS_GEOMETRY_RESOLUTION_H_

#include <optional>

#include "geometry/dyadic_box.h"

namespace tetris {

/// Outcome of a resolution attempt.
struct Resolvent {
  DyadicBox box;
  int pivot_dim = -1;  ///< The dimension resolved on.
};

/// Attempts a *general* geometric resolution of w1 and w2.
/// Returns std::nullopt if no dimension satisfies the sibling condition or
/// some other dimension is incomparable. If several pivot dimensions are
/// possible, the smallest index is used.
std::optional<Resolvent> GeometricResolve(const DyadicBox& w1,
                                          const DyadicBox& w2);

/// Attempts an *ordered* geometric resolution: w1 and w2 must match the
/// shapes (1)/(2) of the paper — components pairwise comparable before
/// the pivot and λ in both inputs after it. On success writes the
/// resolvent's components and provenance bit into `*out` (which must
/// have w1's dimension) and returns the pivot dimension; otherwise
/// returns -1 and leaves `*out` untouched. Component i of the resolvent
/// depends only on component i of each input and the shape is checked
/// in full before anything is written, so `out` may alias `w1` (or
/// `w2`): TetrisSkeleton resolves in place, writing the resolvent over
/// its first witness.
int OrderedResolveInto(const DyadicBox& w1, const DyadicBox& w2,
                       DyadicBox* out);

/// OrderedResolveInto's result in a fresh box: the same shape check and
/// the same resolvent writer, with the box built only once the check
/// has passed. Returns std::nullopt if the inputs do not have the
/// ordered shape.
std::optional<Resolvent> OrderedResolve(const DyadicBox& w1,
                                        const DyadicBox& w2);

/// True iff `r` is a sound resolvent of w1, w2: every point of r is covered
/// by w1 ∪ w2. (Used by tests and the proof-logging checker.)
bool ResolventIsSound(const DyadicBox& w1, const DyadicBox& w2,
                      const DyadicBox& r, int d);

}  // namespace tetris

#endif  // TETRIS_GEOMETRY_RESOLUTION_H_

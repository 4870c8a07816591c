// Dyadic decomposition of integer ranges and general boxes
// (paper, Proposition B.14: every box splits into at most (2d)^n disjoint
// dyadic boxes).
//
// Index substrates produce *gaps* as integer ranges (e.g. "no tuple has
// A between 4 and 9"); these routines turn them into the disjoint dyadic
// boxes the Tetris knowledge base stores.
#ifndef TETRIS_GEOMETRY_DECOMPOSE_H_
#define TETRIS_GEOMETRY_DECOMPOSE_H_

#include <cstdint>
#include <vector>

#include "geometry/dyadic_box.h"

namespace tetris {

/// Calls `fn(iv)` for each interval of the canonical disjoint dyadic
/// cover of the integer range [lo, hi] in a depth-`d` domain: maximal
/// blocks, left to right, at most 2d of them, none if lo > hi.
template <typename Fn>
void ForEachDyadicCover(uint64_t lo, uint64_t hi, int d, Fn&& fn) {
  if (lo > hi) return;
  const uint64_t end = hi + 1;  // exclusive; hi < 2^d <= 2^62 so no overflow
  for (uint64_t cur = lo; cur < end;) {
    // Largest power-of-two block that starts at `cur` (alignment) and does
    // not run past `end` (remaining length).
    int align = cur == 0 ? d : __builtin_ctzll(cur);
    if (align > d) align = d;
    const int fit = 63 - __builtin_clzll(end - cur);
    const int k = align < fit ? align : fit;  // block size 2^k
    fn(DyadicInterval{cur >> k, static_cast<uint8_t>(d - k)});
    cur += uint64_t{1} << k;
  }
}

/// The intervals of ForEachDyadicCover(lo, hi, d), in its order.
std::vector<DyadicInterval> DyadicCover(uint64_t lo, uint64_t hi, int d);

/// A (possibly non-dyadic) axis-aligned box: per-dimension closed integer
/// ranges. A range with lo > hi denotes an empty box; a full-domain range
/// [0, 2^d - 1] becomes λ.
struct IntBox {
  std::vector<uint64_t> lo;
  std::vector<uint64_t> hi;
};

/// Decomposes `box` into disjoint dyadic boxes (cartesian product of the
/// per-dimension covers). `d` is the uniform depth of all dimensions.
std::vector<DyadicBox> DecomposeBox(const IntBox& box, int d);

/// Emits the parts of `cell` that hold none of the points [first, last)
/// and meet `box`: halves `cell` along its shortest dimension with bits
/// left (the first on a tie), low half first, until a part holds no
/// point; a unit part holding a point emits nothing. Over the universal `box` the
/// parts are a disjoint cover of the cell minus the points; a smaller
/// `box` skips the halves disjoint from it. Each point is cell.dims()
/// values inside `cell`, and `cell` must meet `box`. Reorders
/// [first, last) in place.
void ForEachComplementBox(const DyadicBox& cell, const uint64_t** first,
                          const uint64_t** last, const DyadicBox& box, int d,
                          BoxSink sink);

}  // namespace tetris

#endif  // TETRIS_GEOMETRY_DECOMPOSE_H_

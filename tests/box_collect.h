// Collects what a sink-form gap or probe call (index/index.h,
// kb/box_oracle.h) emits, for tests that compare box lists or check a
// probe's emptiness.
#ifndef TETRIS_TESTS_BOX_COLLECT_H_
#define TETRIS_TESTS_BOX_COLLECT_H_

#include <vector>

#include "geometry/dyadic_box.h"

namespace tetris {

/// A sink appending each box to `*out`, in emission order:
/// `ix.AllGaps(AppendTo(&gaps))`.
inline auto AppendTo(std::vector<DyadicBox>* out) {
  return [out](const DyadicBox& b) { out->push_back(b); };
}

/// True iff probing `ix` at `t` emits no gap: by the probe contract
/// (index/index.h), iff `t` is in the indexed relation.
template <typename Ix>
bool ProbeFindsNoGap(const Ix& ix, const std::vector<uint64_t>& t) {
  bool none = true;
  ix.GapsContaining(t.data(), [&none](const DyadicBox&) { none = false; });
  return none;
}

}  // namespace tetris

#endif  // TETRIS_TESTS_BOX_COLLECT_H_

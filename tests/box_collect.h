// Collects what a sink-form gap or probe call (index/index.h,
// kb/box_oracle.h) emits, for tests that compare box lists.
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

}  // namespace tetris

#endif  // TETRIS_TESTS_BOX_COLLECT_H_

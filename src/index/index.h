// Index substrates: every index is a collection of gap boxes
// (paper, Section 3.2 and Appendix B).
//
// An index over a k-ary relation R is its gap-box set B(R), and it
// answers one query over it: GapsIntersecting(b), the gaps of B(R) that
// meet a box b, in the index's own fixed order. The two oracle operations
// Tetris needs are that query on two boxes:
//
//   * AllGaps()         — b universal: all of B(R) (Tetris-Preloaded).
//   * GapsContaining(t) — b the unit box of a probe point t (Algorithm 2,
//                         line 4): nothing iff t ∈ R. A sorted index
//                         answers with its whole band instead
//                         (Minesweeper's probe).
//
// Gap boxes are expressed over the relation's own k columns, in relation
// column order; the join runner embeds them into the n-dimensional output
// space by padding the other attributes with λ (paper, Section 3.3).
//
// The gap calls hand their boxes to a BoxSink (geometry/dyadic_box.h), so
// a gap box travels from the index to the Tetris knowledge base without
// being stored on the way. The sink contract: the sink runs on the
// caller's thread, once per box, before the call returns; a box is valid
// only during its sink call (the index may reuse its storage for the next
// box); and the boxes arrive in the order the call documents, the same on
// every call.
#ifndef TETRIS_INDEX_INDEX_H_
#define TETRIS_INDEX_INDEX_H_

#include <string>

#include "geometry/dyadic_box.h"
#include "relation/relation.h"

namespace tetris {

/// Abstract index over one relation.
///
/// Thread-safety contract: the const gap calls and MemoryBytes must be
/// safe to call concurrently — implementations keep no mutable scratch.
/// The parallel executor relies on this to share indexes across
/// concurrent engine runs.
class Index {
 public:
  virtual ~Index() = default;

  /// Number of columns of the indexed relation.
  virtual int arity() const = 0;

  /// Bit depth of the value domain.
  virtual int depth() const = 0;

  /// Emits exactly the gap boxes of the index's B(R) that intersect
  /// `box` (share at least one point), in the index's own fixed
  /// enumeration order, pruning the enumeration to `box`.
  virtual void GapsIntersecting(const DyadicBox& box, BoxSink sink) const = 0;

  /// Emits all gap boxes of the index (its B(R) set), in its order.
  void AllGaps(BoxSink sink) const {
    GapsIntersecting(DyadicBox::Universal(arity()), sink);
  }

  /// Emits gap boxes around the probe point `t` (arity() values, relation
  /// column order): at least one containing `t`, none iff `t` is in the
  /// relation. The default is GapsIntersecting on the unit box of `t`.
  virtual void GapsContaining(const uint64_t* t, BoxSink sink) const {
    GapsIntersecting(DyadicBox::Point(t, arity(), depth()), sink);
  }

  /// Approximate resident footprint of the index structure in bytes
  /// (payload + node overhead; excludes the underlying Relation).
  virtual size_t MemoryBytes() const = 0;

  /// Human-readable description, e.g. "btree(B,A)" or "dyadic-tree".
  virtual std::string Describe() const = 0;
};

}  // namespace tetris

#endif  // TETRIS_INDEX_INDEX_H_

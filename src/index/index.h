// Index substrates: every index is a collection of gap boxes
// (paper, Section 3.2 and Appendix B).
//
// An index over a k-ary relation R supports exactly the oracle operations
// Tetris needs:
//
//   * Contains(t)        — membership.
//   * GapsContaining(t)  — the maximal gap boxes of this index that contain
//                          a probe point t ∉ R, dyadically decomposed
//                          (none iff t ∈ R).
//   * AllGaps()          — the full gap-box collection B(R) of the index
//                          (used by Tetris-Preloaded).
//   * GapsIntersecting() — the gaps of AllGaps() meeting a box (a shard's
//                          preload).
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
/// Thread-safety contract: the const probe operations (Contains, the gap
/// calls, MemoryBytes) must be safe to call concurrently —
/// implementations keep no mutable scratch. The parallel executor relies
/// on this to share indexes across concurrent engine runs.
class Index {
 public:
  virtual ~Index() = default;

  /// Number of columns of the indexed relation.
  virtual int arity() const = 0;

  /// Bit depth of the value domain.
  virtual int depth() const = 0;

  /// True iff `t` (relation column order) is present.
  virtual bool Contains(const Tuple& t) const = 0;

  /// Emits the maximal dyadic gap boxes of this index containing the
  /// probe point `t` (arity() values, relation column order). Emits
  /// nothing iff Contains(t).
  virtual void GapsContaining(const uint64_t* t, BoxSink sink) const = 0;

  /// Emits all gap boxes of the index (its B(R) set), in the index's
  /// own fixed enumeration order.
  virtual void AllGaps(BoxSink sink) const = 0;

  /// Emits exactly the gap boxes of AllGaps() that intersect `box`
  /// (share at least one point), in AllGaps() order. The sharded
  /// executor preloads each shard's Tetris from this, so indexes that
  /// can prune their gap enumeration to the shard subcube override it;
  /// the default filters the full enumeration.
  virtual void GapsIntersecting(const DyadicBox& box, BoxSink sink) const {
    AllGaps([&](const DyadicBox& g) {
      if (box.Intersects(g)) sink(g);
    });
  }

  /// Approximate resident footprint of the index structure in bytes
  /// (payload + node overhead; excludes the underlying Relation).
  virtual size_t MemoryBytes() const = 0;

  /// Human-readable description, e.g. "btree(B,A)" or "dyadic-tree".
  virtual std::string Describe() const = 0;
};

}  // namespace tetris

#endif  // TETRIS_INDEX_INDEX_H_

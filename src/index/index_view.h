// Zero-copy restriction views over any Index.
//
// An IndexView presents the restriction of an indexed relation to a
// dyadic box without touching the base structure: the restricted
// relation's gap set is the base gaps *clipped* to the box plus the
// dyadic complement of the box itself (everything outside the box is
// empty in the restriction). Both pieces are O(1)-per-box prefix
// arithmetic (geometry/box_restrict.h), so constructing a view costs a
// few words — the sharded executor builds one per (shard, atom) inside
// the worker task instead of copying tuples and rebuilding indexes.
//
// Works over every index type behind the Index interface (SortedIndex,
// DyadicTreeIndex, KdTreeIndex, RTreeIndex, MultiIndex); the base's
// const-probe thread-safety contract lets many shards share one base
// concurrently.
#ifndef TETRIS_INDEX_INDEX_VIEW_H_
#define TETRIS_INDEX_INDEX_VIEW_H_

#include "geometry/box_restrict.h"
#include "index/index.h"

namespace tetris {

/// The restriction of `base`'s relation to `box` (a dyadic box over the
/// base's columns, in relation column order). Non-owning: the base index
/// must outlive the view.
class IndexView : public Index {
 public:
  IndexView(const Index* base, DyadicBox box);

  int arity() const override { return base_->arity(); }
  int depth() const override { return base_->depth(); }

  /// The slabs of the view box's complement meeting `box`
  /// (EmitBoxComplement's order), then the base gaps meeting both boxes
  /// clipped to the view box, in base order (base gaps disjoint from the
  /// view box are dropped — the complement slabs already cover them).
  void GapsIntersecting(const DyadicBox& box, BoxSink sink) const override;

  /// Probes outside the box answer with the complement slabs containing
  /// the probe (GapsIntersecting on the point); probes inside defer to
  /// the base's probe with results clipped to the box, in base order.
  /// Postcondition (nothing iff the probe is in the restriction) carries
  /// over from the base.
  void GapsContaining(const uint64_t* t, BoxSink sink) const override;

  /// The view's own resident footprint. The base structure is shared and
  /// accounted once by whoever owns it, not per view.
  size_t MemoryBytes() const override { return sizeof(IndexView); }

  std::string Describe() const override {
    return "view(" + base_->Describe() + " ∩ " + box_.ToString() + ")";
  }

  const DyadicBox& box() const { return box_; }

 private:
  const Index* base_;
  DyadicBox box_;
};

}  // namespace tetris

#endif  // TETRIS_INDEX_INDEX_VIEW_H_

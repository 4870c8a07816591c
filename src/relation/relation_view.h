// Non-owning row-subset views over a Relation.
//
// The sharded executor restricts every atom's relation to a shard's
// dyadic box. A RelationView carries that restriction as a list of row
// indices into the base relation — 8 bytes per row instead of a tuple
// copy — so a shard plan's resident footprint no longer scales with the
// number of shards times the payload. Engines that must scan a concrete
// Relation (the WCOJ and pairwise baselines) call Materialize() *inside
// the worker task* and drop the copy when the shard finishes; the Tetris
// family skips materialization entirely via index views
// (index/index_view.h).
#ifndef TETRIS_RELATION_RELATION_VIEW_H_
#define TETRIS_RELATION_RELATION_VIEW_H_

#include <cstddef>
#include <vector>

#include "relation/relation.h"

namespace tetris {

/// A read-only view of a subset of a relation's rows. Non-owning: both
/// the base relation and the row list must outlive the view.
class RelationView {
 public:
  /// View of every row of `base`.
  explicit RelationView(const Relation* base)
      : base_(base), rows_(nullptr) {}

  /// View of the rows in `*rows` (row indices into `base`, in base
  /// order, no duplicates).
  RelationView(const Relation* base, const std::vector<size_t>* rows)
      : base_(base), rows_(rows) {}

  const Relation& base() const { return *base_; }

  size_t size() const {
    return rows_ == nullptr ? base_->size() : rows_->size();
  }

  TupleRef tuple(size_t i) const {
    return base_->row(rows_ == nullptr ? i : (*rows_)[i]);
  }

  /// Bytes a materialized copy of the viewed rows would occupy — the
  /// payload the shard planner budgets with.
  size_t PayloadBytes() const;

  /// Owning restricted copy (the lazy-materialization path). The result
  /// keeps the base's name and attributes and is canonical.
  Relation Materialize() const;

 private:
  const Relation* base_;
  const std::vector<size_t>* rows_;  // nullptr = all rows
};

}  // namespace tetris

#endif  // TETRIS_RELATION_RELATION_VIEW_H_

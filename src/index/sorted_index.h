// Sorted (B-tree / trie) index over a relation, in an arbitrary column
// order (paper, Section 3.2, Figures 1 and 3a; Appendix B.1).
//
// Semantically a B-tree keyed by the permuted tuple: probing a missing
// tuple finds the first level at which the probe diverges from the stored
// tuples and returns the *band* gap between the neighbouring keys at that
// level — exactly the GAO-consistent gap boxes of Minesweeper [50] —
// dyadically decomposed per Proposition B.14.
//
// Storage is a *permutation view* with one inner B-tree level. Instead
// of materializing its own sorted rows × arity × 8-byte copy, the index
// keeps a uint32_t row permutation over the relation's flat buffer,
// lexicographically sorted in index order and deduplicated: the leaf
// level. Building is a sort of row ids with no gather (a no-op sort when
// the relation is canonical and the layout is the identity order), so
// every layout of a relation shares the one canonical buffer. Reading a
// key through the permutation is two dependent loads, both cache misses
// under a permuted layout, so above the leaves sits the *fence*: the
// leading column's value at every kFenceStride-th (16th) rank, one
// contiguous array built with the permutation. A level-0 search reads
// the fence, then one leaf of at most 15 ranks; a deeper level searches
// only its prefix's range; and a probe finds the end of its key group by
// galloping from the group's start. So a probe does one full search per
// level. MemoryBytes() is rows·4 plus 8 bytes per 16 rows (0.5 bytes a
// row) instead of rows·arity·8; materializing the leading column
// instead of the fence would cost 8 bytes a row.
//
// On top of the base permutation sits a *delta overlay*: a small sorted
// side-structure of added rows (flat, permuted into index order) and
// removed base ranks, fed by the registry's RelationDelta through
// Promote(). Every probe entry point merges the overlay at
// band-enumeration time — a value group is live iff it has a base row
// that is not tombstoned or an overlay row, and bands run between *live*
// neighbours — so a promoted index answers exactly as a fresh rebuild
// over the new version would, without paying the rebuild. Once the
// overlay exceeds a fraction of the live rows (ShouldCompact), Promote
// folds it into a fresh base permutation over the new version.
//
// Lifetime contract: the index references the relation's raw() buffer;
// the relation must stay alive and unmutated (no Add/Canonicalize, which
// may reallocate) for the index's lifetime. Moving the Relation is safe
// (the heap buffer transfers). A promoted index pins the retired base
// version via shared_ptr (`pin()`), riding the registry's
// retired-version parking until compaction or eviction releases it.
#ifndef TETRIS_INDEX_SORTED_INDEX_H_
#define TETRIS_INDEX_SORTED_INDEX_H_

#include <memory>

#include "index/index.h"

namespace tetris {

/// B-tree/trie-style index with a fixed sort order over the columns.
class SortedIndex : public Index {
 public:
  /// `order[level]` is the relation column compared at trie level `level`;
  /// it must be a permutation of [0, arity). `depth` is the domain bit
  /// width d.
  SortedIndex(const Relation& rel, std::vector<int> order, int depth);

  /// Convenience: index in relation column order (identity permutation).
  SortedIndex(const Relation& rel, int depth);

  int arity() const override { return k_; }
  int depth() const override { return d_; }
  /// Trie order: at each level, left to right, the band below each live
  /// key, then that key's subtree; the trailing band last. A band's
  /// cover intervals arrive left to right (ForEachDyadicCover), all
  /// through one reused box. Pruned: descends only into key groups whose
  /// value lies in `box`'s component at that level and emits only the
  /// band intervals meeting it, so the cost tracks the keys under the
  /// subcube, not the whole relation.
  void GapsIntersecting(const DyadicBox& box, BoxSink sink) const override;
  /// The whole band at the first level where `t` has no live key
  /// (Minesweeper's probe), cover intervals not containing `t` included.
  void GapsContaining(const uint64_t* t, BoxSink sink) const override;
  std::string Describe() const override;

  /// Permutation (rows·4) plus fence (8 bytes per kFenceStride rows)
  /// plus overlay footprint; the base row payload belongs to the
  /// relation, not the index.
  size_t MemoryBytes() const override {
    return rows_ * sizeof(uint32_t) + fence_->size() * sizeof(uint64_t) +
           added_.size() * sizeof(uint64_t) +
           removed_.size() * sizeof(uint32_t);
  }

  /// Base ranks per fence slot: a level-0 search reads the fence, then
  /// one leaf of at most kFenceStride - 1 ranks.
  static constexpr size_t kFenceStride = 16;

  const std::vector<int>& order() const { return order_; }

  /// Distinct live rows the index answers for: base rows minus overlay
  /// tombstones plus overlay additions.
  size_t rows() const { return rows_ - removed_.size() + added_count(); }
  /// Overlay rows riding on the base permutation (added + removed).
  size_t overlay_rows() const { return added_count() + removed_.size(); }
  /// The retired relation version a promoted index keeps alive (null
  /// for a fresh build over a live version).
  const std::shared_ptr<const Relation>& pin() const { return pin_; }

  /// Overlay compaction policy: fold the overlay into a fresh base
  /// permutation once it exceeds 1/kCompactDenominator of the live rows
  /// (plus slack so tiny relations tolerate a few overlay rows).
  static constexpr size_t kCompactDenominator = 8;
  static constexpr size_t kCompactSlack = 8;
  static bool ShouldCompact(size_t overlay_rows, size_t live_rows) {
    return overlay_rows > live_rows / kCompactDenominator + kCompactSlack;
  }

  /// Carries `base` across one registry epoch: returns an index over
  /// `new_version`'s tuple set that shares the base permutation and
  /// absorbs the effective delta (`added`/`removed`, relation column
  /// order) into the overlay — no rebuild. The result pins
  /// `old_version` (or base's original pin, for chained promotions) so
  /// the referenced buffer outlives it. When the grown overlay crosses
  /// ShouldCompact, returns a fresh build over `new_version` instead
  /// (releasing the pin) and sets *compacted.
  static std::shared_ptr<const SortedIndex> Promote(
      const std::shared_ptr<const SortedIndex>& base,
      std::shared_ptr<const Relation> old_version,
      const Relation& new_version, const std::vector<Tuple>& added,
      const std::vector<Tuple>& removed, bool* compacted = nullptr);

 private:
  SortedIndex(const SortedIndex& o);

  size_t added_count() const {
    return k_ > 0 ? added_.size() / static_cast<size_t>(k_) : 0;
  }
  // Base row `i` (permutation rank) read at trie `level`.
  uint64_t at(size_t i, int level) const {
    return base_[static_cast<size_t>(perm_data_[i]) * k_ + ord_[level]];
  }
  // Overlay row `a` at trie `level` (overlay rows are stored permuted).
  uint64_t added_at(size_t a, int level) const {
    return added_[a * static_cast<size_t>(k_) + level];
  }
  // First base rank in [lo, hi) whose `level` value is >= v (the range
  // shares a prefix above `level`, so that column slice is sorted). At
  // level 0 the fence narrows the search to one leaf first.
  size_t LowerBound(size_t lo, size_t hi, int level, uint64_t v) const;
  // First base rank in [lo, hi) whose `level` value is > v, given that
  // the range's values are >= v: the end of v's group starting at lo,
  // found by galloping from lo.
  size_t GroupEnd(size_t lo, size_t hi, int level, uint64_t v) const;
  // Same over the overlay rows [alo, ahi).
  size_t AddedLowerBound(size_t alo, size_t ahi, int level, uint64_t v) const;
  // Tombstoned base ranks within [lo, hi).
  size_t RemovedIn(size_t lo, size_t hi) const;
  // Base rank of the permuted key, if present: a full-row search within
  // the key's level-0 group.
  bool FindBaseRank(const uint64_t* key, size_t* rank) const;
  // First overlay row >= the permuted key (full-row lex order).
  size_t AddedLowerBoundFull(const uint64_t* key) const;
  // Largest live value below the probe group: base groups in [lo, bpos)
  // scanned right-to-left skipping fully-tombstoned ones (bounded by the
  // tombstone count), merged with the last overlay row in [alo, apos).
  bool PredLiveValue(size_t lo, size_t bpos, size_t alo, size_t apos,
                     int level, uint64_t* v) const;
  // Smallest live value above: mirror of PredLiveValue.
  bool SuccLiveValue(size_t bpos, size_t hi, size_t apos, size_t ahi,
                     int level, uint64_t* v) const;
  // A 0-ary index's one gap: the whole 0-dimensional space, emitted iff
  // no row (the empty tuple) is live.
  void NullaryGap(BoxSink sink) const;
  // Emits the dyadic decomposition of the band gap [lo_val, hi_val] at
  // trie `level` through `*slot`, which holds the key prefix's unit
  // intervals above `level` and λ from `level` on, and is left that way.
  // When `clip` is non-null only cover intervals comparable with it are
  // emitted.
  void EmitBand(DyadicBox* slot, int level, uint64_t lo_val, uint64_t hi_val,
                const DyadicInterval* clip, BoxSink sink) const;
  void GapsIntersectingRec(size_t lo, size_t hi, size_t alo, size_t ahi,
                           int level, const DyadicBox& box, DyadicBox* slot,
                           BoxSink sink) const;
  // Folds `added`/`removed` (relation column order) into the overlay:
  // removals of overlay rows un-add, removals of base rows tombstone,
  // re-adds of tombstoned base rows un-remove. Build-time only — probes
  // never mutate.
  void ApplyDelta(const std::vector<Tuple>& added,
                  const std::vector<Tuple>& removed);

  int k_;
  int d_;
  std::vector<int> order_;          // level -> relation column
  const int* ord_ = nullptr;        // order_.data()
  const uint64_t* base_ = nullptr;  // relation's flat buffer, stride k_
  /// Sorted deduplicated base row ids, shared across promoted copies.
  std::shared_ptr<const std::vector<uint32_t>> perm_;
  const uint32_t* perm_data_ = nullptr;
  size_t rows_ = 0;  // perm_->size()
  /// The inner B-tree level: the leading (level-0) value of every
  /// kFenceStride-th base rank, built with the permutation and shared
  /// with it across promoted copies. Empty for a 0-ary index.
  std::shared_ptr<const std::vector<uint64_t>> fence_;
  const uint64_t* fence_data_ = nullptr;
  /// Keeps the base buffer's owning (retired) version alive once the
  /// index outlives the registry epoch it was built under.
  std::shared_ptr<const Relation> pin_;
  /// Overlay additions: flat row-major, stride k_, permuted into index
  /// order, lex sorted, disjoint from the base rows.
  std::vector<uint64_t> added_;
  /// Overlay tombstones: sorted base permutation ranks.
  std::vector<uint32_t> removed_;
};

}  // namespace tetris

#endif  // TETRIS_INDEX_SORTED_INDEX_H_

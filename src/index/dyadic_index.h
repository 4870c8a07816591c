// Dyadic-tree (quad-tree style) index (paper, Figure 3b and Appendix B.2).
//
// The index recursively halves *every* dimension at once: a cell at level L
// is a dyadic box whose components all have length L. Gap boxes are the
// maximal empty cells. These boxes can be exponentially fewer than the
// band gaps of any sorted index (paper, Example B.8 — quad-tree boxes make
// O(1)-size certificates possible where B-trees need Ω(N)).
//
// Implementation: tuples are stored as sorted Morton (z-order) codes, so a
// cell is a contiguous code range and emptiness is one binary search.
#ifndef TETRIS_INDEX_DYADIC_INDEX_H_
#define TETRIS_INDEX_DYADIC_INDEX_H_

#include "index/index.h"

namespace tetris {

/// Quad-tree style index over all columns simultaneously.
/// Requires arity * depth <= 62 (Morton code must fit one word).
class DyadicTreeIndex : public Index {
 public:
  DyadicTreeIndex(const Relation& rel, int depth);

  int arity() const override { return k_; }
  int depth() const override { return d_; }
  /// Maximal empty cells meeting `box`, in Morton (z-) order; a probe
  /// gets the one on its path.
  void GapsIntersecting(const DyadicBox& box, BoxSink sink) const override;
  size_t MemoryBytes() const override {
    return codes_.size() * sizeof(uint64_t);
  }
  std::string Describe() const override { return "dyadic-tree"; }

 private:
  uint64_t Morton(const uint64_t* t) const;
  // True iff some tuple's Morton code has `prefix` (of bit length
  // `prefix_bits`) as a prefix.
  bool CellOccupied(uint64_t prefix, int prefix_bits) const;
  // The maximal empty cells meeting `box` inside the cell at `level`
  // holding Morton prefix `prefix`, which meets `box`.
  void GapsRec(uint64_t prefix, int level, const DyadicBox& box,
               BoxSink sink) const;
  // The dyadic box of the level-L cell holding Morton prefix `prefix`.
  DyadicBox CellBox(uint64_t prefix, int level) const;

  int k_;
  int d_;
  std::vector<uint64_t> codes_;  // sorted Morton codes
};

}  // namespace tetris

#endif  // TETRIS_INDEX_DYADIC_INDEX_H_

// Multilevel dyadic tree (paper, Appendix C.1, Figure 16), stored as a
// path-compressed, bit-packed flat arena.
//
// Stores a set of n-dimensional dyadic boxes so that the two operations
// Tetris performs constantly are cheap:
//
//   * Insert(box)            — amortized O(n) arena-node visits.
//   * Stage(box) ... InsertStaged() — the same inserts in bulk (below).
//   * FindContaining(box, &out) — is some stored box a superset of `box`?
//                              Visits only *existing* prefix nodes, so the
//                              cost is O~(1) per Proposition B.12. A hit
//                              copies the found box's n components and
//                              provenance bit into the caller's `out` (the
//                              skeleton's witness slot); nothing else is
//                              built, and a miss writes nothing.
//   * FindContaining(box, level, &cursor, &out) — the same lookup through
//                              a Cursor, for a box whose components
//                              0..level-1 the cursor has already walked:
//                              the walk starts at level `level`. This is
//                              the Tetris skeleton's lookup (below).
//   * CollectContaining(box) — all stored supersets (the oracle operation).
//
// One binary trie per dimension; a trie node that terminates some box's
// i-th component points to the root of a (i+1)-level trie. Boxes sharing a
// prefix of components share subtrees. Level order equals component order,
// so the engine keeps boxes in SAO coordinate order.
//
// The lookup cursor. Every node box of the one-pass skeleton is
// <unit, ..., unit, partial, λ, ..., λ>, and the unit components before
// the split dimension stay fixed across the node's whole subtree, so a
// plain lookup re-walks the same levels from the root at every node. A
// Cursor keeps that walk: for each level j it holds R_j, the level-j trie
// roots reached through the box's components 0..j-1, in the order the
// plain walk (FindRec) meets them. A lookup at level k extends the lists
// up to R_k if needed, then searches levels k..n-1 from each root of R_k
// in turn, so it returns the same first hit (coarser first) as
// FindContaining; FindContaining is the level-0 case, R_0 = {root}. Two
// rules keep the lists exact:
//   * Writing component j of the box goes through Cursor::Write, which
//     drops the lists of levels j+1 and deeper (they depend on it).
//   * A lookup rebuilds every list when size() has changed since they
//     were built. An insert that adds a next-level root always adds a
//     box, and arena indices never move, so an unchanged size() means
//     unchanged lists.
// The cursor lives outside the store (no member is added), and its lists
// reuse their capacity, so a lookup allocates nothing once warm.
//
// The bulk insert (Tetris-Preloaded's Initialize(A) := B). Stage(b)
// appends b's components to the component pool and touches nothing else:
// the trie, size() and every lookup ignore staged boxes. InsertStaged()
// then inserts the staged boxes in staging order, exactly as that many
// Insert calls would, with two savings:
//   * The node arena is reserved once, from a bound the staged boxes
//     give, instead of regrowing by doubling as the inserts go.
//   * Each box's walk resumes at a finger instead of the root: the
//     level-j root on the previous box's path, where j is the first
//     component where the two boxes differ. Their components 0..j-1 are
//     equal, so the walk from the root would reach that same root
//     without adding a node.
// So the bulk path appends the same nodes in the same order as single
// Inserts: the nodes, the box ids, every lookup, witness and nodes-
// visited count are the same. (In any insert order a path-compressed
// trie's nodes are exactly its level roots, its stored prefixes and its
// branch points; the order fixes only their indices.) A box equal to a
// stored or an earlier staged one is dropped and the pool compacted, so
// the fresh boxes take the next ids in staging order. Only capacities
// differ, and never upward: boxes out of trie order share few fingers,
// so the bound can overshoot, and dropped boxes were staged; a buffer
// left with more room than single inserts would hold moves down to that
// capacity. The finger pays on sorted runs: an atom's gap boxes arrive
// in its index's trie order, so consecutive boxes share all but their
// last components.
//
// Arena layout: every node of every per-dimension trie lives in ONE
// contiguous std::vector<Node>, addressed by int32_t indices — no
// pointers, no per-node allocation, 24 bytes per node. Edges are
// path-compressed: a node carries the whole multi-bit label of the edge
// entering it as a right-aligned (edge_bits, edge_len) prefix, so walking
// a length-L component costs one word-level prefix comparison
// (IsBitPrefix / FirstDiffBit from util/bit_ops.h) per *branching* node
// instead of L single-bit child hops. Stored boxes are bit-packed too: a
// dims-strided pool of components instead of full (16-slot) DyadicBox
// copies, so a 3-dimensional box costs 48 pool bytes, not 272. A fresh
// 3-dimensional box inserts ~5 nodes and touches a few cache lines; the
// old one-bit-per-node layout allocated and chased sum(len_i) nodes.
#ifndef TETRIS_KB_DYADIC_TREE_STORE_H_
#define TETRIS_KB_DYADIC_TREE_STORE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "geometry/dyadic_box.h"

namespace tetris {

/// A path-compressed multilevel dyadic tree over boxes of a fixed
/// dimension, backed by a flat node arena.
class DyadicTreeStore {
 public:
  /// The lookup cursor (see the file comment): per level, the trie roots
  /// reached through the leading components of the box it follows. One
  /// cursor serves one store and one box, which the caller edits only
  /// through Write between lookups.
  class Cursor {
   public:
    /// Sets component `dim` of `*b` to `iv` and drops the root lists
    /// that depended on it: levels dim+1 and deeper.
    void Write(DyadicBox* b, int dim, const DyadicInterval& iv) {
      (*b)[dim] = iv;
      if (dim < depth_) depth_ = dim;
    }

    /// Drops every list: the next lookup walks from the root.
    void Reset() { depth_ = -1; }

   private:
    friend class DyadicTreeStore;
    /// Level j's roots are roots_[begin_[j], begin_[j + 1]).
    std::vector<int32_t> roots_;
    std::array<uint32_t, kMaxDims + 1> begin_ = {};
    int depth_ = -1;       ///< deepest level whose list is built; -1: none
    size_t kb_size_ = 0;   ///< the store's size() when they were built
  };

  /// Creates an empty store for `dims`-dimensional boxes.
  explicit DyadicTreeStore(int dims);

  /// Inserts `b`. Returns false (and stores nothing) if an identical box is
  /// already present. No box may be staged.
  bool Insert(const DyadicBox& b);

  /// Appends `b` to the staged boxes (see the file comment); nothing else
  /// sees it until InsertStaged.
  void Stage(const DyadicBox& b);

  /// Inserts every staged box, in staging order, as Insert would, and
  /// returns how many were fresh: they are the boxes with ids
  /// [size() - n, size()), in staging order.
  size_t InsertStaged();

  /// Stored box `id`, with its provenance bit; ids number the fresh
  /// boxes from 0 in insertion order.
  DyadicBox Box(size_t id) const;

  /// Looks for a stored box that contains `b`. On a hit, copies that
  /// box's dims() components and its provenance bit from the component
  /// pool into `*out` (which must be a dims()-dimensional box; `out` may
  /// alias `b`) and returns true. A miss returns false and leaves `*out`
  /// untouched. Prefers coarser (shorter-prefix) boxes, which tend to
  /// cover more of the target's siblings on backtracking.
  bool FindContaining(const DyadicBox& b, DyadicBox* out) const;

  /// FindContaining(b, out) through `cursor`: the same result, walking
  /// only levels `level`..dims()-1 from the cursor's level-`level` roots.
  /// `b` is the box the cursor follows (its components 0..level-1 were
  /// last set through cursor->Write, or the cursor was reset since), and
  /// `level` is in [0, dims()), or 0 when dims() is 0. Adds the trie
  /// nodes entered, the cursor's descent included, to `*nodes_visited`.
  bool FindContaining(const DyadicBox& b, int level, Cursor* cursor,
                      DyadicBox* out, int64_t* nodes_visited) const;

  /// Appends every stored box that contains `b` to `out`.
  void CollectContaining(const DyadicBox& b,
                         std::vector<DyadicBox>* out) const;

  /// True iff an identical box is stored.
  bool ContainsExact(const DyadicBox& b) const;

  /// Number of stored boxes.
  size_t size() const { return count_; }

  int dims() const { return dims_; }

  /// All stored boxes, in insertion-independent tree order.
  std::vector<DyadicBox> AllBoxes() const;

  /// Approximate memory footprint in bytes (for the memory experiments).
  size_t MemoryBytes() const;

 private:
  /// One arena node, 24 bytes. The accumulated prefix of a node is the
  /// concatenation of edge labels on its path from the level root; only
  /// explicit nodes can terminate a stored box's component, so lookups
  /// never stop mid-edge. `down` is the root of the (level+1) trie on
  /// every level but the last, where it is the stored-box id instead —
  /// a node never needs both. A 0-dimension store walks no level: its
  /// root has no children and its `down` is the one box's id, so the
  /// walks treat level 0 as the last level (`level + 1 >= dims_`).
  struct Node {
    uint64_t edge_bits = 0;       ///< label of the edge entering this node
    int32_t child[2] = {-1, -1};  ///< by first bit after this node's prefix
    int32_t down = -1;   ///< next-level trie root / stored-box id, or -1
    uint8_t edge_len = 0;  ///< label length in bits (0 only at roots)
  };

  int32_t NewNode(uint64_t edge_bits, int edge_len);
  /// Copies stored box `id`'s components and provenance bit from the
  /// component pool into `*out`, a dims_-dimensional box.
  void CopyBox(int32_t id, DyadicBox* out) const;
  /// Walks (adding what is missing) components level..dims_-1 of `c`
  /// from `node`, the level-`level` root their path enters, and returns
  /// the node that ends the last one. Sets roots[j] to the level-j root
  /// it enters, for each j > level. The caller has reserved room for
  /// every node the walk may append.
  int32_t Descend(int32_t node, int level, const DyadicInterval* c,
                  int32_t* roots);
  // Calls `visit(nd)` on each node of the prefix path of `iv` from
  // `node` (its level's trie), coarser first, counting each in
  // `*visited`, until `visit` returns true; returns whether it did.
  template <typename Visit>
  bool WalkPath(int32_t node, const DyadicInterval& iv, int64_t* visited,
                Visit&& visit) const;
  // Walks b's component `level` from `node`, recursing into deeper levels;
  // returns the stored-box id of a containing box or -1. Adds every node
  // it enters to `*visited`.
  int32_t FindRec(int32_t node, const DyadicBox& b, int level,
                  int64_t* visited) const;
  void CollectRec(int32_t node, const DyadicBox& b, int level,
                  std::vector<DyadicBox>* out) const;
  void AllRec(int32_t node, int level, std::vector<DyadicBox>* out) const;

  int dims_;
  size_t count_ = 0;
  std::vector<Node> nodes_;
  /// Stored boxes, dims_ components per box, addressed by stored-box id.
  std::vector<DyadicInterval> pool_;
  /// Per stored box: the provenance (output_derived) bit.
  std::vector<uint8_t> flags_;
  int32_t root_;
};

}  // namespace tetris

#endif  // TETRIS_KB_DYADIC_TREE_STORE_H_

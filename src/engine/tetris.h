// The Tetris algorithm (paper, Section 4.2, Algorithms 1 and 2).
//
// TetrisSkeleton solves the box cover problem against the global
// knowledge base A: it finds a witness box (covered by boxes of A) that
// contains the target, settling on the way every point of the target
// that A leaves uncovered (see below). On backtracking it combines the
// two half-witnesses by *ordered geometric resolution* and (optionally)
// caches the resolvent back into A — the caching toggle is exactly the
// Ordered vs Tree-Ordered resolution distinction of Figure 2. Only a
// resolvent that reaches beyond its node box is cached: one equal to the
// node box could answer only lookups inside that node, which the search
// never enters again (one pass, below).
//
// The skeleton builds no box per node apart from one slot for the
// second child's witness on backtracking. It splits one working box in
// place (sets the split component to a child, recurses, restores it) and
// returns only covered-or-aborted; the witness is written into a slot the
// caller passes: the KB lookup copies a covering box's components into
// it, the first child writes into its parent's slot, and the resolvent
// is written over the first witness in place. Only a second witness
// that settles the node by itself is copied up (see Skeleton below).
//
// The KB lookup goes through a cursor (DyadicTreeStore::Cursor). Every
// node box is <unit, ..., unit, partial, λ, ..., λ>, and its unit
// components before the split dimension stay fixed across its subtree.
// The cursor keeps the trie walk over them: per dimension j, the level-j
// trie roots reached through components 0..j-1. A lookup at the split
// dimension k (the last dimension, for a point) walks only levels k..n-1
// and finds the box a walk from the root would. The skeleton writes the
// split component through the cursor, on the child write and on the
// restore, which cuts it back to level k; a lookup rebuilds it when A's
// size() has changed since it was built; and Run resets it. Debug builds
// check every lookup against the root walk (FindContaining).
//
// A run is one skeleton call on <λ,...,λ> (TetrisSkeleton2: paper,
// proof of Theorem D.2 and footnote 13). Every point A leaves uncovered
// is settled where the descent reaches it, against the input oracle B:
// either some gap boxes of B are loaded into A (Tetris-Reloaded's lazy
// loading), or the point is reported as an output tuple and its unit box
// becomes the witness. The depth-first search enters each node once, so
// that box is never looked up again and is not inserted into A.
//
// Initialization policies (paper, Sections 4.3 / 4.4):
//   * kPreloaded: A := B            (worst-case bounds: AGM, fhtw)
//   * kReloaded:  A := ∅            (certificate bounds: O~(|C|^w+1 + Z))
//
// Gap boxes of B are never stored outside A. The preload stages each box
// in A as the oracle's enumeration emits it (BoxOracle's sink contract),
// and A then inserts the staged boxes in one bulk pass
// (DyadicTreeStore::InsertStaged): its node arena is allocated once,
// sized from the staged boxes, and each box's walk resumes where it
// leaves the previous one, which an atom's gaps in index order make
// cheap. It builds the same trie as single inserts in the same order,
// so the fresh boxes, A's lookups and every counter are the same;
// kb_inserts, boxes_loaded and the proof log's axioms count the fresh
// boxes in the oracle's order. A reloaded probe loads each box that
// contains the point as the oracle emits it, one Insert at a time. Both
// permute the box into SAO order on the way in, through one engine-order
// box reused for every gap of the call, so A sees the oracle's boxes in
// the oracle's order, and the engine allocates (or zero-fills) nothing
// per gap box beyond A's own arrays.
#ifndef TETRIS_ENGINE_TETRIS_H_
#define TETRIS_ENGINE_TETRIS_H_

#include <functional>
#include <vector>

#include "engine/split_space.h"
#include "kb/box_oracle.h"
#include "kb/dyadic_tree_store.h"

namespace tetris {

/// Run-time counters; the paper's cost measure is `resolutions`
/// (Lemma 4.5: total time is O~(#resolutions)).
struct TetrisStats {
  int64_t resolutions = 0;         ///< total geometric resolutions
  int64_t gap_resolutions = 0;     ///< inputs untainted by output boxes (C.3)
  int64_t output_resolutions = 0;  ///< at least one output-derived input (C.4)
  int64_t kb_inserts = 0;          ///< boxes added to A: loads, plus the
                                   ///< resolvents larger than their node
  int64_t boxes_loaded = 0;        ///< gap boxes pulled from B into A (not
                                   ///< counted when A already holds the box)
  int64_t skeleton_nodes = 0;      ///< recursion tree nodes visited
  int64_t kb_nodes_visited = 0;    ///< trie nodes the skeleton's KB
                                   ///< lookups visited
  int64_t outputs = 0;             ///< output tuples reported
  int64_t restarts = 0;            ///< partition rebuilds (Tetris-LB only)
  int64_t kb_peak_bytes = 0;       ///< largest knowledge-base A footprint

  void Accumulate(const TetrisStats& o) {
    resolutions += o.resolutions;
    gap_resolutions += o.gap_resolutions;
    output_resolutions += o.output_resolutions;
    kb_inserts += o.kb_inserts;
    boxes_loaded += o.boxes_loaded;
    skeleton_nodes += o.skeleton_nodes;
    kb_nodes_visited += o.kb_nodes_visited;
    outputs += o.outputs;
    restarts += o.restarts;
    // A is rebuilt per restart: the peak is the largest single engine's.
    if (o.kb_peak_bytes > kb_peak_bytes) kb_peak_bytes = o.kb_peak_bytes;
  }
};

/// Engine configuration.
struct TetrisOptions {
  enum class Init { kPreloaded, kReloaded };
  Init init = Init::kReloaded;

  /// When false, resolvents are *not* cached in A: the engine performs
  /// Tree-Ordered Geometric Resolution (paper, Section 5.1). When true,
  /// every resolvent larger than its node box is cached (Ordered
  /// Geometric Resolution); a resolvent equal to its node box never is.
  bool cache_resolvents = true;

  /// Splitting attribute order: engine dimension j is original dimension
  /// sao[j]. Empty = identity.
  std::vector<int> sao;

  /// Abort the run once more than this many boxes were loaded from B
  /// (negative = unlimited). Used by the online Tetris-LB to trigger a
  /// partition rebuild (paper, Section F.6: "periodically re-adjusting
  /// the partitions").
  int64_t load_budget = -1;

  /// When set, the engine records its axioms (loaded gap boxes), output
  /// boxes and every resolution step into the log — a machine-checkable
  /// geometric-resolution proof of the run (see engine/proof_log.h).
  /// Boxes are logged in engine (SAO) coordinate order.
  class ProofLog* proof_log = nullptr;
};

/// Outcome of a Tetris run.
enum class RunStatus {
  kCompleted,       ///< output space fully covered; all tuples emitted
  kStoppedBySink,   ///< sink requested early stop
  kBudgetExceeded,  ///< load_budget exhausted (Tetris-LB rebuild signal)
};

/// Output callback. Receives the output point in *original* dimension
/// order. Return false to stop enumeration early (Boolean BCP).
using OutputSink = std::function<bool(const DyadicBox&)>;

/// One run of Tetris over a BCP instance.
class Tetris {
 public:
  /// `oracle` supplies the input gap boxes B (in original dimension
  /// order); `space` defines splittability in *engine* (SAO-permuted)
  /// dimension order. Both must outlive the engine.
  Tetris(const BoxOracle* oracle, const SplitSpace* space,
         TetrisOptions options);

  /// Runs the full algorithm; calls `sink` for each output tuple.
  RunStatus Run(const OutputSink& sink);

  const TetrisStats& stats() const { return stats_; }

  /// Size of the knowledge base A (boxes).
  size_t kb_size() const { return kb_.size(); }

  /// Approximate memory footprint of A in bytes.
  size_t kb_memory_bytes() const { return kb_.MemoryBytes(); }

 private:
  // Algorithm 1 on the working box `*b`, which it splits in place and
  // returns unchanged. Writes into the caller's slot `*w` (a box of the
  // space's dimension, never `b`) a witness box containing `*b`, and
  // returns true. Every uncovered point is settled on the way down, so it
  // returns false only on an abort (sink stop or load budget), after
  // which `*w` is unspecified and `status_` names the abort.
  bool Skeleton(DyadicBox* b, DyadicBox* w);
  // The skeleton's unit-box case: the point `b` (engine order) is not
  // covered by A. Probes B (reloaded mode; preloaded A already holds B),
  // then either loads the gap boxes that contain `b` and writes one of
  // them into `*w`, or reports `b` as an output and writes it into `*w`
  // as an output-derived witness. Returns false only on an abort.
  bool SettleUnitBox(const DyadicBox& b, DyadicBox* w);
  // The reloaded probe: loads every gap box of B containing the point
  // `b` (engine order) into A as the oracle emits it, writes the last one
  // that contains `b` into `*w`, and returns true; returns false iff B
  // has none (`b` is an output). Kept out of line so that SettleUnitBox's
  // output path stays small.
  [[gnu::noinline]] bool LoadProbeGaps(const DyadicBox& b, DyadicBox* w);
  // Permutes the gap box `gap` of B (original order) into `*eng`, a box
  // of the space's dimension that the caller reuses for every gap.
  void ToEngineOrder(const DyadicBox& gap, DyadicBox* eng) const;
  // ToEngineOrder, then inserts `*eng` into A as an axiom.
  void LoadGap(const DyadicBox& gap, DyadicBox* eng);

  DyadicBox ToOriginalOrder(const DyadicBox& engine) const;
  bool InsertKb(const DyadicBox& engine_box);

  const BoxOracle* oracle_;
  const SplitSpace* space_;
  TetrisOptions options_;
  std::vector<int> sao_;  // engine dim -> original dim
  DyadicTreeStore kb_;
  // The skeleton's lookup cursor over kb_, following the working box.
  DyadicTreeStore::Cursor cursor_;
  TetrisStats stats_;
  const OutputSink* sink_ = nullptr;
  RunStatus status_ = RunStatus::kCompleted;
};

/// Convenience: solves the Boolean BCP (Definition 3.5) — is the whole
/// space covered by the oracle's boxes? Stops at the first uncovered
/// point. Stats (if requested) describe the partial run.
bool IsFullyCovered(const BoxOracle& oracle, const SplitSpace& space,
                    TetrisOptions options, TetrisStats* stats = nullptr);

}  // namespace tetris

#endif  // TETRIS_ENGINE_TETRIS_H_

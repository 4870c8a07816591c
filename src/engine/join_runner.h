// Join evaluation through the box cover problem (paper, Proposition 3.6):
// on input B(Q) — the union of the relations' index gap boxes embedded
// into the output space — the BCP output *is* the join output.
//
// RelationOracle is the live view: probing a candidate tuple projects it
// onto every atom and asks that atom's index for the gaps around it; an
// all-indices miss certifies an output tuple. Tetris-Preloaded instead
// enumerates all gaps up front (AllGaps). Either way each gap streams
// from the index through the oracle's embedding into the engine's sink.
#ifndef TETRIS_ENGINE_JOIN_RUNNER_H_
#define TETRIS_ENGINE_JOIN_RUNNER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "engine/balance.h"
#include "engine/tetris.h"
#include "index/index.h"
#include "query/join_query.h"

namespace tetris {

/// Oracle over the gap boxes of a query's indexed relations. Every call
/// emits atom by atom, in query atom order, each atom's gaps in its
/// index's order, embedded into the query space through one reused box.
/// An atom that repeats an attribute embeds a gap as the intersection of
/// that attribute's columns, and drops a gap whose columns there are
/// disjoint (it holds no point where the columns agree).
class RelationOracle : public BoxOracle {
 public:
  /// `indexes[i]` indexes `query.atoms()[i].rel` (arity must match).
  /// All pointers must outlive the oracle.
  RelationOracle(const JoinQuery* query,
                 std::vector<const Index*> indexes, int depth);

  int dims() const override { return query_->num_attrs(); }

  void Probe(const DyadicBox& point, BoxSink sink) const override;

  bool EnumerateAll(BoxSink sink) const override;

  /// Gap boxes emitted by EnumerateAll so far: |B(Q)| after the one
  /// preload of a preloaded run, counted as it streams by.
  size_t enumerated_boxes() const {
    return enumerated_.load(std::memory_order_relaxed);
  }

 private:
  // Calls `emit(i, embed)` for each atom i in order, where `embed` is a
  // sink that writes an atom-local gap of atom i into one reused
  // query-space box (λ on the other attributes) and passes it to `sink`.
  // Returns the number of boxes passed on.
  template <typename Emit>
  size_t EmbedEach(BoxSink sink, Emit&& emit) const;

  const JoinQuery* query_;
  std::vector<const Index*> indexes_;
  int d_;
  mutable std::atomic<size_t> enumerated_{0};
};

/// The one error every Tetris-family entry point (plain, sharded,
/// batched, patched and served runs) returns when its effective depth
/// (the requested one, else JoinQuery::MinDepth) is above kMaxDepth:
/// dyadic arithmetic is undefined past that many bits. The shard planner
/// does not split such a grid, so a baseline run there plans no split and
/// still answers.
inline constexpr char kGridTooDeepError[] =
    "depth: above kMaxDepth = 62, the deepest dyadic grid (every value "
    "must be below 2^62)";

/// The one error every entry point returns when a query needs more
/// dimensions than a DyadicBox holds (kMaxDims = 16): more than 16
/// attributes or an atom of more than 16 columns (an atom may repeat an
/// attribute) on the Tetris family, more than 16 lifted dimensions
/// (2n-2 for n attributes) on the Balance-lifted variants, and more than
/// 16 attributes on any engine whose path plans shard boxes (sharded,
/// batched, patched and served runs). A baseline builds no box per atom,
/// and a plain unsharded one none at all, so those still answer.
inline constexpr char kQueryTooWideError[] =
    "query: more dimensions than a dyadic box holds (at most 16 "
    "attributes and 16 columns per atom, 9 attributes on the "
    "Balance-lifted variants, which lift n attributes to 2n-2 "
    "dimensions)";

/// Which engine configuration evaluates the join.
enum class JoinAlgorithm {
  kTetrisPreloaded,         ///< A := B(Q) (worst-case bounds, §4.3)
  kTetrisReloaded,          ///< A := ∅, lazy loading (certificate bounds, §4.4)
  kTetrisPreloadedNoCache,  ///< tree-ordered resolution (Thm 5.1)
  kTetrisPreloadedLB,       ///< Balance lift, offline (§4.5, Alg 3)
  kTetrisReloadedLB,        ///< Balance lift, online (§F.6)
};

/// Result of a join evaluation.
struct JoinRunResult {
  std::vector<Tuple> tuples;
  TetrisStats stats;
  int64_t oracle_probes = 0;
  size_t input_gap_boxes = 0;  ///< |B(Q)| (preloaded variants only)
  size_t index_bytes = 0;      ///< resident bytes of the per-atom indexes
};

/// True for the Balance-lifted variants, whose lift defines its own SAO:
/// they take no SAO hint, and DefaultSao gives them none.
bool ChoosesOwnSao(JoinAlgorithm algo);

/// True iff `order` is a permutation of [0, n) — the shape every SAO /
/// GAO hint must have.
bool IsPermutation(const std::vector<int>& order, int n);

/// The SAO Tetris runs `query` under when the caller gives none: reverse
/// GYO elimination for the preloaded variants (min-width elimination
/// when the query is cyclic), min-width elimination for reloaded, and
/// empty for the variants that choose their own SAO. Every unhinted
/// Tetris entry point resolves its SAO here once and lays out every
/// index it builds or fetches for the result (SaoConsistentColumns).
std::vector<int> DefaultSao(const JoinQuery& query, JoinAlgorithm algo);

/// Evaluates `query` with Tetris. `indexes[i]` serves atom i; `sao` is an
/// attribute-id permutation (empty = DefaultSao(query, algo)); `depth`
/// is at most kMaxDepth (the facade rejects deeper grids). The
/// worst-case and certificate bounds assume every index's column order
/// agrees with the SAO (MakeSaoConsistentIndexes).
JoinRunResult RunTetrisJoin(const JoinQuery& query,
                            const std::vector<const Index*>& indexes,
                            int depth, JoinAlgorithm algo,
                            std::vector<int> sao = {});

/// Owns one SortedIndex per atom, laid out for DefaultSao(query, algo)
/// (relation column order for the Balance-lifted variants), and runs
/// the join under that SAO — the "it just works" entry point the join
/// runner and engine tests use. The query's MinDepth must be at most
/// kMaxDepth.
JoinRunResult RunTetrisJoinDefaultIndexes(const JoinQuery& query,
                                          JoinAlgorithm algo);

/// The column order atom `a`'s index needs under `sao`: the atom's
/// columns sorted by SAO position (the σ-consistency precondition of
/// Theorems D.2 / D.8 / 4.6). An empty `sao` keeps relation column order.
std::vector<int> SaoConsistentColumns(const Atom& a,
                                      const std::vector<int>& sao);

/// Builds one SortedIndex per atom with SaoConsistentColumns(atom, sao).
std::vector<std::unique_ptr<Index>> MakeSaoConsistentIndexes(
    const JoinQuery& query, const std::vector<int>& sao, int depth);

/// Non-owning view of an index vector.
std::vector<const Index*> IndexPtrs(
    const std::vector<std::unique_ptr<Index>>& owned);

}  // namespace tetris

#endif  // TETRIS_ENGINE_JOIN_RUNNER_H_

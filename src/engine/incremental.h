// Delta-driven incremental join maintenance over the dyadic grid.
//
// KhamisNRR15's geometric decomposition localizes the effect of a
// relation delta exactly: a changed tuple t of relation R can only
// create or destroy output points p whose projection onto R's attribute
// binding equals t — i.e. points inside the dyadic box with Unit(t[c])
// at every dimension the atom binds and λ elsewhere. Everything outside
// the union of those "touched" boxes is provably unchanged:
//
//   * an ADDED tuple can only create output points it participates in,
//     all of which lie in its touched box;
//   * a REMOVED tuple can only destroy output points whose R-projection
//     was that tuple — again all inside its touched box.
//
// A patch is a one-query run of the shard pipeline (engine/batch_runner.h)
// with a touched-box filter (ShardQuery::touched): plan the output space
// into disjoint subcubes (engine/shard_planner.h) and re-run ONLY the
// shards whose box intersects a touched box. A met shard re-runs
// only the hull of its touched boxes: the smallest dyadic box holding
// every touched box that meets the shard, clipped to it (per dimension,
// the longest common prefix of the clipped intervals). The Tetris
// family runs that hull through zero-copy IndexViews — Tetris
// restricted to a box is Tetris over views clipped to it — so a 1-row
// delta runs on one line of the output space even when the plan is a
// single shard. The baselines re-run the whole met shard. The hull never
// exceeds the shard, so a patch never re-runs more of the output space
// than the met shards.
//
// SplicePatch then splices the fresh outputs into the previous result:
// old tuples inside a re-run box are dropped (the re-run recomputes that
// box exactly), old tuples outside every re-run box are kept, and the
// two sorted, disjoint sides are merged. The splice is correct for
// inserts AND deletes, including delete-everything: every destroyed
// output point lies in a touched box, so its re-run box is recomputed
// without it. PatchJoin is the engine-level entry point; the service's
// patched reads (server/join_service.h) run the same pipeline call over
// the registry's index cache and splice through the same function.
//
// The correctness oracle is cheap and the tests lean on it hard
// (tests/incremental_oracle.h): recompute from scratch and compare
// tuples, the same pattern as the sharded == unsharded suites.
#ifndef TETRIS_ENGINE_INCREMENTAL_H_
#define TETRIS_ENGINE_INCREMENTAL_H_

#include <string>
#include <vector>

#include "engine/join_engine.h"
#include "geometry/dyadic_box.h"
#include "query/join_query.h"
#include "relation/relation.h"

namespace tetris {

/// How one changed tuple touches the output space through one atom.
enum class TupleTouch {
  kNone,        ///< repeated query variables disagree — touches nothing
  kBox,         ///< the unit-projection box written to *out
  kEverything,  ///< a value outside the depth-`depth` grid — the delta
                ///< changes the servable world; treat conservatively
};

/// The touched output box of tuple `t` through an atom binding relation
/// columns to query attributes `var_ids` (Atom::var_ids semantics), in
/// a `num_attrs`-dimensional depth-`depth` output space. kBox writes
/// the box (unit intervals at bound dimensions, λ elsewhere) to *out.
TupleTouch TouchedBoxOfTuple(const std::vector<int>& var_ids, int num_attrs,
                             int depth, const Tuple& t, DyadicBox* out);

/// The deduplicated touched output boxes of a delta to relation
/// `rel_name`: one box per (atom over rel_name, changed tuple), with
/// kNone contributions skipped. Any kEverything contribution collapses
/// the result to the single universal box. `changed` is the effective
/// delta — added and removed tuples alike (both localize identically).
std::vector<DyadicBox> TouchedOutputBoxes(const JoinQuery& query, int depth,
                                          const std::string& rel_name,
                                          const std::vector<Tuple>& changed);

/// Outcome of one patch run.
struct PatchResult {
  /// The patched join result; `ok == false` carries the engine error
  /// (same contract as RunJoin). Tuples are sorted and deduplicated.
  EngineResult result;
  size_t shards_total = 0;  ///< shards in the plan
  /// Shards intersecting a touched box. Each re-runs only its re-run
  /// box: the hull of its touched boxes for the Tetris family, the
  /// whole shard for the baselines.
  size_t shards_rerun = 0;
  size_t tuples_kept = 0;     ///< old tuples outside every re-run box
  size_t tuples_patched = 0;  ///< fresh tuples from the re-run boxes
  /// True when a touched box covers the whole output space: the run
  /// re-ran every shard, unfiltered, and nothing was spliced.
  bool full_recompute = false;
};

/// Splices one patch run into the old result. `fresh` is the ok result
/// RunShardPipeline returned for a query run with ShardQuery::touched,
/// and `rerun` that query's ShardPipelineResult::rerun_boxes; `old_tuples`
/// is the canonical result before the delta and `depth` the run's grid
/// depth. Keeps the old tuples outside every re-run box, merges the fresh
/// ones in, and fills every PatchResult field but full_recompute.
PatchResult SplicePatch(EngineResult fresh,
                        const std::vector<DyadicBox>& rerun,
                        const std::vector<Tuple>& old_tuples, int depth);

/// Patches `old_tuples` — the join of `query`'s relations BEFORE the
/// delta — into the join of `query`'s (current) relations, re-running
/// only the shards whose subcube intersects a touched box, each over
/// its re-run box (PatchResult::shards_rerun). `old_tuples` must be
/// canonical (sorted, deduplicated), as every EngineResult is. `query`
/// must be built over the post-delta relation versions; `touched` comes
/// from TouchedOutputBoxes over every delta since `old_tuples` was
/// computed. An empty `touched` returns `old_tuples` unchanged without
/// planning; otherwise the patch is ONE RunShardPipeline call, like a
/// served patched read, and a failed run fails the patch. A touched box
/// covering the whole output space sets full_recompute: the call runs
/// unfiltered, its result (with the pipeline's shard fields) is the
/// answer, and every shard of its plan counts as re-run.
/// The options pass the check a sharded RunJoin's pass
/// (ValidateEngineOptions), so a patch fails with the same error; the
/// shard count plans as in RunBatch (0 or 1 = one shard, kAutoShards =
/// sized from the thread cap), and the memory budget calibrates the
/// cost model as in every budgeted run. Never throws.
PatchResult PatchJoin(const JoinQuery& query, EngineKind kind,
                      const EngineOptions& options,
                      const std::vector<Tuple>& old_tuples,
                      const std::vector<DyadicBox>& touched);

}  // namespace tetris

#endif  // TETRIS_ENGINE_INCREMENTAL_H_

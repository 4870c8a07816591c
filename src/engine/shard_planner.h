// Dyadic-prefix shard planning: splits a join query's output space
// [2^d]^n into 2^k disjoint subcubes and restricts every atom to its
// subcube.
//
// The paper's box decomposition gives the sharding key for free: the
// root-level Split-First-Thick-Dimension step of Tetris partitions the
// output space into dyadic sibling halves, and any output tuple lies in
// exactly one of them. Repeating the split k times (round-robin over the
// thickest dimensions) yields 2^k congruent subcubes; restricting each
// atom's relation to the subcube's projection onto the atom's attributes
// preserves the join exactly:
//
//     Q(D) = ⊎_shards  Q(D restricted to the shard's box),
//
// because every query attribute occurs in at least one atom, so a tuple
// of the restricted join is confined to the subcube in every dimension.
// Shards are therefore independent — the parallel executor
// (engine/parallel_executor.h) runs them concurrently on any engine.
//
// The plan is *lazy*: it never copies tuples and stores no row ids. It
// counts each atom's rows by the shard-id bits their values pin, reading
// no row of an atom no split pins (a one-shard plan costs nothing), and
// a Shard is just a subcube plus bookkeeping. Consumers either restrict
// probes to the subcube directly (index/index_view.h — the zero-copy
// path the Tetris family uses) or materialize the shard's rows inside
// the worker task and drop the copy when it finishes (the baselines).
//
// The planner is memory-aware: given a budget, it increases k until the
// estimated resident footprint of every shard fits — scaling each
// shard's restricted payload through a per-engine-family cost model
// (engine/cost_model.h) when the executor supplies one — and clears
// ShardPlan::budget_ok, rather than hanging, when no split can satisfy
// the budget. A request it cannot honour reads off the plan itself: a
// clamped shard count in `shards.size()`, a grid too deep to split in
// `split_bits == 0`.
#ifndef TETRIS_ENGINE_SHARD_PLANNER_H_
#define TETRIS_ENGINE_SHARD_PLANNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/dyadic_box.h"
#include "query/join_query.h"
#include "relation/relation.h"

namespace tetris {

struct ShardCostModel;  // engine/cost_model.h

/// Planner knobs.
struct ShardPlanOptions {
  /// Requested shard count: >= 2 asks for that many (rounded up to the
  /// next power of two), 0 or 1 plans a single shard, -1 lets the
  /// planner choose (from `threads_hint` and the memory budget).
  int shards = 0;

  /// Auto mode plans at least one shard per thread.
  int threads_hint = 1;

  /// When nonzero, the planner keeps splitting until the estimated peak
  /// resident bytes of every shard fit the budget (or the split cap is
  /// reached, in which case `ShardPlan::budget_ok` is false).
  size_t memory_budget_bytes = 0;

  /// Dyadic depth of the value domain; 0 = query.MinDepth().
  int depth = 0;

  /// Maps a shard's restricted payload to its estimated peak resident
  /// bytes. nullptr = the uncalibrated payload proxy (slope 1). The
  /// executor calibrates one per run from a probe pass
  /// (engine/cost_model.h).
  const ShardCostModel* cost_model = nullptr;
};

/// One independent unit of work: a subcube of the output space plus
/// per-shard bookkeeping. Owns no tuples.
struct Shard {
  int id = 0;
  DyadicBox box;  ///< the subcube, over query attribute dimensions
  /// Restricted input payload: what a materialized copy would occupy
  /// (the cost model's input).
  size_t payload_bytes = 0;
  /// The cost model's peak estimate for this shard.
  size_t estimated_peak_bytes = 0;
  /// A split restricted some atom to ∅ — output is empty. Never set on
  /// an unsplit plan's one shard: it is the plain run.
  bool empty = false;
};

/// The planner's output. Resident footprint is the shards plus one row
/// offset per (atom, bucket) (`PlanningBytes`): no row ids.
struct ShardPlan {
  /// One atom's rows counted by the shard-id bits this atom pins: shard
  /// `id` owns bucket b = `id & id_mask`, rows [start[b], start[b + 1])
  /// of the atom's rows in key order.
  struct AtomCounts {
    int id_mask = 0;
    std::vector<size_t> start;  ///< id_mask + 2 offsets
  };

  std::vector<Shard> shards;  ///< 2^split_bits entries, ordered by id
  int split_bits = 0;         ///< k
  std::vector<int> split_dims;  ///< dimension split at each level
  int depth = 0;
  size_t max_estimated_peak_bytes = 0;
  /// False iff a memory budget was given and even the finest allowed
  /// split leaves some shard's estimate over it.
  bool budget_ok = true;
  std::vector<AtomCounts> counts;  ///< by atom

  /// How many rows of atom `atom` shard `shard_id` holds.
  size_t RowCount(int shard_id, size_t atom) const;

  /// Bytes the plan keeps resident: the shards and the row offsets.
  size_t PlanningBytes() const;
};

/// Plans the shard decomposition. Never fails: infeasible requests
/// degrade to the closest feasible plan (`budget_ok` false for a budget
/// no split meets).
ShardPlan PlanShards(const JoinQuery& query, const ShardPlanOptions& options);

/// An owning restricted copy of one shard's query — the lazy
/// materialization path: built inside the worker task, dropped when the
/// shard finishes. `query` is rebuilt over `storage` with the same
/// attribute ids as the original.
struct MaterializedShard {
  std::vector<std::unique_ptr<Relation>> storage;
  JoinQuery query;
};

/// A plan's row ids in key order, per atom a split pins (AtomCounts
/// gives each bucket's range): grouped once, 4 bytes a row, they let
/// every shard of the plan be materialized without a scan.
struct ShardRowGroups {
  std::vector<std::vector<uint32_t>> ids;  ///< by atom; empty if unpinned
  size_t bytes = 0;                        ///< resident size of `ids`
};
ShardRowGroups GroupShardRows(const JoinQuery& query, const ShardPlan& plan);

/// Materializes shard `shard_id` of `plan` against the original `query`:
/// each atom keeps the rows whose pinned bits select the shard, the key
/// the plan counts by, as a canonical copy taken from `groups` (grouped
/// here when nullptr).
MaterializedShard MaterializeShard(const JoinQuery& query,
                                   const ShardPlan& plan, int shard_id,
                                   const ShardRowGroups* groups = nullptr);

/// The planner's per-atom resident-footprint estimate: the payload of
/// `tuples` arity-`arity` tuples, mirroring SortedIndex::MemoryBytes.
/// A shard's payload is the SUM of this over its atoms (all per-atom
/// structures are resident at once during a run).
size_t EstimateAtomBytes(size_t tuples, int arity);

}  // namespace tetris

#endif  // TETRIS_ENGINE_SHARD_PLANNER_H_

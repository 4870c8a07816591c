// Shared SortedIndex cache keyed by (relation, layout).
//
// The shard pipeline (RunShardPipeline, engine/batch_runner.h) lays
// each atom's base index out for its query's SAO — the caller's hint,
// else DefaultSao (engine/join_runner.h) — so one relation can need
// several column orders, one per distinct SAO-consistent layout among
// the queries that read it. IndexCache keys built indexes by (relation
// identity, column order, dyadic depth) so every (query, atom) wanting
// the same layout shares one build — within one run through a run-local
// cache, and across calls when a long-lived owner (the server's
// RelationRegistry, src/server/relation_registry.h) holds the cache for
// the lifetime of its registered relations and passes it as
// BatchOptions::index_cache.
//
// Row-level mutations don't evict: Promote carries a retired version's
// entries to the new version with the effective delta folded into each
// index's overlay (SortedIndex::Promote) — a 1-row append costs
// O(log n) per cached layout instead of a rebuild, and the promoted
// index pins the retired version's buffer alive via shared_ptr. Every
// write promotes every layout cached for the relation.
//
// Lifetime contract: entries are keyed by Relation address, so every
// relation passed to Get must stay alive until its entries are removed
// with EvictRelation (or the cache is destroyed). Batch-local caches
// satisfy this trivially; the RelationRegistry promotes or evicts a
// version's entries whenever a mutation retires it, and re-evicts after
// in-flight queries that may have re-inserted stale entries finish
// (src/server/join_service.cc), so a recycled heap address can never
// resurrect another relation's index.
#ifndef TETRIS_ENGINE_INDEX_CACHE_H_
#define TETRIS_ENGINE_INDEX_CACHE_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "index/sorted_index.h"
#include "query/join_query.h"
#include "relation/relation.h"

namespace tetris {

/// Everything that distinguishes one SortedIndex over a relation from
/// another: the trie column order and the dyadic depth.
struct IndexLayout {
  /// `columns[level]` = relation column compared at trie level `level`;
  /// empty = relation column order, the one key for every SAO that
  /// agrees with it (LayoutFor normalizes such orders to empty).
  std::vector<int> columns;
  int depth = 0;

  bool operator<(const IndexLayout& o) const {
    if (depth != o.depth) return depth < o.depth;
    return columns < o.columns;
  }
};

/// The layout `atom`'s index needs under `sao` at `depth`:
/// SaoConsistentColumns (engine/join_runner.h), normalized to the empty
/// layout when that comes out as the relation's own column order — so
/// every SAO that agrees with relation order shares one entry. The shard
/// pipeline's step (a) fetches every base index under it.
IndexLayout LayoutFor(const Atom& atom, const std::vector<int>& sao,
                      int depth);

/// Thread-safe build-once cache of SortedIndexes keyed by
/// (relation, layout). Concurrent Gets for the same key may race to
/// build, but exactly one build wins and is shared; losers are dropped.
class IndexCache {
 public:
  IndexCache() = default;
  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// The shared index for `rel` in `layout`, built on first use.
  /// `rel` must outlive the entry (see the lifetime contract above).
  /// When `built` is non-null it reports whether THIS call performed
  /// the build that landed in the cache — callers sharing a long-lived
  /// cache use it to attribute builds/hits to themselves without racing
  /// on the global counters.
  std::shared_ptr<const SortedIndex> Get(const Relation* rel,
                                         const IndexLayout& layout,
                                         bool* built = nullptr);

  /// Removes every entry of `rel` (all layouts). Call before the
  /// relation dies. Returns the number of entries removed.
  size_t EvictRelation(const Relation* rel);

  /// Carries every cached entry of `old_version` across a registry
  /// epoch: each index is re-keyed under `new_rel` with the effective
  /// delta (`added`/`removed`) folded into its overlay via
  /// SortedIndex::Promote — no rebuild, the promoted index pins
  /// `old_version` alive. Entries whose overlay crossed the compaction
  /// threshold are rebuilt over `new_rel` instead (counted in
  /// compactions(), not builds()). Returns the number of entries
  /// carried. Call BEFORE the new version becomes visible to readers so
  /// no concurrent Get can race a fresh build for `new_rel`.
  size_t Promote(const std::shared_ptr<const Relation>& old_version,
                 const Relation* new_rel, const std::vector<Tuple>& added,
                 const std::vector<Tuple>& removed);

  /// Drops everything.
  void Clear();

  size_t entries() const;
  /// Indexes actually built (cache misses) / served from cache (hits)
  /// since construction.
  size_t builds() const;
  size_t hits() const;
  /// Entries carried across an epoch by Promote (overlay or compacted)
  /// / the subset that compacted into a fresh base permutation.
  size_t promotes() const;
  size_t compactions() const;
  /// Summed MemoryBytes() of the resident entries.
  size_t MemoryBytes() const;

 private:
  using Key = std::pair<const Relation*, IndexLayout>;

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const SortedIndex>> entries_;
  size_t builds_ = 0;
  size_t hits_ = 0;
  size_t promotes_ = 0;
  size_t compactions_ = 0;
  size_t bytes_ = 0;
};

}  // namespace tetris

#endif  // TETRIS_ENGINE_INDEX_CACHE_H_

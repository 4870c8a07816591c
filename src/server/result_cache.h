// LRU result cache keyed by output-space signature, whose entries record
// the row writes they have seen.
//
// KhamisNRR15's geometric decomposition makes result reuse unusually
// precise: two queries with the same output-space signature (engine,
// grid depth, attribute count, per-atom relation + binding — what shard
// planning depends on too) over the same relation *versions* compute
// the same tuple set, so the service can answer the second one without
// touching the engine at all. The cache keeps ONE entry per signature —
// per query shape — holding its result, the relation epochs it is
// stamped at (server/relation_registry.h), and the touched boxes
// (engine/incremental.h) of the row writes since the result was
// computed.
//
// InvalidateDelta applies one effective row delta to the entries
// stamped at its `from_epoch` for the written relation:
//
//   * DISJOINT — no changed tuple projects onto the entry's output
//     space (an effectively empty delta, or every changed tuple
//     disagrees on a repeated query variable): the entry is restamped
//     to `to_epoch` unchanged, and a servable entry SURVIVES (counted
//     in `survivals`);
//   * INTERSECTING — the delta's touched boxes are appended and the
//     entry is restamped: it awaits a patch, and a servable entry that
//     gains boxes counts in `invalidations`. A touched box covering the
//     whole output space (an off-grid value, a write to a 0-ary
//     relation) drops the entry instead.
//
// An entry stamped before `from_epoch` missed a write (a result Put by
// a reader whose snapshot predates a concurrent write or Replace) and
// is dropped; one stamped later already reflects the delta and is left
// alone. So an entry's stamp and boxes always name its result plus
// exactly the writes it has not absorbed, and Lookup at a snapshot's
// epochs is a HIT (equal stamp, no boxes), a PATCH (equal stamp, the
// boxes to re-run — server/join_service.cc) or a MISS (any other stamp).
//
// Results are shared_ptr<const EngineResult>, handed out without
// copying the tuple payload; eviction while a client still holds one is
// safe. Capacity 0 disables the cache (every Lookup misses, Put drops).
// Entries awaiting a patch share the byte capacity and the LRU order
// with servable ones, and their touched boxes count toward their bytes.
#ifndef TETRIS_SERVER_RESULT_CACHE_H_
#define TETRIS_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/join_engine.h"
#include "geometry/dyadic_box.h"
#include "server/relation_registry.h"

namespace tetris {

/// Everything a cached result's identity and touched-box test depend
/// on: the engine, the output-space geometry (depth, attribute count,
/// per-atom relation name + attribute binding), and the version epoch
/// of every referenced relation. The service builds one per query.
struct CacheEntryMeta {
  struct AtomRef {
    std::string name;          ///< registered relation name
    std::vector<int> var_ids;  ///< Atom::var_ids binding
  };
  std::string engine;  ///< EngineKindName of the engine that computed it
  int depth = 0;
  int num_attrs = 0;
  std::vector<AtomRef> atoms;
  std::map<std::string, uint64_t> epochs;  ///< name -> version epoch
};

/// What Lookup found for one query shape at one snapshot.
struct CacheLookup {
  /// The cached result; nullptr on a miss.
  std::shared_ptr<const EngineResult> result;
  /// The touched boxes of the writes since `result` was computed: empty
  /// on a hit, the output region a patch re-runs otherwise.
  std::vector<DyadicBox> touched;
};

/// Thread-safe byte-capped LRU cache of whole EngineResults.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The entry for meta's shape if it is stamped at exactly meta.epochs,
  /// else a miss. A found entry moves to the LRU front; it counts in
  /// hits() when it has no touched boxes, in misses() (a patched read)
  /// otherwise.
  CacheLookup Lookup(const CacheEntryMeta& meta);

  /// Makes `result` the entry for meta's shape, stamped at meta.epochs
  /// with no touched boxes, replacing any entry the shape had. Oversized
  /// results (> capacity) are not cached; otherwise least-recently-used
  /// entries are evicted until the result fits.
  void Put(CacheEntryMeta meta, std::shared_ptr<const EngineResult> result);

  /// Applies the effective row delta `delta` to every entry stamped at
  /// delta.from_epoch for delta.name, by the rules in the header
  /// comment; entries not naming the relation are untouched. Returns
  /// the number of servable entries it invalidated.
  size_t InvalidateDelta(const RelationDelta& delta);

  /// Frees every entry whose query names `name` — the hammer for writes
  /// that carry no row delta (Register / Replace / Drop). Returns the
  /// number of entries freed; only servable ones count in
  /// invalidations().
  size_t InvalidateRelation(const std::string& name);

  void Clear();

  /// The resident-byte estimate charged per result: the tuples
  /// (TupleBytes), each ShardRunInfo with its box string, and per-entry
  /// bookkeeping overhead. An entry adds sizeof(DyadicBox) per touched
  /// box.
  static size_t EstimateBytes(const EngineResult& result);

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t entries() const;      ///< servable entries (no touched boxes)
  size_t patch_bases() const;  ///< entries awaiting a patch
  size_t bytes() const;        ///< every entry, touched boxes included
  size_t hits() const;
  size_t misses() const;
  size_t insertions() const;
  size_t evictions() const;      ///< entries dropped by LRU pressure
  size_t invalidations() const;  ///< servable entries a write changed or freed
  size_t survivals() const;      ///< servable entries restamped past a delta

 private:
  struct Entry {
    std::string key;
    CacheEntryMeta meta;
    std::shared_ptr<const EngineResult> result;
    /// The touched boxes of the writes since `result`, deduplicated.
    std::vector<DyadicBox> touched;
    size_t bytes = 0;
  };

  // Drops the LRU tail until `need` more bytes fit. Caller holds mu_.
  void EvictForLocked(size_t need);
  void RemoveLocked(std::list<Entry>::iterator it);

  const size_t capacity_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  size_t bytes_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t insertions_ = 0;
  size_t evictions_ = 0;
  size_t invalidations_ = 0;
  size_t survivals_ = 0;
};

}  // namespace tetris

#endif  // TETRIS_SERVER_RESULT_CACHE_H_

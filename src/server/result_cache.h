// LRU result cache keyed by (relation epochs, output-space signature),
// with delta-precise invalidation and patch-base retention.
//
// KhamisNRR15's geometric decomposition makes result reuse unusually
// precise: two queries with the same output-space signature (grid
// depth, attribute count, per-atom relation + binding — what shard
// planning depends on too) over the same relation *versions*
// compute the same tuple set, so the service can answer the second one
// without touching the engine at all. Keys embed each atom's
// "name@epoch" stamp (server/relation_registry.h), which gives
// correctness by construction: a mutation bumps the epoch, every new
// lookup computes a key no stale entry can match, and served entries
// are therefore never stale.
//
// Row-level deltas get finer treatment than the epoch-global
// InvalidateRelation sweep. InvalidateDelta applies the touched-box
// test of engine/incremental.h to every entry referencing the mutated
// relation:
//
//   * DISJOINT — no changed tuple projects onto the entry's output
//     space (an effectively empty delta, or every changed tuple
//     disagrees on a repeated query variable): the cached tuples are
//     provably still exact, so the entry SURVIVES — its key is
//     restamped to the new epoch so post-delta lookups keep hitting it
//     (counted in `survivals`);
//   * INTERSECTING — the entry stops being servable (counted in
//     `invalidations`) but is demoted to the PATCH-BASE store, one slot
//     per (engine, unstamped signature): the next miss with the same
//     signature retrieves it through FindPatchBase and patches only the
//     touched shards (server/join_service.cc) instead of recomputing.
//
// Entries are shared_ptr<const EngineResult>, handed out without
// copying the tuple payload; eviction while a client still holds one is
// safe. Capacity 0 disables the cache (every Get misses, Put drops).
// Patch bases count against the byte capacity and are evicted first
// under pressure (a base saves work; a fresh entry saves a whole run).
#ifndef TETRIS_SERVER_RESULT_CACHE_H_
#define TETRIS_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/join_engine.h"

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

/// A demoted entry handed back for patching: the stale result plus the
/// meta describing exactly which versions it was computed over.
struct PatchBase {
  CacheEntryMeta meta;
  std::shared_ptr<const EngineResult> result;
};

/// Thread-safe byte-capped LRU cache of whole EngineResults.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The versioned entry key: EngineKindName + "|" + the output-space
  /// signature with atoms stamped "name@epoch", rebuilt from the
  /// structured meta so surviving entries can be restamped after an
  /// epoch bump.
  static std::string Key(const CacheEntryMeta& meta);

  /// The unstamped signature (atoms stamped by name only): the identity
  /// patch bases are stored under — it names the query shape across
  /// version changes.
  static std::string BaseKey(const CacheEntryMeta& meta);

  /// The cached result for `key`, or nullptr on a miss. A hit refreshes
  /// the entry's LRU position. Patch bases are never served here.
  std::shared_ptr<const EngineResult> Get(const std::string& key);

  /// Inserts (or refreshes) `result` under Key(meta). Oversized results
  /// (> capacity) are simply not cached; otherwise patch bases, then
  /// least-recently-used entries, are evicted until the result fits.
  void Put(CacheEntryMeta meta, std::shared_ptr<const EngineResult> result);

  /// The patch base stored under `base_key`, or nullopt. The base stays
  /// in the store (later misses may patch from it again) until replaced
  /// by a newer demotion, invalidated, or evicted.
  std::optional<PatchBase> FindPatchBase(const std::string& base_key);

  /// Applies the touched-box test for a row-level delta to relation
  /// `name` whose effective changed tuples (added and removed alike)
  /// are `changed`, installed at `new_epoch`. Entries not referencing
  /// `name` are untouched; referencing entries survive (restamped to
  /// `new_epoch`, counted in survivals()) iff no changed tuple projects
  /// onto their output space, and are otherwise demoted to the
  /// patch-base store (counted in invalidations()). Patch bases
  /// referencing `name` stay — their meta still names the exact epochs
  /// they were computed over, which is what patching needs. Returns the
  /// number of entries demoted.
  size_t InvalidateDelta(const std::string& name,
                         const std::vector<Tuple>& changed,
                         uint64_t new_epoch);

  /// Frees every entry AND patch base whose query touches `name` — the
  /// epoch-global hammer for chain-breaking mutations (Register /
  /// Replace / Drop). Returns the number of entries freed.
  size_t InvalidateRelation(const std::string& name);

  void Clear();

  /// The resident-byte estimate charged per entry: the tuples
  /// (TupleBytes), each ShardRunInfo with its box string, and per-entry
  /// bookkeeping overhead.
  static size_t EstimateBytes(const EngineResult& result);

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t entries() const;      ///< servable entries (patch bases excluded)
  size_t patch_bases() const;  ///< demoted entries awaiting a patch
  size_t bytes() const;        ///< servable + patch-base payload bytes
  size_t hits() const;
  size_t misses() const;
  size_t insertions() const;
  size_t evictions() const;      ///< entries dropped by LRU pressure
  size_t invalidations() const;  ///< entries demoted/freed by a mutation
  size_t survivals() const;      ///< entries restamped past a delta

 private:
  struct Entry {
    std::string key;
    CacheEntryMeta meta;
    std::shared_ptr<const EngineResult> result;
    size_t bytes = 0;
  };

  // True iff some changed tuple projects onto the entry's output space
  // through an atom over `name` (the INTERSECTING case above).
  static bool Touches(const CacheEntryMeta& meta, const std::string& name,
                      const std::vector<Tuple>& changed);

  // Drops patch bases, then the LRU tail, until `need` more bytes fit.
  // Caller holds mu_.
  void EvictForLocked(size_t need);
  void RemoveLocked(std::list<Entry>::iterator it);
  void RemoveBaseLocked(std::list<Entry>::iterator it);
  // Demotes *it into the patch-base store (replacing any older base
  // with the same base key) and unlinks it from the LRU. Caller holds mu_.
  void DemoteLocked(std::list<Entry>::iterator it);

  const size_t capacity_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::list<Entry> bases_;  ///< front = most recently demoted
  std::unordered_map<std::string, std::list<Entry>::iterator> base_index_;
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

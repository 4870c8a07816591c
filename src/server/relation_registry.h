// Named relations behind epoch/snapshot versioning — the resident
// state of the join service.
//
// The batch runner (engine/batch_runner.h) amortizes index builds and
// shard planning within one call; a *resident* service must amortize
// them across calls while relations keep changing underneath. The
// registry makes that sound with immutable versions: every relation
// version is a shared_ptr<const Relation>, and every mutation
// (Register / Replace / Append / Drop) installs a NEW version under a
// fresh epoch instead of touching the old one. Readers call Snap() and
// get a consistent {name -> (version, epoch)} map whose shared_ptrs pin
// each version alive — an in-flight query never sees torn data, no
// matter how many replaces land while it runs (the zero-copy IndexViews
// and the shard copies only ever reference the pinned version).
//
// Epochs are one global monotonic counter, not per-name counters, so a
// (name, epoch) pair names one immutable version forever, and a later
// version always carries a larger epoch — exactly what the result cache
// (server/result_cache.h) needs to tell which writes an entry has seen.
//
// The registry also owns the (relation, layout) IndexCache
// (engine/index_cache.h) that the service's pipeline runs share across
// queries.
// Replace/Drop evict the retired version's entries immediately, but
// row-level mutations PROMOTE them instead: the effective delta is
// folded into each cached index's overlay (SortedIndex::Promote) and
// the entry is re-keyed under the new version — a 1-row append costs
// O(log n) per cached layout, not a rebuild. The promoted index pins
// the retired version's buffer via shared_ptr, riding the parking
// below. Because an in-flight query holding the old snapshot may
// legally RE-insert entries for the retired version while it runs,
// retired versions are parked and PurgeRetired() re-evicts and frees
// each one once nothing pins it (use_count == 1 — neither a snapshot
// nor a promoted index's pin) — so a recycled heap address can never
// resurrect another relation's index.
//
// Row-level mutations (AppendRows / DeleteRows) additionally report the
// *effective* tuple delta — the set difference against the old version,
// so appending a duplicate or deleting an absent tuple contributes
// nothing — with the epochs it moves the relation between. The registry
// keeps no history of deltas: the result cache folds each one into the
// entries it applies to, as the touched output boxes
// (engine/incremental.h) a later read patches instead of recomputing.
// Register / Replace / Drop report no delta (one against an arbitrary
// replacement is not tracked), so their cached results are dropped.
#ifndef TETRIS_SERVER_RELATION_REGISTRY_H_
#define TETRIS_SERVER_RELATION_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/index_cache.h"
#include "relation/relation.h"

namespace tetris {

/// The effective tuple delta of one row-level mutation: what actually
/// changed between the version at `from_epoch` and the version at
/// `to_epoch` (relations are canonical sets, so duplicates and absent
/// deletions vanish here). Both vectors are sorted and deduplicated.
struct RelationDelta {
  std::string name;
  uint64_t from_epoch = 0;  ///< epoch of the version mutated
  uint64_t to_epoch = 0;    ///< epoch of the version installed
  std::vector<Tuple> added;
  std::vector<Tuple> removed;
};

/// One immutable relation version pinned by a snapshot.
struct RelationVersion {
  std::shared_ptr<const Relation> rel;
  uint64_t epoch = 0;  ///< global epoch at which this version was installed
};

/// A consistent point-in-time view of the registry. Holding it pins
/// every contained version alive (and therefore keeps the index cache's
/// entries for those versions valid).
struct RegistrySnapshot {
  std::map<std::string, RelationVersion> relations;
  uint64_t epoch = 0;  ///< registry epoch when the snapshot was taken

  const RelationVersion* Find(const std::string& name) const {
    auto it = relations.find(name);
    return it == relations.end() ? nullptr : &it->second;
  }
};

/// Thread-safe named-relation store with epoch versioning. All
/// mutations are copy-install: existing versions are never modified.
class RelationRegistry {
 public:
  RelationRegistry() = default;
  RelationRegistry(const RelationRegistry&) = delete;
  RelationRegistry& operator=(const RelationRegistry&) = delete;

  /// Installs a new relation under rel.name(). Fails (false, *error
  /// set) if the name is already registered — use Replace to swap.
  bool Register(Relation rel, std::string* error);

  /// Swaps the registered relation of rel.name() for a new version.
  /// Fails if the name is unknown.
  bool Replace(Relation rel, std::string* error);

  /// Installs a new version of `name` extended by `tuples`
  /// (copy-on-write, one merge of the old rows with the sorted delta;
  /// the old version stays untouched for in-flight readers) and reports
  /// the effective delta through *delta when non-null. An effectively
  /// empty append (every tuple already present) still installs a fresh
  /// epoch but reuses the old version's storage — its indexes stay valid.
  /// Fails on an unknown name or an arity mismatch.
  bool AppendRows(const std::string& name, const std::vector<Tuple>& tuples,
                  std::string* error, RelationDelta* delta = nullptr);

  /// Installs a new version of `name` with `tuples` removed, with the
  /// same delta contract as AppendRows (deleting absent tuples is
  /// an effectively empty delta). Fails on an unknown name or an arity
  /// mismatch.
  bool DeleteRows(const std::string& name, const std::vector<Tuple>& tuples,
                  std::string* error, RelationDelta* delta = nullptr);

  /// Retires the relation. Fails if the name is unknown.
  bool Drop(const std::string& name, std::string* error);

  /// A consistent view of every registered relation. O(#relations).
  RegistrySnapshot Snap() const;

  uint64_t epoch() const;
  size_t size() const;
  /// Retired versions still parked because a snapshot pins them.
  size_t retired() const;

  /// Re-evicts and frees every retired version no snapshot pins
  /// anymore. Callers run it opportunistically after queries finish
  /// (server/join_service.cc). Returns the number of versions freed.
  size_t PurgeRetired();

  /// The shared (relation, layout) index cache for pipeline runs over
  /// this registry's snapshots (BatchOptions::index_cache). The registry upholds the IndexCache
  /// lifetime contract via the mutation-evict + PurgeRetired protocol.
  IndexCache& index_cache() { return index_cache_; }

 private:
  // Parks `version` for deferred cleanup and evicts its index entries.
  // Caller holds mu_.
  void RetireLocked(std::shared_ptr<const Relation> version);

  // The one row-level write behind AppendRows (`remove` false) and
  // DeleteRows (true): the lookup, the arity check, the effective delta,
  // and the next version as one merge of the old rows with that delta.
  bool WriteRows(const std::string& name, const std::vector<Tuple>& tuples,
                 bool remove, std::string* error, RelationDelta* delta_out);

  mutable std::mutex mu_;
  std::map<std::string, RelationVersion> live_;
  std::vector<std::shared_ptr<const Relation>> retired_;
  uint64_t epoch_ = 0;
  IndexCache index_cache_;
};

}  // namespace tetris

#endif  // TETRIS_SERVER_RELATION_REGISTRY_H_

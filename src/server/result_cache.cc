#include "server/result_cache.h"

#include <utility>

#include "engine/incremental.h"

namespace tetris {

namespace {

// The output-space signature of the entry's query — grid depth,
// attribute count and per atom its relation name (plus "@epoch" with
// `with_epochs`) and attribute binding — rebuilt from the structured
// meta, which is what lets surviving entries be restamped in place.
std::string Signature(const CacheEntryMeta& meta, bool with_epochs) {
  std::string sig = meta.engine + "|" + std::to_string(meta.depth) + "|" +
                    std::to_string(meta.num_attrs);
  for (const CacheEntryMeta::AtomRef& atom : meta.atoms) {
    sig += "|" + atom.name;
    if (with_epochs) {
      auto it = meta.epochs.find(atom.name);
      sig += "@" + std::to_string(it == meta.epochs.end() ? 0 : it->second);
    }
    sig += ":";
    for (int v : atom.var_ids) sig += std::to_string(v) + ",";
  }
  return sig;
}

bool References(const CacheEntryMeta& meta, const std::string& name) {
  for (const CacheEntryMeta::AtomRef& atom : meta.atoms) {
    if (atom.name == name) return true;
  }
  return false;
}

}  // namespace

std::string ResultCache::Key(const CacheEntryMeta& meta) {
  return Signature(meta, /*with_epochs=*/true);
}

std::string ResultCache::BaseKey(const CacheEntryMeta& meta) {
  return Signature(meta, /*with_epochs=*/false);
}

bool ResultCache::Touches(const CacheEntryMeta& meta, const std::string& name,
                          const std::vector<Tuple>& changed) {
  // The entry's output space is the universal box over its attributes,
  // so it meets every non-empty touched box: the entry survives iff the
  // delta yields NO touched box through any of its atoms over `name`
  // (kNone for every tuple — repeated-variable disagreements — or an
  // effectively empty delta). kEverything (off-grid value) touches by
  // definition.
  for (const CacheEntryMeta::AtomRef& atom : meta.atoms) {
    if (atom.name != name) continue;
    for (const Tuple& t : changed) {
      DyadicBox box;
      if (TouchedBoxOfTuple(atom.var_ids, meta.num_attrs, meta.depth, t,
                            &box) != TupleTouch::kNone) {
        return true;
      }
    }
  }
  return false;
}

std::shared_ptr<const EngineResult> ResultCache::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh LRU position
  return it->second->result;
}

void ResultCache::Put(CacheEntryMeta meta,
                      std::shared_ptr<const EngineResult> result) {
  if (capacity_bytes_ == 0 || result == nullptr) return;
  const size_t bytes = EstimateBytes(*result);
  std::string key = Key(meta);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) RemoveLocked(it->second);
  if (bytes > capacity_bytes_) return;  // would evict everything for one entry
  EvictForLocked(bytes);
  lru_.push_front(Entry{std::move(key), std::move(meta), std::move(result),
                        bytes});
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += bytes;
  ++insertions_;
}

std::optional<PatchBase> ResultCache::FindPatchBase(
    const std::string& base_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = base_index_.find(base_key);
  if (it == base_index_.end()) return std::nullopt;
  return PatchBase{it->second->meta, it->second->result};
}

size_t ResultCache::InvalidateDelta(const std::string& name,
                                    const std::vector<Tuple>& changed,
                                    uint64_t new_epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t demoted = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (References(it->meta, name)) {
      if (Touches(it->meta, name, changed)) {
        DemoteLocked(it);
        ++demoted;
        ++invalidations_;
      } else {
        // Disjoint from every touched box: still exact under the new
        // version — restamp the key so post-delta lookups hit it.
        index_.erase(it->key);
        it->meta.epochs[name] = new_epoch;
        it->key = Key(it->meta);
        index_.emplace(it->key, it);
        ++survivals_;
      }
    }
    it = next;
  }
  return demoted;
}

size_t ResultCache::InvalidateRelation(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t freed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    auto next = std::next(it);
    if (References(it->meta, name)) {
      RemoveLocked(it);
      ++freed;
      ++invalidations_;
    }
    it = next;
  }
  for (auto it = bases_.begin(); it != bases_.end();) {
    auto next = std::next(it);
    if (References(it->meta, name)) {
      RemoveBaseLocked(it);
      ++freed;
    }
    it = next;
  }
  return freed;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bases_.clear();
  base_index_.clear();
  bytes_ = 0;
}

size_t ResultCache::EstimateBytes(const EngineResult& result) {
  // The tuples, the per-shard entries of a sharded result, and entry
  // bookkeeping.
  size_t bytes = TupleBytes(result.tuples) + sizeof(EngineResult) + 256;
  for (const ShardRunInfo& shard : result.shard_runs) {
    bytes += sizeof(ShardRunInfo) + shard.box.size();
  }
  return bytes;
}

size_t ResultCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t ResultCache::patch_bases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bases_.size();
}

size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

size_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

size_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

size_t ResultCache::insertions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return insertions_;
}

size_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t ResultCache::invalidations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return invalidations_;
}

size_t ResultCache::survivals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return survivals_;
}

void ResultCache::EvictForLocked(size_t need) {
  // Patch bases first: a base saves the untouched fraction of one
  // recompute, a fresh entry saves an entire run — and bases are
  // already the older data.
  while (!bases_.empty() && bytes_ + need > capacity_bytes_) {
    RemoveBaseLocked(std::prev(bases_.end()));
    ++evictions_;
  }
  while (!lru_.empty() && bytes_ + need > capacity_bytes_) {
    RemoveLocked(std::prev(lru_.end()));
    ++evictions_;
  }
}

void ResultCache::RemoveLocked(std::list<Entry>::iterator it) {
  bytes_ -= it->bytes;
  index_.erase(it->key);
  lru_.erase(it);
}

void ResultCache::RemoveBaseLocked(std::list<Entry>::iterator it) {
  bytes_ -= it->bytes;
  base_index_.erase(it->key);
  bases_.erase(it);
}

void ResultCache::DemoteLocked(std::list<Entry>::iterator it) {
  index_.erase(it->key);
  it->key = BaseKey(it->meta);
  auto existing = base_index_.find(it->key);
  if (existing != base_index_.end()) {
    // A newer demotion supersedes the older base outright — patching
    // from the newest base replays the shortest delta chain.
    RemoveBaseLocked(existing->second);
  }
  bases_.splice(bases_.begin(), lru_, it);
  base_index_.emplace(it->key, it);
}

}  // namespace tetris

#include "server/result_cache.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "engine/incremental.h"

namespace tetris {

namespace {

// The output-space signature of the entry's query — engine, grid depth,
// attribute count and per atom its relation name and attribute binding:
// the one key of a query shape across every version of its relations.
std::string Signature(const CacheEntryMeta& meta) {
  std::string sig = meta.engine + "|" + std::to_string(meta.depth) + "|" +
                    std::to_string(meta.num_attrs);
  for (const CacheEntryMeta::AtomRef& atom : meta.atoms) {
    sig += "|" + atom.name + ":";
    for (int v : atom.var_ids) sig += std::to_string(v) + ",";
  }
  return sig;
}

// Appends to *touched the touched boxes of `delta` through each of the
// entry's atoms over the written relation, skipping boxes it already
// holds. False iff one covers the whole output space: nothing is left
// to patch from.
bool AppendTouched(const RelationDelta& delta, const CacheEntryMeta& meta,
                   std::vector<DyadicBox>* touched) {
  std::unordered_set<DyadicBox, DyadicBoxHash> seen(touched->begin(),
                                                    touched->end());
  for (const CacheEntryMeta::AtomRef& atom : meta.atoms) {
    if (atom.name != delta.name) continue;
    for (const std::vector<Tuple>* changed : {&delta.added, &delta.removed}) {
      for (const Tuple& t : *changed) {
        DyadicBox box;
        switch (TouchedBoxOfTuple(atom.var_ids, meta.num_attrs, meta.depth,
                                  t, &box)) {
          case TupleTouch::kNone:
            break;
          case TupleTouch::kEverything:
            return false;
          case TupleTouch::kBox:
            if (box.SupportMask() == 0) return false;
            if (seen.insert(box).second) touched->push_back(box);
            break;
        }
      }
    }
  }
  return true;
}

}  // namespace

CacheLookup ResultCache::Lookup(const CacheEntryMeta& meta) {
  const std::string key = Signature(meta);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end() || it->second->meta.epochs != meta.epochs) {
    ++misses_;
    return {};
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh LRU position
  const Entry& entry = *it->second;
  if (entry.touched.empty()) {
    ++hits_;
  } else {
    ++misses_;  // a patched read is a miss
  }
  return {entry.result, entry.touched};
}

void ResultCache::Put(CacheEntryMeta meta,
                      std::shared_ptr<const EngineResult> result) {
  if (capacity_bytes_ == 0 || result == nullptr) return;
  const size_t bytes = EstimateBytes(*result);
  std::string key = Signature(meta);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) RemoveLocked(it->second);
  if (bytes > capacity_bytes_) return;  // would evict everything for one entry
  EvictForLocked(bytes);
  lru_.push_front(Entry{std::move(key), std::move(meta), std::move(result),
                        {}, bytes});
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += bytes;
  ++insertions_;
}

size_t ResultCache::InvalidateDelta(const RelationDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t invalidated = 0;
  for (auto next = lru_.begin(); next != lru_.end();) {
    const auto it = next++;
    Entry& entry = *it;
    auto stamp = entry.meta.epochs.find(delta.name);
    // Not over the relation, or computed past this write already.
    if (stamp == entry.meta.epochs.end() || stamp->second > delta.from_epoch) {
      continue;
    }
    const bool servable = entry.touched.empty();
    const size_t had = entry.touched.size();
    if (stamp->second < delta.from_epoch ||
        !AppendTouched(delta, entry.meta, &entry.touched)) {
      // Missed an earlier write, or touched everywhere: no patch can
      // bring this result to the new version.
      RemoveLocked(it);
      if (servable) ++invalidated;
    } else {
      stamp->second = delta.to_epoch;
      const size_t grew = (entry.touched.size() - had) * sizeof(DyadicBox);
      entry.bytes += grew;
      bytes_ += grew;
      // An entry already awaiting a patch was counted when it stopped
      // serving.
      if (servable && entry.touched.empty()) {
        ++survivals_;
      } else if (servable) {
        ++invalidated;
      }
    }
  }
  invalidations_ += invalidated;
  EvictForLocked(0);  // grown touched boxes may overrun the capacity
  return invalidated;
}

size_t ResultCache::InvalidateRelation(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t freed = 0;
  for (auto next = lru_.begin(); next != lru_.end();) {
    const auto it = next++;
    if (it->meta.epochs.count(name) == 0) continue;
    if (it->touched.empty()) ++invalidations_;
    RemoveLocked(it);
    ++freed;
  }
  return freed;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
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
  return std::count_if(lru_.begin(), lru_.end(),
                       [](const Entry& e) { return e.touched.empty(); });
}

size_t ResultCache::patch_bases() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::count_if(lru_.begin(), lru_.end(),
                       [](const Entry& e) { return !e.touched.empty(); });
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

}  // namespace tetris

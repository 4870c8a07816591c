#include "engine/index_cache.h"

#include <utility>

#include "engine/join_runner.h"

namespace tetris {

IndexLayout LayoutFor(const Atom& atom, const std::vector<int>& sao,
                      int depth) {
  IndexLayout layout;
  layout.depth = depth;
  std::vector<int> cols = SaoConsistentColumns(atom, sao);
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c] != static_cast<int>(c)) {
      layout.columns = std::move(cols);
      break;
    }
  }
  return layout;
}

std::shared_ptr<const SortedIndex> IndexCache::Get(
    const Relation* rel, const IndexLayout& layout, bool* built_out) {
  if (built_out != nullptr) *built_out = false;
  Key key{rel, layout};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Build outside the lock: an index build is milliseconds of work and
  // holding the cache mutex for it would serialize every concurrent
  // query on one build. Two racers may both build; the first insert
  // wins and the loser's copy is dropped.
  std::shared_ptr<const SortedIndex> built =
      layout.columns.empty()
          ? std::make_shared<const SortedIndex>(*rel, layout.depth)
          : std::make_shared<const SortedIndex>(*rel, layout.columns,
                                                layout.depth);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.emplace(std::move(key), built);
  if (inserted) {
    ++builds_;
    bytes_ += it->second->MemoryBytes();
    if (built_out != nullptr) *built_out = true;
  } else {
    ++hits_;
  }
  return it->second;
}

size_t IndexCache::EvictRelation(const Relation* rel) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t removed = 0;
  auto it = entries_.lower_bound(Key{rel, IndexLayout{}});
  while (it != entries_.end() && it->first.first == rel) {
    bytes_ -= it->second->MemoryBytes();
    it = entries_.erase(it);
    ++removed;
  }
  return removed;
}

size_t IndexCache::Promote(const std::shared_ptr<const Relation>& old_version,
                           const Relation* new_rel,
                           const std::vector<Tuple>& added,
                           const std::vector<Tuple>& removed) {
  const Relation* old_rel = old_version.get();
  // Extract the retired version's entries under the lock, promote them
  // outside it (a promotion is O(delta·log) overlay work, but a
  // threshold crossing rebuilds), then re-key under the new version.
  std::vector<std::pair<IndexLayout, std::shared_ptr<const SortedIndex>>>
      carried;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.lower_bound(Key{old_rel, IndexLayout{}});
    while (it != entries_.end() && it->first.first == old_rel) {
      bytes_ -= it->second->MemoryBytes();
      carried.emplace_back(it->first.second, std::move(it->second));
      it = entries_.erase(it);
    }
  }
  if (carried.empty()) return 0;
  size_t compacted_count = 0;
  for (auto& [layout, index] : carried) {
    bool compacted = false;
    index = SortedIndex::Promote(index, old_version, *new_rel, added, removed,
                                 &compacted);
    if (compacted) ++compacted_count;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [layout, index] : carried) {
    auto [it, inserted] =
        entries_.emplace(Key{new_rel, std::move(layout)}, std::move(index));
    if (inserted) bytes_ += it->second->MemoryBytes();
  }
  promotes_ += carried.size();
  compactions_ += compacted_count;
  return carried.size();
}

void IndexCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  bytes_ = 0;
}

size_t IndexCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t IndexCache::builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return builds_;
}

size_t IndexCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

size_t IndexCache::promotes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return promotes_;
}

size_t IndexCache::compactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compactions_;
}

size_t IndexCache::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace tetris

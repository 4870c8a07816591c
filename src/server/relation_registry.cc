#include "server/relation_registry.h"

#include <algorithm>
#include <utility>

namespace tetris {

bool RelationRegistry::Register(Relation rel, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string name = rel.name();
  if (live_.count(name) != 0) {
    if (error != nullptr) {
      *error = "relation '" + name + "' is already registered (use replace)";
    }
    return false;
  }
  rel.Canonicalize();
  live_.emplace(name,
                RelationVersion{
                    std::make_shared<const Relation>(std::move(rel)),
                    ++epoch_});
  return true;
}

bool RelationRegistry::Replace(Relation rel, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string name = rel.name();
  auto it = live_.find(name);
  if (it == live_.end()) {
    if (error != nullptr) {
      *error = "relation '" + name + "' is not registered (use register)";
    }
    return false;
  }
  rel.Canonicalize();
  RetireLocked(std::move(it->second.rel));
  it->second.rel = std::make_shared<const Relation>(std::move(rel));
  it->second.epoch = ++epoch_;
  return true;
}

bool RelationRegistry::AppendRows(const std::string& name,
                                  const std::vector<Tuple>& tuples,
                                  std::string* error, RelationDelta* delta) {
  return WriteRows(name, tuples, /*remove=*/false, error, delta);
}

bool RelationRegistry::DeleteRows(const std::string& name,
                                  const std::vector<Tuple>& tuples,
                                  std::string* error, RelationDelta* delta) {
  return WriteRows(name, tuples, /*remove=*/true, error, delta);
}

bool RelationRegistry::WriteRows(const std::string& name,
                                 const std::vector<Tuple>& tuples,
                                 bool remove, std::string* error,
                                 RelationDelta* delta_out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(name);
  if (it == live_.end()) {
    if (error != nullptr) {
      *error = "relation '" + name + "' is not registered (use register)";
    }
    return false;
  }
  const Relation& old = *it->second.rel;
  const int k = old.arity();
  for (const Tuple& t : tuples) {
    if (t.size() != static_cast<size_t>(k)) {
      if (error != nullptr) {
        *error = std::string(remove ? "delete" : "append") + " to '" + name +
                 "': tuple arity " + std::to_string(t.size()) +
                 " != relation arity " + std::to_string(k);
      }
      return false;
    }
  }
  // The effective delta: the old version is canonical, so Contains is
  // exact, and a present append or an absent delete changes nothing.
  RelationDelta delta;
  delta.name = name;
  delta.from_epoch = it->second.epoch;
  std::vector<Tuple>& changed = remove ? delta.removed : delta.added;
  changed = tuples;
  CanonicalizeTuples(&changed);
  changed.erase(std::remove_if(changed.begin(), changed.end(),
                               [&](const Tuple& t) {
                                 return old.Contains(t) != remove;
                               }),
                changed.end());
  if (!changed.empty()) {
    // One merge of the sorted old rows with the sorted delta: an added
    // tuple goes in before the first larger row, a removed tuple drops
    // its row.
    Relation merged(old.name(), old.attrs());
    merged.Reserve(remove ? old.size() - changed.size()
                          : old.size() + changed.size());
    auto next = changed.begin();
    auto at = [&next, k] { return TupleRef(next->data(), k); };
    for (TupleRef row : old.rows()) {
      for (; !remove && next != changed.end() && at() < row; ++next) {
        merged.AddRow(next->data());
      }
      if (remove && next != changed.end() && at() == row) {
        ++next;
        continue;
      }
      merged.AddRow(row.data());
    }
    for (; next != changed.end(); ++next) merged.AddRow(next->data());
    std::shared_ptr<const Relation> version =
        std::make_shared<const Relation>(std::move(merged));
    // Row-level mutation with a known effective delta: carry the old
    // version's cached indexes to the new version as overlay promotions
    // instead of evicting them (engine/index_cache.h). This runs before
    // the new version is visible to Snap(), so no concurrent Get can
    // race a fresh build for it. The promoted indexes pin the old
    // version, which parks in retired_ until they compact or die.
    index_cache_.Promote(it->second.rel, version.get(), delta.added,
                         delta.removed);
    retired_.push_back(std::move(it->second.rel));
    it->second.rel = std::move(version);
  }
  // An effectively empty delta reuses the old version's storage: the
  // tuple set is unchanged, so its index-cache entries stay valid and
  // only the epoch stamp moves.
  it->second.epoch = ++epoch_;
  delta.to_epoch = it->second.epoch;
  if (delta_out != nullptr) *delta_out = std::move(delta);
  return true;
}

bool RelationRegistry::Drop(const std::string& name, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(name);
  if (it == live_.end()) {
    if (error != nullptr) {
      *error = "relation '" + name + "' is not registered";
    }
    return false;
  }
  RetireLocked(std::move(it->second.rel));
  live_.erase(it);
  ++epoch_;
  return true;
}

RegistrySnapshot RelationRegistry::Snap() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  snap.relations = live_;
  snap.epoch = epoch_;
  return snap;
}

uint64_t RelationRegistry::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

size_t RelationRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.size();
}

size_t RelationRegistry::retired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_.size();
}

size_t RelationRegistry::PurgeRetired() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t freed = 0;
  for (size_t i = 0; i < retired_.size();) {
    // use_count == 1 means only the parked pointer remains: no snapshot
    // pins this version (so no in-flight query can re-insert index
    // entries for it) and no promoted index still reads its buffer
    // through SortedIndex::pin() — the eviction below is final and the
    // version can die.
    if (retired_[i].use_count() == 1) {
      index_cache_.EvictRelation(retired_[i].get());
      retired_[i] = std::move(retired_.back());
      retired_.pop_back();
      ++freed;
    } else {
      ++i;
    }
  }
  return freed;
}

void RelationRegistry::RetireLocked(std::shared_ptr<const Relation> version) {
  // Evict now for promptness (frees index bytes while readers drain);
  // PurgeRetired re-evicts later in case a pinned snapshot re-inserted.
  index_cache_.EvictRelation(version.get());
  retired_.push_back(std::move(version));
}

}  // namespace tetris

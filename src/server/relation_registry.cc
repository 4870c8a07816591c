#include "server/relation_registry.h"

#include <algorithm>
#include <utility>

namespace tetris {

namespace {

// Shared arity validation of row-level mutations.
bool CheckArity(const char* verb, const std::string& name,
                const Relation& old, const std::vector<Tuple>& tuples,
                std::string* error) {
  for (const Tuple& t : tuples) {
    if (t.size() != static_cast<size_t>(old.arity())) {
      if (error != nullptr) {
        *error = std::string(verb) + " to '" + name + "': tuple arity " +
                 std::to_string(t.size()) + " != relation arity " +
                 std::to_string(old.arity());
      }
      return false;
    }
  }
  return true;
}

}  // namespace

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
  delta_log_.erase(name);  // a fresh relation starts a fresh chain
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
  delta_log_.erase(name);  // arbitrary swap: the delta is not tracked
  return true;
}

bool RelationRegistry::AppendRows(const std::string& name,
                                  const std::vector<Tuple>& tuples,
                                  std::string* error, RelationDelta* delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(name);
  if (it == live_.end()) {
    if (error != nullptr) {
      *error = "relation '" + name + "' is not registered (use register)";
    }
    return false;
  }
  const Relation& old = *it->second.rel;
  if (!CheckArity("append", name, old, tuples, error)) return false;
  RelationDelta d;
  d.added = tuples;
  CanonicalizeTuples(&d.added);
  // Effective delta: the old version is canonical, so Contains is exact.
  d.added.erase(std::remove_if(d.added.begin(), d.added.end(),
                               [&old](const Tuple& t) {
                                 return old.Contains(t);
                               }),
                d.added.end());
  const bool noop = d.added.empty();
  Relation next("", {});
  if (!noop) {
    // Merge on the flat buffer: copy the old rows, append the delta, and
    // re-canonicalize — no per-row Tuple materialization.
    Relation merged(old.name(), old.attrs());
    merged.Reserve(old.size() + d.added.size());
    for (TupleRef t : old.rows()) merged.AddRow(t.data());
    for (const Tuple& t : d.added) merged.Add(t);
    merged.Canonicalize();
    next = std::move(merged);
  }
  InstallDeltaLocked(it, std::move(next), noop, std::move(d), delta);
  return true;
}

bool RelationRegistry::DeleteRows(const std::string& name,
                                  const std::vector<Tuple>& tuples,
                                  std::string* error, RelationDelta* delta) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(name);
  if (it == live_.end()) {
    if (error != nullptr) {
      *error = "relation '" + name + "' is not registered (use register)";
    }
    return false;
  }
  const Relation& old = *it->second.rel;
  if (!CheckArity("delete", name, old, tuples, error)) return false;
  RelationDelta d;
  d.removed = tuples;
  CanonicalizeTuples(&d.removed);
  d.removed.erase(std::remove_if(d.removed.begin(), d.removed.end(),
                                 [&old](const Tuple& t) {
                                   return !old.Contains(t);
                                 }),
                  d.removed.end());
  const bool noop = d.removed.empty();
  Relation next("", {});
  if (!noop) {
    Relation kept(old.name(), old.attrs());
    kept.Reserve(old.size() - d.removed.size());
    for (TupleRef t : old.rows()) {
      if (!std::binary_search(d.removed.begin(), d.removed.end(),
                              t.ToTuple())) {
        kept.AddRow(t.data());
      }
    }
    // Old version was canonical and we only dropped rows, but keep the
    // canonical-form contract explicit.
    kept.Canonicalize();
    next = std::move(kept);
  }
  InstallDeltaLocked(it, std::move(next), noop, std::move(d), delta);
  return true;
}

void RelationRegistry::InstallDeltaLocked(
    std::map<std::string, RelationVersion>::iterator it, Relation next,
    bool reuse_old_version, RelationDelta delta, RelationDelta* delta_out) {
  delta.name = it->first;
  delta.from_epoch = it->second.epoch;
  if (!reuse_old_version) {
    std::shared_ptr<const Relation> next_version =
        std::make_shared<const Relation>(std::move(next));
    // Row-level mutation with a known effective delta: carry the old
    // version's cached indexes to the new version as overlay promotions
    // instead of evicting them (engine/index_cache.h). This runs before
    // the new version is visible to Snap(), so no concurrent Get can
    // race a fresh build for it. The promoted indexes pin the old
    // version, which parks in retired_ until they compact or die.
    index_cache_.Promote(it->second.rel, next_version.get(), delta.added,
                         delta.removed);
    retired_.push_back(std::move(it->second.rel));
    it->second.rel = std::move(next_version);
  }
  // An effectively empty delta reuses the old version's storage: the
  // tuple set is unchanged, so its index-cache entries stay valid and
  // only the epoch stamp moves.
  it->second.epoch = ++epoch_;
  delta.to_epoch = it->second.epoch;
  std::deque<RelationDelta>& log = delta_log_[it->first];
  log.push_back(delta);
  while (log.size() > kDeltaLogCap) log.pop_front();
  if (delta_out != nullptr) *delta_out = std::move(delta);
}

bool RelationRegistry::DeltasSince(const std::string& name,
                                   uint64_t from_epoch, uint64_t to_epoch,
                                   std::vector<RelationDelta>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (live_.count(name) == 0 || from_epoch > to_epoch) return false;
  if (from_epoch == to_epoch) return true;
  auto lit = delta_log_.find(name);
  if (lit == delta_log_.end()) return false;
  uint64_t at = from_epoch;
  bool walking = false;
  for (const RelationDelta& d : lit->second) {
    if (!walking) {
      if (d.from_epoch != at) continue;  // older links precede the start
      walking = true;
    } else if (d.from_epoch != at) {
      return false;  // gap inside the chain (cannot happen unless trimmed)
    }
    if (out != nullptr) out->push_back(d);
    at = d.to_epoch;
    if (at == to_epoch) return true;
  }
  return false;  // the chain never reached to_epoch
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
  delta_log_.erase(name);
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

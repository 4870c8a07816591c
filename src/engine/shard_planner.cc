#include "engine/shard_planner.h"

#include <algorithm>
#include <cstdio>

#include "engine/cost_model.h"
#include "engine/join_runner.h"
#include "relation/relation_view.h"

namespace tetris {

namespace {

// Split dimensions for levels 0..k-1: round-robin over the query
// attributes, skipping dimensions already split down to unit depth —
// the planner's analogue of Split-First-Thick-Dimension (on a uniform
// cube, cycling the dimensions always splits a thickest one).
std::vector<int> SplitDims(int num_attrs, int depth, int k) {
  std::vector<int> dims;
  dims.reserve(k);
  std::vector<int> splits(num_attrs, 0);
  int dim = 0;
  for (int level = 0; level < k; ++level) {
    int scanned = 0;
    while (splits[dim] >= depth && scanned < num_attrs) {
      dim = (dim + 1) % num_attrs;
      ++scanned;
    }
    if (splits[dim] >= depth) break;  // domain exhausted
    dims.push_back(dim);
    ++splits[dim];
    dim = (dim + 1) % num_attrs;
  }
  return dims;
}

// The subcube of shard `id`: level j contributes bit j of the id (most
// significant level first) as the next prefix bit of its dimension.
DyadicBox ShardBox(int num_attrs, const std::vector<int>& dims, int id) {
  DyadicBox box = DyadicBox::Universal(num_attrs);
  const int k = static_cast<int>(dims.size());
  for (int level = 0; level < k; ++level) {
    const int bit = (id >> (k - 1 - level)) & 1;
    box[dims[level]] = box[dims[level]].Child(bit);
  }
  return box;
}

// Shard membership of an atom's tuples, computed in ONE pass: level j
// (the r-th split of its dimension) pins shard-id bit (k-1-j) to bit
// (depth-1-r) of the tuple's value in every column bound to that
// dimension. The pinned-bit *positions* depend only on the atom, so
// bucketing tuples by their pinned-bit values answers both the planner's
// counting queries and any later materialization without rescanning the
// relation once per shard: shard `id` holds exactly bucket[id & mask].
// Tuples whose repeated-attribute columns disagree on a pinned bit can
// match no shard and land in no bucket (they can also match no output).
ShardPlan::AtomBuckets BucketAtomTuples(const Atom& atom,
                                        const std::vector<int>& dims,
                                        int depth) {
  ShardPlan::AtomBuckets out;
  const int k = static_cast<int>(dims.size());
  // Per constrained level: its shard-id bit and the value bit each
  // relevant column must supply.
  struct Pin {
    int id_shift;
    int value_shift;
    std::vector<int> cols;
  };
  std::vector<Pin> pins;
  std::unordered_map<int, int> splits_per_dim;
  for (int j = 0; j < k; ++j) {
    const int dim = dims[j];
    const int r = splits_per_dim[dim]++;
    Pin pin;
    pin.id_shift = k - 1 - j;
    pin.value_shift = depth - 1 - r;
    for (size_t c = 0; c < atom.var_ids.size(); ++c) {
      if (atom.var_ids[c] == dim) pin.cols.push_back(static_cast<int>(c));
    }
    if (pin.cols.empty()) continue;  // attribute not in this atom
    out.id_mask |= 1 << pin.id_shift;
    pins.push_back(std::move(pin));
  }
  const Relation& rel = *atom.rel;
  for (size_t t = 0; t < rel.size(); ++t) {
    const TupleRef row = rel.row(t);
    int key = 0;
    bool contradiction = false;
    for (const Pin& pin : pins) {
      const int bit =
          static_cast<int>((row[pin.cols[0]] >> pin.value_shift) & 1);
      for (size_t c = 1; c < pin.cols.size(); ++c) {
        if (static_cast<int>(
                (row[pin.cols[c]] >> pin.value_shift) & 1) != bit) {
          contradiction = true;  // repeated attribute, disagreeing bits
          break;
        }
      }
      if (contradiction) break;
      key |= bit << pin.id_shift;
    }
    if (!contradiction) out.rows[key].push_back(t);
  }
  return out;
}

std::vector<ShardPlan::AtomBuckets> BucketAllAtoms(
    const JoinQuery& query, const std::vector<int>& dims, int depth) {
  std::vector<ShardPlan::AtomBuckets> buckets;
  buckets.reserve(query.atoms().size());
  for (const Atom& atom : query.atoms()) {
    buckets.push_back(BucketAtomTuples(atom, dims, depth));
  }
  return buckets;
}

size_t BucketCount(const ShardPlan::AtomBuckets& b, int id) {
  auto it = b.rows.find(id & b.id_mask);
  return it == b.rows.end() ? 0 : it->second.size();
}

// Restricted input payload of shard `id`: the SUM over atoms of the
// restricted tuples' payload — all per-atom structures are resident
// simultaneously during a run, so the estimate must be sum-shaped.
size_t ShardPayload(const JoinQuery& query,
                    const std::vector<ShardPlan::AtomBuckets>& buckets,
                    int id) {
  size_t payload = 0;
  for (size_t a = 0; a < buckets.size(); ++a) {
    payload += EstimateAtomBytes(
        BucketCount(buckets[a], id),
        static_cast<int>(query.atoms()[a].var_ids.size()));
  }
  return payload;
}

// Estimated peak resident bytes of the costliest shard under `model`.
size_t MaxShardEstimate(const JoinQuery& query,
                        const std::vector<ShardPlan::AtomBuckets>& buckets,
                        int k, const ShardCostModel& model) {
  size_t worst = 0;
  for (int id = 0; id < (1 << k); ++id) {
    worst = std::max(worst,
                     model.EstimatePeak(ShardPayload(query, buckets, id)));
  }
  return worst;
}

// 64-bit shift: safe for any int input (a 2^30+1 request must clamp to
// the planner cap, not hang in a signed-overflow loop).
int CeilLog2(int64_t v) {
  int k = 0;
  while ((int64_t{1} << k) < v) ++k;
  return k;
}

std::string HumanBytes(size_t b) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zuB", b);
  return buf;
}

}  // namespace

size_t EstimateAtomBytes(size_t tuples, int arity) {
  // Flat columnar rows: arity values per tuple, no per-row header. This
  // is the shard's row-payload proxy; the SortedIndex itself is now a
  // rows·4 permutation view on top of it (see index/sorted_index.h), so
  // the estimate upper-bounds index residency rather than equalling it.
  return tuples * static_cast<size_t>(arity) * sizeof(uint64_t);
}

const std::vector<size_t>* ShardPlan::AtomRows(int shard_id,
                                               size_t atom) const {
  const AtomBuckets& b = buckets[atom];
  auto it = b.rows.find(shard_id & b.id_mask);
  return it == b.rows.end() ? nullptr : &it->second;
}

size_t ShardPlan::PlanningBytes() const {
  size_t total = shards.size() * sizeof(Shard);
  for (const AtomBuckets& b : buckets) {
    for (const auto& [key, rows] : b.rows) {
      (void)key;
      total += rows.size() * sizeof(size_t);
    }
  }
  return total;
}

ShardPlan PlanShards(const JoinQuery& query, const ShardPlanOptions& options) {
  ShardPlan plan;
  plan.depth = options.depth > 0 ? options.depth : query.MinDepth();
  const int n = query.num_attrs();
  const ShardCostModel default_model;  // payload proxy, slope 1
  const ShardCostModel& model =
      options.cost_model != nullptr ? *options.cost_model : default_model;
  auto append_note = [&plan](const std::string& s) {
    if (!plan.note.empty()) plan.note += "; ";
    plan.note += s;
  };
  // The domain has n*depth prefix bits in total; splitting beyond that
  // would create shards finer than single points. 20 bits (1M shards) is
  // a hard sanity ceiling on top. max_split_bits caps only budget/auto
  // *growth* — explicit requests are honored up to the hard cap. A grid
  // deeper than kMaxDepth has no dyadic arithmetic to split with, so it
  // gets one unsplit shard (the Tetris family rejects it before planning).
  const bool splittable = plan.depth <= kMaxDepth;
  if (!splittable) {
    append_note(std::string(kGridTooDeepError) +
                ": planning one unsplit shard");
  }
  const long total_bits =
      splittable ? static_cast<long>(n) * plan.depth : 0;
  const int hard_cap = static_cast<int>(std::min<long>(20, total_bits));
  const int growth_cap =
      std::min(std::max(0, options.max_split_bits), hard_cap);

  int k;
  if (options.shards > 1) {
    k = CeilLog2(options.shards);
    if (k > hard_cap) {
      append_note("requested " + std::to_string(options.shards) +
                  " shards, but the domain has only " +
                  std::to_string(total_bits) +
                  " prefix bits (planner ceiling 2^20): planning 2^" +
                  std::to_string(hard_cap) + " shards");
      k = hard_cap;
    }
  } else if (options.shards < 0) {
    // Auto: at least one shard per thread, budget may grow it below.
    k = std::min(growth_cap, CeilLog2(std::max(1, options.threads_hint)));
  } else {
    k = 0;
  }
  plan.split_dims = SplitDims(n, plan.depth, k);
  k = static_cast<int>(plan.split_dims.size());
  plan.buckets = BucketAllAtoms(query, plan.split_dims, plan.depth);

  if (options.memory_budget_bytes > 0 && n > 0) {
    // Adaptive split: grow k while some shard's estimate exceeds the
    // budget. Explicitly requested shard counts are honoured as the
    // floor; the budget can only make the split finer.
    size_t est = MaxShardEstimate(query, plan.buckets, k, model);
    while (est > options.memory_budget_bytes && k < growth_cap) {
      std::vector<int> next = SplitDims(n, plan.depth, k + 1);
      if (static_cast<int>(next.size()) <= k) break;  // domain exhausted
      plan.split_dims = std::move(next);
      k = static_cast<int>(plan.split_dims.size());
      plan.buckets = BucketAllAtoms(query, plan.split_dims, plan.depth);
      est = MaxShardEstimate(query, plan.buckets, k, model);
    }
    if (est > options.memory_budget_bytes) {
      plan.budget_ok = false;
      append_note("budget " + HumanBytes(options.memory_budget_bytes) +
                  " cannot be met: the finest allowed split (2^" +
                  std::to_string(k) +
                  " shards) still has an estimated per-shard peak of " +
                  HumanBytes(est) + " (cost model: " + model.source +
                  ") — a single tuple's footprint may already exceed "
                  "the budget");
    }
  }
  plan.split_bits = k;

  // Describe the shards from the buckets (shard id selects each atom's
  // bucket; no tuple is copied — consumers restrict probes to the box or
  // materialize lazily via MaterializeShard).
  plan.shards.reserve(static_cast<size_t>(1) << k);
  for (int id = 0; id < (1 << k); ++id) {
    Shard shard;
    shard.id = id;
    shard.box = ShardBox(n, plan.split_dims, id);
    for (size_t a = 0; a < plan.buckets.size(); ++a) {
      const size_t count = BucketCount(plan.buckets[a], id);
      if (count == 0) shard.empty = true;
      shard.payload_bytes += EstimateAtomBytes(
          count, static_cast<int>(query.atoms()[a].var_ids.size()));
    }
    shard.estimated_peak_bytes = model.EstimatePeak(shard.payload_bytes);
    plan.max_estimated_peak_bytes =
        std::max(plan.max_estimated_peak_bytes, shard.estimated_peak_bytes);
    plan.shards.push_back(shard);
  }
  return plan;
}

MaterializedShard MaterializeShard(const JoinQuery& query,
                                   const ShardPlan& plan, int shard_id) {
  MaterializedShard out;
  std::vector<const Relation*> ptrs;
  ptrs.reserve(query.atoms().size());
  for (size_t a = 0; a < query.atoms().size(); ++a) {
    const Atom& atom = query.atoms()[a];
    const std::vector<size_t>* rows = plan.AtomRows(shard_id, a);
    auto rel = std::make_unique<Relation>(
        rows == nullptr
            ? Relation(atom.rel->name(), atom.rel->attrs())
            : RelationView(atom.rel, rows).Materialize());
    ptrs.push_back(rel.get());
    out.storage.push_back(std::move(rel));
  }
  out.query = JoinQuery::Build(ptrs);
  return out;
}

}  // namespace tetris

#include "engine/shard_planner.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

#include "engine/cost_model.h"
#include "engine/join_runner.h"

namespace tetris {

namespace {

// Cap on budget/auto-driven *growth* of k (the number of prefix bits
// split). Explicitly requested shard counts are honored beyond it, up to
// the domain itself (num_attrs * depth prefix bits) and a hard
// 2^20-shard ceiling.
constexpr int kMaxGrowthBits = 8;

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

// The value bits of an atom's rows that the split pins: level j (the
// r-th split of its dimension) pins shard-id bit (k-1-j) to bit
// (depth-1-r) of the row's value in every column bound to that
// dimension. The pinned *positions* depend only on the atom, so one key
// per row — its pinned bits at their shard-id positions — answers both
// the planner's counts and MaterializeShard's selection: shard `id`
// holds exactly the rows keyed `id & id_mask`.
struct AtomPins {
  struct Pin {
    int id_shift;
    int value_shift;
    std::vector<int> cols;
  };
  std::vector<Pin> pins;
  int id_mask = 0;

  // The row's key; -1 when a repeated attribute's columns disagree on a
  // pinned bit, so the row can match no shard (and no output).
  int Key(TupleRef row) const {
    int key = 0;
    for (const Pin& pin : pins) {
      const uint64_t bit = (row[pin.cols[0]] >> pin.value_shift) & 1;
      for (size_t c = 1; c < pin.cols.size(); ++c) {
        if (((row[pin.cols[c]] >> pin.value_shift) & 1) != bit) return -1;
      }
      key |= static_cast<int>(bit) << pin.id_shift;
    }
    return key;
  }
};

AtomPins PinsOf(const Atom& atom, const std::vector<int>& dims, int depth) {
  AtomPins out;
  const int k = static_cast<int>(dims.size());
  for (int j = 0; j < k; ++j) {
    const auto r = std::count(dims.begin(), dims.begin() + j, dims[j]);
    AtomPins::Pin pin;
    pin.id_shift = k - 1 - j;
    pin.value_shift = depth - 1 - static_cast<int>(r);
    for (size_t c = 0; c < atom.var_ids.size(); ++c) {
      if (atom.var_ids[c] == dims[j]) pin.cols.push_back(static_cast<int>(c));
    }
    if (pin.cols.empty()) continue;  // attribute not in this atom
    out.id_mask |= 1 << pin.id_shift;
    out.pins.push_back(std::move(pin));
  }
  return out;
}

// One atom's bucket offsets from ONE pass counting rows by key, and no
// pass when no split pins the atom: then every shard holds every row.
ShardPlan::AtomCounts CountAtomRows(const Atom& atom,
                                    const std::vector<int>& dims,
                                    int depth) {
  const AtomPins pins = PinsOf(atom, dims, depth);
  ShardPlan::AtomCounts out;
  out.id_mask = pins.id_mask;
  out.start.assign(static_cast<size_t>(pins.id_mask) + 2, 0);
  if (pins.pins.empty()) {
    out.start[1] = atom.rel->size();
    return out;
  }
  for (TupleRef row : atom.rel->rows()) {
    const int key = pins.Key(row);
    if (key >= 0) ++out.start[static_cast<size_t>(key) + 1];
  }
  std::partial_sum(out.start.begin(), out.start.end(), out.start.begin());
  return out;
}

// Splits `plan` along `dims` and describes the 2^k shards from the row
// counts alone. A shard's payload is the SUM over its atoms: all
// per-atom structures are resident at once during a run.
void SplitPlan(const JoinQuery& query, std::vector<int> dims,
               const ShardCostModel& model, ShardPlan* plan) {
  const int k = static_cast<int>(dims.size());
  plan->split_bits = k;
  plan->split_dims = std::move(dims);
  plan->counts.clear();
  for (const Atom& atom : query.atoms()) {
    plan->counts.push_back(CountAtomRows(atom, plan->split_dims, plan->depth));
  }
  plan->shards.assign(size_t{1} << k, Shard());
  plan->max_estimated_peak_bytes = 0;
  for (int id = 0; id < (1 << k); ++id) {
    Shard& shard = plan->shards[static_cast<size_t>(id)];
    shard.id = id;
    shard.box = ShardBox(query.num_attrs(), plan->split_dims, id);
    for (size_t a = 0; a < plan->counts.size(); ++a) {
      const size_t count = plan->RowCount(id, a);
      if (count == 0 && k > 0) shard.empty = true;
      shard.payload_bytes += EstimateAtomBytes(
          count, static_cast<int>(query.atoms()[a].var_ids.size()));
    }
    shard.estimated_peak_bytes = model.EstimatePeak(shard.payload_bytes);
    plan->max_estimated_peak_bytes =
        std::max(plan->max_estimated_peak_bytes, shard.estimated_peak_bytes);
  }
}

// 64-bit shift: safe for any int input (a 2^30+1 request must clamp to
// the planner cap, not hang in a signed-overflow loop).
int CeilLog2(int64_t v) {
  int k = 0;
  while ((int64_t{1} << k) < v) ++k;
  return k;
}

}  // namespace

size_t EstimateAtomBytes(size_t tuples, int arity) {
  // Flat columnar rows: arity values per tuple, no per-row header. This
  // is the shard's row-payload proxy; the SortedIndex itself is now a
  // rows·4 permutation view on top of it (see index/sorted_index.h), so
  // the estimate upper-bounds index residency rather than equalling it.
  return tuples * static_cast<size_t>(arity) * sizeof(uint64_t);
}

size_t ShardPlan::RowCount(int shard_id, size_t atom) const {
  const AtomCounts& c = counts[atom];
  const size_t b = static_cast<size_t>(shard_id & c.id_mask);
  return c.start[b + 1] - c.start[b];
}

size_t ShardPlan::PlanningBytes() const {
  size_t total = shards.size() * sizeof(Shard);
  for (const AtomCounts& c : counts) total += c.start.size() * sizeof(size_t);
  return total;
}

ShardPlan PlanShards(const JoinQuery& query, const ShardPlanOptions& options) {
  ShardPlan plan;
  plan.depth = options.depth > 0 ? options.depth : query.MinDepth();
  const int n = query.num_attrs();
  const ShardCostModel default_model;  // payload proxy, slope 1
  const ShardCostModel& model =
      options.cost_model != nullptr ? *options.cost_model : default_model;
  // The domain has n*depth prefix bits in total; splitting beyond that
  // would create shards finer than single points. 20 bits (1M shards) is
  // a hard sanity ceiling on top. kMaxGrowthBits caps only budget/auto
  // *growth* — explicit requests are honored up to the hard cap. A grid
  // deeper than kMaxDepth has no dyadic arithmetic to split with, so it
  // gets one unsplit shard (the Tetris family rejects it before planning).
  const bool splittable = plan.depth <= kMaxDepth;
  const long total_bits =
      splittable ? static_cast<long>(n) * plan.depth : 0;
  const int hard_cap = static_cast<int>(std::min<long>(20, total_bits));
  const int growth_cap = std::min(kMaxGrowthBits, hard_cap);

  int k;
  if (options.shards > 1) {
    k = std::min(CeilLog2(options.shards), hard_cap);
  } else if (options.shards < 0) {
    // Auto: at least one shard per thread, budget may grow it below.
    k = std::min(growth_cap, CeilLog2(std::max(1, options.threads_hint)));
  } else {
    k = 0;
  }
  SplitPlan(query, SplitDims(n, plan.depth, k), model, &plan);

  if (options.memory_budget_bytes > 0 && n > 0) {
    // Adaptive split: grow k while some shard's estimate exceeds the
    // budget. Explicitly requested shard counts are honoured as the
    // floor; the budget can only make the split finer.
    const size_t budget = options.memory_budget_bytes;
    while (plan.max_estimated_peak_bytes > budget &&
           plan.split_bits < growth_cap) {
      std::vector<int> next = SplitDims(n, plan.depth, plan.split_bits + 1);
      // No finer split: the domain is exhausted.
      if (static_cast<int>(next.size()) <= plan.split_bits) break;
      SplitPlan(query, std::move(next), model, &plan);
    }
    // A single tuple's footprint may already exceed the budget.
    plan.budget_ok = plan.max_estimated_peak_bytes <= budget;
  }
  return plan;
}

ShardRowGroups GroupShardRows(const JoinQuery& query, const ShardPlan& plan) {
  ShardRowGroups out;
  out.ids.resize(query.atoms().size());
  for (size_t a = 0; a < out.ids.size(); ++a) {
    const Relation& rel = *query.atoms()[a].rel;
    const AtomPins pins = PinsOf(query.atoms()[a], plan.split_dims, plan.depth);
    if (pins.pins.empty()) continue;  // every shard holds every row
    assert(rel.size() <= UINT32_MAX);
    std::vector<size_t> next = plan.counts[a].start;  // write cursors
    out.ids[a].resize(next.back());
    for (size_t r = 0; r < rel.size(); ++r) {
      const int key = pins.Key(rel.row(r));
      if (key >= 0) out.ids[a][next[key]++] = static_cast<uint32_t>(r);
    }
    out.bytes += out.ids[a].size() * sizeof(uint32_t);
  }
  return out;
}

MaterializedShard MaterializeShard(const JoinQuery& query,
                                   const ShardPlan& plan, int shard_id,
                                   const ShardRowGroups* groups) {
  const ShardRowGroups own =
      groups != nullptr ? ShardRowGroups() : GroupShardRows(query, plan);
  if (groups == nullptr) groups = &own;
  MaterializedShard out;
  std::vector<const Relation*> ptrs;
  for (size_t a = 0; a < query.atoms().size(); ++a) {
    const Relation& base = *query.atoms()[a].rel;
    const ShardPlan::AtomCounts& c = plan.counts[a];
    auto rel = std::make_unique<Relation>(base.name(), base.attrs());
    if (c.id_mask == 0) {
      *rel = base;  // no split pins the atom
    } else {
      const size_t b = static_cast<size_t>(shard_id & c.id_mask);
      rel->Reserve(c.start[b + 1] - c.start[b]);
      for (size_t i = c.start[b]; i < c.start[b + 1]; ++i) {
        rel->AddRow(base.row(groups->ids[a][i]).data());
      }
    }
    rel->Canonicalize();
    ptrs.push_back(rel.get());
    out.storage.push_back(std::move(rel));
  }
  out.query = JoinQuery::Build(ptrs);
  return out;
}

}  // namespace tetris

#include "engine/balance.h"

#include <cassert>
#include <cmath>
#include <deque>
#include <unordered_map>

namespace tetris {

DimPartition::DimPartition(std::vector<DyadicInterval> elements, int depth)
    : d_(depth), elements_(std::move(elements)) {
  for (const DyadicInterval& e : elements_) element_set_.insert(e);
}

std::pair<DyadicInterval, DyadicInterval> DimPartition::Factor(
    const DyadicInterval& s) const {
  // Walk the prefixes of s from the longest down: the first one that is a
  // partition element is the unique element comparable with s.
  for (int len = s.len; len >= 0; --len) {
    DyadicInterval p = s.Prefix(len);
    if (element_set_.count(p)) {
      if (len == s.len) return {s, DyadicInterval::Lambda()};
      return {p, s.Suffix(len)};
    }
  }
  // No element prefixes s, so (by prefix-freeness + completeness) s is a
  // strict prefix of some element: s stays whole.
  return {s, DyadicInterval::Lambda()};
}

DimPartition ComputeBalancedPartition(const std::vector<DyadicBox>& boxes,
                                      int dim, int depth) {
  // Count, for every interval x, how many boxes have their dim-projection
  // *strictly* inside x (the |C_<x(X)| of eq. (11)).
  std::unordered_map<DyadicInterval, int64_t, DyadicIntervalHash> strict;
  for (const DyadicBox& b : boxes) {
    const DyadicInterval& iv = b[dim];
    for (int len = 0; len < iv.len; ++len) ++strict[iv.Prefix(len)];
  }
  const double threshold = std::sqrt(static_cast<double>(boxes.size()));
  auto heavy = [&](const DyadicInterval& x) {
    if (x.len >= depth) return false;
    auto it = strict.find(x);
    return it != strict.end() &&
           static_cast<double>(it->second) > threshold;
  };
  std::vector<DyadicInterval> out;
  std::deque<DyadicInterval> queue = {DyadicInterval::Lambda()};
  while (!queue.empty()) {
    DyadicInterval x = queue.front();
    queue.pop_front();
    if (heavy(x)) {
      queue.push_back(x.Child(0));
      queue.push_back(x.Child(1));
    } else {
      out.push_back(x);
    }
  }
  return DimPartition(std::move(out), depth);
}

BalanceMap::BalanceMap(const std::vector<DyadicBox>& boxes, int n, int depth)
    : n_(n), d_(depth) {
  assert(n_ >= 3 && "the Balance lift needs at least 3 dimensions");
  parts_.reserve(n_ - 2);
  for (int j = 0; j <= n_ - 3; ++j) {
    parts_.push_back(ComputeBalancedPartition(boxes, j, d_));
  }
}

DyadicBox BalanceMap::Lift(const DyadicBox& b) const {
  DyadicBox out = DyadicBox::Universal(lifted_dims());
  for (int j = 0; j <= n_ - 3; ++j) {
    auto [s1, s2] = parts_[j].Factor(b[j]);
    out[LiftedPrimeDim(j)] = s1;
    out[LiftedSuffixDim(j)] = s2;
  }
  out[n_ - 2] = b[n_ - 1];  // A_n right after the primes
  out[n_ - 1] = b[n_ - 2];  // then A_{n-1}
  out.set_output_derived(b.output_derived());
  return out;
}

DyadicBox BalanceMap::UnliftPoint(const DyadicBox& p) const {
  DyadicBox out = DyadicBox::Universal(n_);
  for (int j = 0; j <= n_ - 3; ++j) {
    out[j] = p[LiftedPrimeDim(j)].Concat(p[LiftedSuffixDim(j)]);
  }
  out[n_ - 1] = p[n_ - 2];
  out[n_ - 2] = p[n_ - 1];
  out.set_output_derived(p.output_derived());
  return out;
}

bool BalancedSpace::IsUnit(const DyadicBox& b, int dim) const {
  const int n = map_->original_dims();
  const int d = map_->depth();
  if (dim <= n - 3) return map_->partition(dim).IsElement(b[dim]);
  if (dim == n - 2 || dim == n - 1) return b[dim].len == d;
  // Suffix dimension: complementary depth w.r.t. its prime component.
  // (Valid only once the prime dimension is unit, which the identity-SAO
  // split order guarantees.)
  const int j = 2 * n - 3 - dim;
  return b[dim].len == d - b[map_->LiftedPrimeDim(j)].len;
}

namespace {

// Reloaded-mode oracle adapter living in the lifted space: unlifts probe
// points, lifts the resulting gap boxes as they stream by, and records
// every distinct original box seen (input for partition rebuilds). That
// recording mutates shared state through const Probe, so unlike the
// shareable oracles this adapter is NOT const-thread-safe — each TetrisLB
// run owns its own instance and never shares it across threads.
class LiftedOracle : public BoxOracle {
 public:
  LiftedOracle(const BoxOracle* base, const BalanceMap* map,
               std::vector<DyadicBox>* seen,
               std::unordered_set<DyadicBox, DyadicBoxHash>* seen_set)
      : base_(base), map_(map), seen_(seen), seen_set_(seen_set) {}

  int dims() const override { return map_->lifted_dims(); }

  void Probe(const DyadicBox& point, BoxSink sink) const override {
    ++probe_count_;
    base_->Probe(map_->UnliftPoint(point), [&](const DyadicBox& b) {
      if (seen_set_->insert(b).second) seen_->push_back(b);
      sink(map_->Lift(b));
    });
  }

 private:
  const BoxOracle* base_;
  const BalanceMap* map_;
  std::vector<DyadicBox>* seen_;
  std::unordered_set<DyadicBox, DyadicBoxHash>* seen_set_;
};

}  // namespace

TetrisLB::TetrisLB(const BoxOracle* oracle, int n, int depth, bool preloaded)
    : oracle_(oracle), n_(n), d_(depth), preloaded_(preloaded) {}

RunStatus TetrisLB::Run(const OutputSink& sink) {
  stats_ = TetrisStats{};
  if (n_ < 3) {
    // Nothing to balance: plain Tetris in the uniform space.
    UniformSpace space(n_, d_);
    TetrisOptions opt;
    opt.init = preloaded_ ? TetrisOptions::Init::kPreloaded
                          : TetrisOptions::Init::kReloaded;
    Tetris engine(oracle_, &space, opt);
    RunStatus status = engine.Run(sink);
    stats_ = engine.stats();
    return status;
  }

  if (preloaded_) {
    // Algorithm 3: Balance then Tetris-Preloaded on the lifted boxes. The
    // partitions need the whole box set, so it is collected here.
    std::vector<DyadicBox> all;
    const bool ok = oracle_->EnumerateAll(
        [&all](const DyadicBox& b) { all.push_back(b); });
    assert(ok && "preloaded LB requires an enumerable oracle");
    (void)ok;
    BalanceMap map(all, n_, d_);
    BalancedSpace space(&map);
    MaterializedOracle lifted(map.lifted_dims(), /*maximal_only=*/false);
    for (const DyadicBox& b : all) lifted.Add(map.Lift(b));
    TetrisOptions opt;
    opt.init = TetrisOptions::Init::kPreloaded;
    Tetris engine(&lifted, &space, opt);
    RunStatus status = engine.Run(
        [&](const DyadicBox& p) { return sink(map.UnliftPoint(p)); });
    stats_ = engine.stats();
    return status;
  }

  // Online variant: lifted Tetris-Reloaded with doubling load budget;
  // every budget trip rebuilds the partitions from all boxes seen.
  std::vector<DyadicBox> seen;
  std::unordered_set<DyadicBox, DyadicBoxHash> seen_set;
  std::unordered_set<DyadicBox, DyadicBoxHash> emitted;
  int64_t budget = 16;
  for (;;) {
    BalanceMap map(seen, n_, d_);
    BalancedSpace space(&map);
    LiftedOracle adapter(oracle_, &map, &seen, &seen_set);
    TetrisOptions opt;
    opt.init = TetrisOptions::Init::kReloaded;
    opt.load_budget = budget;
    Tetris engine(&adapter, &space, opt);
    RunStatus status = engine.Run([&](const DyadicBox& p) {
      DyadicBox orig = map.UnliftPoint(p);
      if (!emitted.insert(orig).second) return true;  // duplicate: skip
      return sink(orig);
    });
    stats_.Accumulate(engine.stats());
    if (status != RunStatus::kBudgetExceeded) {
      // Report distinct outputs, not per-restart raw counts.
      stats_.outputs = static_cast<int64_t>(emitted.size());
      return status;
    }
    ++stats_.restarts;
    budget = std::max<int64_t>(budget * 2,
                               2 * static_cast<int64_t>(seen.size()));
  }
}

}  // namespace tetris

#include "index/sorted_index.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "geometry/decompose.h"

namespace tetris {

namespace {

std::vector<int> IdentityOrder(int k) {
  std::vector<int> o(k);
  for (int i = 0; i < k; ++i) o[i] = i;
  return o;
}

}  // namespace

SortedIndex::SortedIndex(const Relation& rel, std::vector<int> order,
                         int depth)
    : k_(rel.arity()), d_(depth), order_(std::move(order)) {
  assert(static_cast<int>(order_.size()) == k_);
  ord_ = order_.data();
  base_ = rel.raw().data();
  const size_t n = rel.size();
  const size_t k = static_cast<size_t>(k_);
  // Build = sort the row ids by permuted-lex order over the relation's
  // own buffer — no gather. A canonical relation under the identity
  // layout is already sorted, so the is_sorted fast path makes the
  // common server build a single linear scan.
  auto perm = std::make_shared<std::vector<uint32_t>>(n);
  std::iota(perm->begin(), perm->end(), 0u);
  const uint64_t* d = base_;
  const int* ord = ord_;
  auto less = [d, k, ord](uint32_t a, uint32_t b) {
    const uint64_t* ra = d + static_cast<size_t>(a) * k;
    const uint64_t* rb = d + static_cast<size_t>(b) * k;
    for (size_t l = 0; l < k; ++l) {
      const uint64_t va = ra[ord[l]];
      const uint64_t vb = rb[ord[l]];
      if (va != vb) return va < vb;
    }
    return false;
  };
  if (!std::is_sorted(perm->begin(), perm->end(), less)) {
    std::sort(perm->begin(), perm->end(), less);
  }
  // Full-row equality is permutation-invariant, so dedup compares the
  // rows in relation order directly.
  auto eq = [d, k](uint32_t a, uint32_t b) {
    return std::equal(d + static_cast<size_t>(a) * k,
                      d + static_cast<size_t>(a) * k + k,
                      d + static_cast<size_t>(b) * k);
  };
  perm->erase(std::unique(perm->begin(), perm->end(), eq), perm->end());
  rows_ = perm->size();
  perm_ = std::move(perm);
  perm_data_ = perm_->data();
  // The inner level: the leading value at every kFenceStride-th rank.
  auto fence = std::make_shared<std::vector<uint64_t>>();
  if (k_ > 0) {
    fence->reserve((rows_ + kFenceStride - 1) / kFenceStride);
    for (size_t i = 0; i < rows_; i += kFenceStride) {
      fence->push_back(at(i, 0));
    }
  }
  fence_ = std::move(fence);
  fence_data_ = fence_->data();
}

SortedIndex::SortedIndex(const Relation& rel, int depth)
    : SortedIndex(rel, IdentityOrder(rel.arity()), depth) {}

SortedIndex::SortedIndex(const SortedIndex& o)
    : k_(o.k_),
      d_(o.d_),
      order_(o.order_),
      base_(o.base_),
      perm_(o.perm_),
      perm_data_(o.perm_data_),
      rows_(o.rows_),
      fence_(o.fence_),
      fence_data_(o.fence_data_),
      pin_(o.pin_),
      added_(o.added_),
      removed_(o.removed_) {
  ord_ = order_.data();
}

size_t SortedIndex::LowerBound(size_t lo, size_t hi, int level,
                               uint64_t v) const {
  if (level == 0 && hi - lo > kFenceStride) {
    // The leading column is sorted over every rank, so the fence slots
    // inside [lo, hi) bound the answer to one leaf: past the last slot
    // below v, up to the first slot at or above it.
    const size_t f_lo = (lo + kFenceStride - 1) / kFenceStride;
    const size_t f_hi = (hi + kFenceStride - 1) / kFenceStride;
    const size_t f = static_cast<size_t>(
        std::lower_bound(fence_data_ + f_lo, fence_data_ + f_hi, v) -
        fence_data_);
    if (f < f_hi) hi = f * kFenceStride;
    if (f > f_lo) lo = (f - 1) * kFenceStride + 1;
  }
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (at(mid, level) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t SortedIndex::AddedLowerBound(size_t alo, size_t ahi, int level,
                                    uint64_t v) const {
  while (alo < ahi) {
    const size_t mid = alo + (ahi - alo) / 2;
    if (added_at(mid, level) < v) {
      alo = mid + 1;
    } else {
      ahi = mid;
    }
  }
  return alo;
}

size_t SortedIndex::RemovedIn(size_t lo, size_t hi) const {
  if (removed_.empty()) return 0;
  auto b = std::lower_bound(removed_.begin(), removed_.end(),
                            static_cast<uint32_t>(lo));
  auto e = std::lower_bound(b, removed_.end(), static_cast<uint32_t>(hi));
  return static_cast<size_t>(e - b);
}

size_t SortedIndex::GroupEnd(size_t lo, size_t hi, int level,
                             uint64_t v) const {
  if (lo == hi || at(lo, level) > v) return lo;
  // Gallop from the group's first rank, doubling the step while the
  // value holds, then search the last step's span.
  size_t known = lo;  // at(known, level) == v
  size_t step = 1;
  while (step < hi - known && at(known + step, level) <= v) {
    known += step;
    step *= 2;
  }
  size_t a = known + 1;
  size_t b = step < hi - known ? known + step : hi;
  while (a < b) {
    const size_t mid = a + (b - a) / 2;
    if (at(mid, level) <= v) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return a;
}

bool SortedIndex::FindBaseRank(const uint64_t* key, size_t* rank) const {
  const size_t k = static_cast<size_t>(k_);
  size_t lo = 0, hi = rows_;
  if (k_ > 0) {
    // Only the group of rows leading with key[0] can hold the key.
    lo = LowerBound(0, rows_, 0, key[0]);
    hi = GroupEnd(lo, rows_, 0, key[0]);
  }
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t* r = base_ + static_cast<size_t>(perm_data_[mid]) * k;
    int cmp = 0;
    for (int level = 0; level < k_; ++level) {
      const uint64_t rv = r[ord_[level]];
      if (rv != key[level]) {
        cmp = rv < key[level] ? -1 : 1;
        break;
      }
    }
    if (cmp == 0) {
      *rank = mid;
      return true;
    }
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

size_t SortedIndex::AddedLowerBoundFull(const uint64_t* key) const {
  const size_t k = static_cast<size_t>(k_);
  size_t lo = 0, hi = added_count();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t* r = added_.data() + mid * k;
    if (std::lexicographical_compare(r, r + k, key, key + k)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool SortedIndex::PredLiveValue(size_t lo, size_t bpos, size_t alo,
                                size_t apos, int level, uint64_t* v) const {
  bool have = false;
  uint64_t best = 0;
  // Base side: walk value groups right-to-left; each skipped group is
  // fully tombstoned, so the walk is bounded by the tombstone count.
  // With no tombstones the adjacent rank's value is live.
  size_t hi = bpos;
  while (hi > lo) {
    const uint64_t g = at(hi - 1, level);
    const size_t glo =
        removed_.empty() ? hi - 1 : LowerBound(lo, hi, level, g);
    if (RemovedIn(glo, hi) < hi - glo) {
      have = true;
      best = g;
      break;
    }
    hi = glo;
  }
  if (apos > alo) {
    const uint64_t a = added_at(apos - 1, level);
    if (!have || a > best) {
      have = true;
      best = a;
    }
  }
  if (have) *v = best;
  return have;
}

bool SortedIndex::SuccLiveValue(size_t bpos, size_t hi, size_t apos,
                                size_t ahi, int level, uint64_t* v) const {
  bool have = false;
  uint64_t best = 0;
  size_t lo = bpos;
  while (lo < hi) {
    const uint64_t g = at(lo, level);
    const size_t ghi = removed_.empty() ? lo + 1 : GroupEnd(lo, hi, level, g);
    if (RemovedIn(lo, ghi) < ghi - lo) {
      have = true;
      best = g;
      break;
    }
    lo = ghi;
  }
  if (apos < ahi) {
    const uint64_t a = added_at(apos, level);
    if (!have || a < best) {
      have = true;
      best = a;
    }
  }
  if (have) *v = best;
  return have;
}

void SortedIndex::EmitBand(DyadicBox* slot, int level, uint64_t lo_val,
                           uint64_t hi_val, const DyadicInterval* clip,
                           BoxSink sink) const {
  DyadicInterval& comp = (*slot)[order_[level]];
  ForEachDyadicCover(lo_val, hi_val, d_, [&](DyadicInterval iv) {
    if (clip != nullptr && !iv.ComparableWith(*clip)) return;
    comp = iv;
    sink(*slot);
  });
  comp = DyadicInterval::Lambda();
}

void SortedIndex::NullaryGap(BoxSink sink) const {
  if (rows() == 0) sink(DyadicBox::Universal(0));
}

void SortedIndex::GapsContaining(const uint64_t* t, BoxSink sink) const {
  if (k_ == 0) return NullaryGap(sink);
  uint64_t p[kMaxDims];
  for (int level = 0; level < k_; ++level) p[level] = t[ord_[level]];

  const uint64_t dom_max = (uint64_t{1} << d_) - 1;
  size_t lo = 0, hi = rows_;
  size_t alo = 0, ahi = added_count();
  for (int level = 0; level < k_; ++level) {
    const uint64_t v = p[level];
    const size_t sub_lo = LowerBound(lo, hi, level, v);
    const size_t sub_hi = GroupEnd(sub_lo, hi, level, v);
    const size_t asub_lo = AddedLowerBound(alo, ahi, level, v);
    const size_t asub_hi =
        v == dom_max ? ahi : AddedLowerBound(asub_lo, ahi, level, v + 1);
    const size_t live =
        (sub_hi - sub_lo) - RemovedIn(sub_lo, sub_hi) + (asub_hi - asub_lo);
    if (live == 0) {
      // Probe value has no live row at this level: the band between the
      // neighbouring LIVE keys is tuple-free (fully-tombstoned groups in
      // between belong to the band — exactly what a fresh rebuild over
      // the live set would report as neighbours).
      uint64_t band_lo = 0;
      uint64_t band_hi = dom_max;
      uint64_t nb;
      if (PredLiveValue(lo, sub_lo, alo, asub_lo, level, &nb)) {
        band_lo = nb + 1;
      }
      if (SuccLiveValue(sub_hi, hi, asub_hi, ahi, level, &nb)) {
        band_hi = nb - 1;
      }
      DyadicBox slot = DyadicBox::Universal(k_);
      for (int i = 0; i < level; ++i) {
        slot[order_[i]] = DyadicInterval::Unit(p[i], d_);
      }
      EmitBand(&slot, level, band_lo, band_hi, nullptr, sink);
      return;
    }
    lo = sub_lo;
    hi = sub_hi;
    alo = asub_lo;
    ahi = asub_hi;
  }
  // Probe present: no gap.
}

void SortedIndex::GapsIntersectingRec(size_t lo, size_t hi, size_t alo,
                                      size_t ahi, int level,
                                      const DyadicBox& box, DyadicBox* slot,
                                      BoxSink sink) const {
  if (level == k_) return;
  const uint64_t dom_max = (uint64_t{1} << d_) - 1;
  // Value range of the box's component at this level. Bands and key
  // groups entirely outside it produce gaps whose component is disjoint
  // from the box, so the scan starts at the last live key below the
  // range (which bounds the band overlapping its left edge) and stops
  // past its right edge. A λ component spans the domain: the scan takes
  // the whole range and emits every band unclipped.
  const DyadicInterval& comp = box[order_[level]];
  const DyadicInterval* clip = nullptr;
  size_t i = lo, a = alo;
  uint64_t next_free = 0;  // lowest value not yet covered by key or gap
  uint64_t bhi = dom_max;
  uint64_t nb;
  if (comp.len > 0) {
    const int shift = comp.len >= d_ ? 0 : d_ - comp.len;
    const uint64_t blo = comp.bits << shift;
    bhi = blo + ((uint64_t{1} << shift) - 1);
    i = LowerBound(lo, hi, level, blo);
    a = AddedLowerBound(alo, ahi, level, blo);
    if (PredLiveValue(lo, i, alo, a, level, &nb)) next_free = nb + 1;
    clip = &comp;
  }
  // Merged walk over the distinct values of the base range and the
  // overlay range; a fully-tombstoned group is skipped WITHOUT advancing
  // next_free, so the surrounding band absorbs it.
  while (i < hi || a < ahi) {
    uint64_t v;
    if (i < hi && a < ahi) {
      v = std::min(at(i, level), added_at(a, level));
    } else if (i < hi) {
      v = at(i, level);
    } else {
      v = added_at(a, level);
    }
    if (v > bhi) break;
    size_t j = i;
    while (j < hi && at(j, level) == v) ++j;
    size_t b = a;
    while (b < ahi && added_at(b, level) == v) ++b;
    const size_t live = (j - i) - RemovedIn(i, j) + (b - a);
    if (live > 0) {
      if (v > next_free) {
        EmitBand(slot, level, next_free, v - 1, clip, sink);
      }
      (*slot)[order_[level]] = DyadicInterval::Unit(v, d_);
      GapsIntersectingRec(i, j, a, b, level + 1, box, slot, sink);
      (*slot)[order_[level]] = DyadicInterval::Lambda();
      next_free = v + 1;
    }
    i = j;
    a = b;
  }
  // Trailing band: runs from the last in-range live key to the next
  // live key after the range (or the domain end) — it still intersects
  // the box whenever it starts within the range.
  if (next_free <= bhi) {
    uint64_t band_hi = dom_max;
    if (SuccLiveValue(i, hi, a, ahi, level, &nb)) band_hi = nb - 1;
    if (band_hi >= next_free) {
      EmitBand(slot, level, next_free, band_hi, clip, sink);
    }
  }
}

void SortedIndex::GapsIntersecting(const DyadicBox& box, BoxSink sink) const {
  if (k_ == 0) return NullaryGap(sink);
  DyadicBox slot = DyadicBox::Universal(k_);
  GapsIntersectingRec(0, rows_, 0, added_count(), 0, box, &slot, sink);
}

void SortedIndex::ApplyDelta(const std::vector<Tuple>& added,
                             const std::vector<Tuple>& removed) {
  const size_t k = static_cast<size_t>(k_);
  Tuple p(k_);
  for (const Tuple& t : removed) {
    for (int level = 0; level < k_; ++level) p[level] = t[ord_[level]];
    // Removing an overlay row un-adds it; removing a base row
    // tombstones its rank.
    const size_t a = AddedLowerBoundFull(p.data());
    if (a < added_count() &&
        std::equal(p.data(), p.data() + k, added_.data() + a * k)) {
      added_.erase(added_.begin() + static_cast<ptrdiff_t>(a * k),
                   added_.begin() + static_cast<ptrdiff_t>((a + 1) * k));
      continue;
    }
    size_t rank;
    if (FindBaseRank(p.data(), &rank)) {
      auto it = std::lower_bound(removed_.begin(), removed_.end(),
                                 static_cast<uint32_t>(rank));
      if (it == removed_.end() || *it != static_cast<uint32_t>(rank)) {
        removed_.insert(it, static_cast<uint32_t>(rank));
      }
    }
  }
  for (const Tuple& t : added) {
    for (int level = 0; level < k_; ++level) p[level] = t[ord_[level]];
    size_t rank;
    if (FindBaseRank(p.data(), &rank)) {
      // Re-adding a base row clears its tombstone (if any).
      auto it = std::lower_bound(removed_.begin(), removed_.end(),
                                 static_cast<uint32_t>(rank));
      if (it != removed_.end() && *it == static_cast<uint32_t>(rank)) {
        removed_.erase(it);
      }
      continue;
    }
    const size_t a = AddedLowerBoundFull(p.data());
    if (a < added_count() &&
        std::equal(p.data(), p.data() + k, added_.data() + a * k)) {
      continue;
    }
    added_.insert(added_.begin() + static_cast<ptrdiff_t>(a * k), p.begin(),
                  p.end());
  }
}

std::shared_ptr<const SortedIndex> SortedIndex::Promote(
    const std::shared_ptr<const SortedIndex>& base,
    std::shared_ptr<const Relation> old_version, const Relation& new_version,
    const std::vector<Tuple>& added, const std::vector<Tuple>& removed,
    bool* compacted) {
  if (compacted != nullptr) *compacted = false;
  assert(base != nullptr && new_version.arity() == base->k_);
  std::shared_ptr<SortedIndex> next(new SortedIndex(*base));
  // Chained promotions keep pinning the ORIGINAL base version — that is
  // the buffer the shared permutation indexes into.
  if (next->pin_ == nullptr) next->pin_ = std::move(old_version);
  next->ApplyDelta(added, removed);
  // The overlay cannot hold a 0-ary addition (its rows have no values);
  // a 0-ary relation has at most one row, so it is rebuilt instead.
  if (base->k_ == 0 ||
      ShouldCompact(next->overlay_rows(), new_version.size())) {
    if (compacted != nullptr) *compacted = true;
    return std::make_shared<const SortedIndex>(new_version, base->order_,
                                               base->d_);
  }
  return next;
}

std::string SortedIndex::Describe() const {
  std::string s = "btree(";
  for (int i = 0; i < k_; ++i) {
    if (i) s += ",";
    s += "c" + std::to_string(order_[i]);
  }
  s += ")";
  if (overlay_rows() > 0) {
    s += "+ovl{" + std::to_string(added_count()) + "a," +
         std::to_string(removed_.size()) + "r}";
  }
  return s;
}

}  // namespace tetris

#include "relation/relation.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace tetris {

void CanonicalizeTuples(std::vector<Tuple>* tuples) {
  if (std::adjacent_find(tuples->begin(), tuples->end(),
                         std::greater_equal<Tuple>()) == tuples->end()) {
    return;
  }
  std::sort(tuples->begin(), tuples->end());
  tuples->erase(std::unique(tuples->begin(), tuples->end()), tuples->end());
}

size_t TupleBytes(const std::vector<Tuple>& tuples) {
  const size_t arity = tuples.empty() ? 0 : tuples[0].size();
  return tuples.size() * (sizeof(Tuple) + arity * sizeof(uint64_t));
}

Relation Relation::Make(std::string name, std::vector<std::string> attrs,
                        std::vector<Tuple> tuples) {
  Relation r(std::move(name), std::move(attrs));
  r.Reserve(tuples.size());
  for (const Tuple& t : tuples) r.Add(t);
  r.Canonicalize();
  return r;
}

std::vector<Tuple> Relation::ToTuples() const {
  std::vector<Tuple> out;
  out.reserve(rows_);
  for (TupleRef t : rows()) out.push_back(t.ToTuple());
  return out;
}

void Relation::Add(const Tuple& t) {
  data_.insert(data_.end(), t.begin(), t.end());
  for (uint64_t v : t) max_value_ = std::max(max_value_, v);
  ++rows_;
}

void Relation::AddRow(const uint64_t* v) {
  data_.insert(data_.end(), v, v + attrs_.size());
  for (size_t c = 0; c < attrs_.size(); ++c) {
    max_value_ = std::max(max_value_, v[c]);
  }
  ++rows_;
}

void Relation::Canonicalize() {
  const size_t k = attrs_.size();
  if (rows_ <= 1 || k == 0) {
    if (k == 0 && rows_ > 1) rows_ = 1;  // 0-ary: at most the empty tuple
    return;
  }
  // Sort a row permutation, then gather into a fresh buffer: moving k
  // values per swap during sort would thrash; indices are 8 bytes each.
  const uint64_t* d = data_.data();
  std::vector<uint32_t> perm(rows_);
  std::iota(perm.begin(), perm.end(), 0u);
  auto row_less = [d, k](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(d + a * k, d + a * k + k, d + b * k,
                                        d + b * k + k);
  };
  std::sort(perm.begin(), perm.end(), row_less);
  std::vector<uint64_t> out;
  out.reserve(data_.size());
  size_t kept = 0;
  for (size_t i = 0; i < perm.size(); ++i) {
    const uint64_t* src = d + static_cast<size_t>(perm[i]) * k;
    if (kept > 0 &&
        std::equal(src, src + k, out.data() + (kept - 1) * k)) {
      continue;  // duplicate of the previously kept row
    }
    out.insert(out.end(), src, src + k);
    ++kept;
  }
  data_ = std::move(out);
  rows_ = kept;
}

bool Relation::Contains(const Tuple& t) const {
  const size_t k = attrs_.size();
  if (t.size() != k) return false;
  if (k == 0) return rows_ > 0;
  const uint64_t* d = data_.data();
  size_t lo = 0, hi = rows_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t* r = d + mid * k;
    int cmp = 0;
    for (size_t i = 0; i < k; ++i) {
      if (r[i] != t[i]) {
        cmp = r[i] < t[i] ? -1 : 1;
        break;
      }
    }
    if (cmp == 0) return true;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

int Relation::AttrIndex(const std::string& name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace tetris

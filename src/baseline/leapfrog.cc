#include "baseline/leapfrog.h"

#include <algorithm>
#include <cassert>

namespace tetris {
namespace {

// Trie view over one relation: tuples sorted by GAO-ordered columns, with
// a stack of ranges per bound level. Supports the linear-iterator API of
// the LFTJ paper (open / up / next / seekGeq / key / atEnd).
class TrieIter {
 public:
  // `level_cols[l]` = relation column bound at trie level l.
  TrieIter(const Relation& rel, std::vector<int> level_cols,
           int64_t* seek_counter)
      : level_cols_(std::move(level_cols)), seeks_(seek_counter) {
    sorted_.reserve(rel.size());
    for (TupleRef t : rel.rows()) {
      Tuple p(level_cols_.size());
      for (size_t l = 0; l < level_cols_.size(); ++l) {
        p[l] = t[level_cols_[l]];
      }
      sorted_.push_back(std::move(p));
    }
    std::sort(sorted_.begin(), sorted_.end());
    sorted_.erase(std::unique(sorted_.begin(), sorted_.end()),
                  sorted_.end());
  }

  bool empty() const { return sorted_.empty(); }
  int num_levels() const { return static_cast<int>(level_cols_.size()); }
  const std::vector<int>& level_cols() const { return level_cols_; }

  // Descends into the current value's subtree (or the root's range).
  void Open() {
    size_t lo = frames_.empty() ? 0 : frames_.back().run_lo;
    size_t hi = frames_.empty() ? sorted_.size() : frames_.back().run_hi;
    const int level = static_cast<int>(frames_.size());
    Frame f;
    f.range_lo = lo;
    f.range_hi = hi;
    f.run_lo = lo;
    f.run_hi = RunEnd(lo, hi, level);
    frames_.push_back(f);
    ++*seeks_;
  }

  void Up() { frames_.pop_back(); }

  bool AtEnd() const { return frames_.back().run_lo >= frames_.back().range_hi; }

  uint64_t Key() const {
    const Frame& f = frames_.back();
    return sorted_[f.run_lo][frames_.size() - 1];
  }

  // Advances to the next distinct key at this level.
  void Next() {
    Frame& f = frames_.back();
    const int level = static_cast<int>(frames_.size()) - 1;
    f.run_lo = f.run_hi;
    f.run_hi = RunEnd(f.run_lo, f.range_hi, level);
    ++*seeks_;
  }

  // Positions at the first key >= v.
  void SeekGeq(uint64_t v) {
    Frame& f = frames_.back();
    const int level = static_cast<int>(frames_.size()) - 1;
    auto cmp = [level](const Tuple& t, uint64_t val) {
      return t[level] < val;
    };
    f.run_lo = std::lower_bound(sorted_.begin() + f.run_lo,
                                sorted_.begin() + f.range_hi, v, cmp) -
               sorted_.begin();
    f.run_hi = RunEnd(f.run_lo, f.range_hi, level);
    ++*seeks_;
  }

 private:
  struct Frame {
    size_t range_lo, range_hi;  // tuples matching the bound prefix
    size_t run_lo, run_hi;      // current equal-key run at this level
  };

  size_t RunEnd(size_t lo, size_t hi, int level) const {
    if (lo >= hi) return lo;
    size_t j = lo + 1;
    uint64_t v = sorted_[lo][level];
    while (j < hi && sorted_[j][level] == v) ++j;
    return j;
  }

  std::vector<Tuple> sorted_;
  std::vector<int> level_cols_;
  std::vector<Frame> frames_;
  int64_t* seeks_;
};

class Lftj {
 public:
  Lftj(const JoinQuery& query, std::vector<int> gao, int64_t* seeks)
      : query_(query), gao_(std::move(gao)), seeks_(seeks) {
    // Per-atom trie in GAO-sorted column order.
    std::vector<int> gao_pos(query_.num_attrs());
    for (size_t i = 0; i < gao_.size(); ++i) gao_pos[gao_[i]] = static_cast<int>(i);
    for (const Atom& a : query_.atoms()) {
      std::vector<int> cols(a.var_ids.size());
      for (size_t c = 0; c < cols.size(); ++c) cols[c] = static_cast<int>(c);
      std::sort(cols.begin(), cols.end(), [&](int x, int y) {
        return gao_pos[a.var_ids[x]] < gao_pos[a.var_ids[y]];
      });
      tries_.emplace_back(*a.rel, cols, seeks_);
    }
    // Participants per query level.
    participants_.resize(gao_.size());
    for (size_t level = 0; level < gao_.size(); ++level) {
      for (size_t i = 0; i < query_.atoms().size(); ++i) {
        const auto& ids = query_.atoms()[i].var_ids;
        if (std::find(ids.begin(), ids.end(), gao_[level]) != ids.end()) {
          participants_[level].push_back(static_cast<int>(i));
        }
      }
    }
    assignment_.resize(query_.num_attrs());
  }

  std::vector<Tuple> Run() {
    // An atom that binds no variable takes part at no level, but an
    // empty one still empties the join.
    for (const TrieIter& t : tries_) {
      if (t.empty()) return {};
    }
    Search(0);
    return std::move(out_);
  }

 private:
  // Aligns all iterators on a common key. Returns false when exhausted.
  bool LeapfrogAlign(std::vector<TrieIter*>& iters) {
    for (;;) {
      uint64_t max_key = 0;
      bool first = true;
      for (TrieIter* it : iters) {
        if (it->AtEnd()) return false;
        uint64_t k = it->Key();
        if (first || k > max_key) max_key = k;
        first = false;
      }
      bool aligned = true;
      for (TrieIter* it : iters) {
        if (it->Key() < max_key) {
          it->SeekGeq(max_key);
          if (it->AtEnd()) return false;
          aligned = false;
        }
      }
      if (aligned) return true;
    }
  }

  void Search(size_t level) {
    if (level == gao_.size()) {
      out_.push_back(assignment_);
      return;
    }
    std::vector<TrieIter*> iters;
    for (int i : participants_[level]) {
      tries_[i].Open();
      iters.push_back(&tries_[i]);
    }
    while (LeapfrogAlign(iters)) {
      assignment_[gao_[level]] = iters[0]->Key();
      Search(level + 1);
      iters[0]->Next();
    }
    for (int i : participants_[level]) tries_[i].Up();
  }

  const JoinQuery& query_;
  std::vector<int> gao_;
  int64_t* seeks_;
  std::vector<TrieIter> tries_;
  std::vector<std::vector<int>> participants_;
  Tuple assignment_;
  std::vector<Tuple> out_;
};

}  // namespace

std::vector<Tuple> LeapfrogTriejoin(const JoinQuery& query,
                                    std::vector<int> gao, int64_t* seeks) {
  if (gao.empty()) {
    gao.resize(query.num_attrs());
    for (size_t i = 0; i < gao.size(); ++i) gao[i] = static_cast<int>(i);
  }
  int64_t local_seeks = 0;
  Lftj lftj(query, std::move(gao), seeks ? seeks : &local_seeks);
  return lftj.Run();
}

}  // namespace tetris

#include "baseline/generic_join.h"

#include <algorithm>

namespace tetris {
namespace {

// One relation, sorted by GAO-ordered columns, narrowed level by level.
struct AtomState {
  std::vector<Tuple> sorted;      // tuples in GAO-sorted column order
  std::vector<int> level_attr;    // query attr bound at each local level
  std::vector<std::pair<size_t, size_t>> range_stack;  // narrowing ranges
  int bound_levels = 0;

  std::pair<size_t, size_t> Range() const {
    return range_stack.empty()
               ? std::pair<size_t, size_t>{0, sorted.size()}
               : range_stack.back();
  }
};

class Gj {
 public:
  Gj(const JoinQuery& query, std::vector<int> gao, int64_t* probes)
      : query_(query), gao_(std::move(gao)), probes_(probes) {
    std::vector<int> gao_pos(query_.num_attrs());
    for (size_t i = 0; i < gao_.size(); ++i) {
      gao_pos[gao_[i]] = static_cast<int>(i);
    }
    for (const Atom& a : query_.atoms()) {
      AtomState st;
      std::vector<int> cols(a.var_ids.size());
      for (size_t c = 0; c < cols.size(); ++c) cols[c] = static_cast<int>(c);
      std::sort(cols.begin(), cols.end(), [&](int x, int y) {
        return gao_pos[a.var_ids[x]] < gao_pos[a.var_ids[y]];
      });
      for (int c : cols) st.level_attr.push_back(a.var_ids[c]);
      st.sorted.reserve(a.rel->size());
      for (TupleRef t : a.rel->rows()) {
        Tuple p(cols.size());
        for (size_t l = 0; l < cols.size(); ++l) p[l] = t[cols[l]];
        st.sorted.push_back(std::move(p));
      }
      std::sort(st.sorted.begin(), st.sorted.end());
      st.sorted.erase(std::unique(st.sorted.begin(), st.sorted.end()),
                      st.sorted.end());
      atoms_.push_back(std::move(st));
    }
    assignment_.resize(query_.num_attrs());
  }

  std::vector<Tuple> Run() {
    // An atom that binds no variable takes part at no level, but an
    // empty one still empties the join.
    for (const AtomState& st : atoms_) {
      if (st.sorted.empty()) return {};
    }
    Search(0);
    return std::move(out_);
  }

 private:
  // Sub-range of `st` whose next-level column equals v.
  std::pair<size_t, size_t> NarrowTo(const AtomState& st, uint64_t v) {
    auto [lo, hi] = st.Range();
    const int level = st.bound_levels;
    auto lt = [level](const Tuple& t, uint64_t val) {
      return t[level] < val;
    };
    auto gt = [level](uint64_t val, const Tuple& t) {
      return val < t[level];
    };
    if (probes_) *probes_ += 2;
    size_t a = std::lower_bound(st.sorted.begin() + lo,
                                st.sorted.begin() + hi, v, lt) -
               st.sorted.begin();
    size_t b = std::upper_bound(st.sorted.begin() + lo,
                                st.sorted.begin() + hi, v, gt) -
               st.sorted.begin();
    return {a, b};
  }

  void Search(size_t level) {
    if (level == gao_.size()) {
      out_.push_back(assignment_);
      return;
    }
    const int attr = gao_[level];
    // Participants: atoms whose next unbound column is `attr`.
    std::vector<int> parts;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      AtomState& st = atoms_[i];
      if (st.bound_levels < static_cast<int>(st.level_attr.size()) &&
          st.level_attr[st.bound_levels] == attr) {
        parts.push_back(static_cast<int>(i));
      }
    }
    if (parts.empty()) {
      // Attribute unconstrained at this level (cannot happen for connected
      // queries evaluated bottom-up); bind nothing and recurse over the
      // whole domain is wrong — instead this means the GAO interleaves a
      // later atom; treat as zero candidates.
      return;
    }
    // Iterate the smallest participant's distinct values; probe the rest.
    int smallest = parts[0];
    size_t best = SIZE_MAX;
    for (int i : parts) {
      auto [lo, hi] = atoms_[i].Range();
      if (hi - lo < best) {
        best = hi - lo;
        smallest = i;
      }
    }
    auto [slo, shi] = atoms_[smallest].Range();
    const int slevel = atoms_[smallest].bound_levels;
    size_t i = slo;
    while (i < shi) {
      uint64_t v = atoms_[smallest].sorted[i][slevel];
      size_t run = i;
      while (run < shi && atoms_[smallest].sorted[run][slevel] == v) ++run;
      // Probe all participants (including smallest, for its sub-range).
      bool ok = true;
      std::vector<std::pair<size_t, size_t>> ranges(parts.size());
      for (size_t p = 0; p < parts.size(); ++p) {
        ranges[p] = NarrowTo(atoms_[parts[p]], v);
        if (ranges[p].first >= ranges[p].second) {
          ok = false;
          break;
        }
      }
      if (ok) {
        assignment_[attr] = v;
        for (size_t p = 0; p < parts.size(); ++p) {
          AtomState& st = atoms_[parts[p]];
          st.range_stack.push_back(ranges[p]);
          ++st.bound_levels;
        }
        Search(level + 1);
        for (int pi : parts) {
          AtomState& st = atoms_[pi];
          st.range_stack.pop_back();
          --st.bound_levels;
        }
      }
      i = run;
    }
  }

  const JoinQuery& query_;
  std::vector<int> gao_;
  int64_t* probes_;
  std::vector<AtomState> atoms_;
  Tuple assignment_;
  std::vector<Tuple> out_;
};

}  // namespace

std::vector<Tuple> GenericJoin(const JoinQuery& query, std::vector<int> gao,
                               int64_t* probes) {
  if (gao.empty()) {
    gao.resize(query.num_attrs());
    for (size_t i = 0; i < gao.size(); ++i) gao[i] = static_cast<int>(i);
  }
  Gj gj(query, std::move(gao), probes);
  return gj.Run();
}

}  // namespace tetris

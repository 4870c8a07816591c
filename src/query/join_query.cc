#include "query/join_query.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tetris {

JoinQuery JoinQuery::Build(std::vector<const Relation*> rels) {
  JoinQuery q;
  for (const Relation* r : rels) {
    Atom atom;
    atom.rel = r;
    for (const std::string& a : r->attrs()) {
      int id = -1;
      for (size_t i = 0; i < q.attrs_.size(); ++i) {
        if (q.attrs_[i] == a) {
          id = static_cast<int>(i);
          break;
        }
      }
      if (id < 0) {
        id = static_cast<int>(q.attrs_.size());
        q.attrs_.push_back(a);
      }
      atom.var_ids.push_back(id);
    }
    q.atoms_.push_back(std::move(atom));
  }
  return q;
}

Hypergraph JoinQuery::ToHypergraph() const {
  std::vector<std::vector<int>> edges;
  edges.reserve(atoms_.size());
  for (const Atom& a : atoms_) edges.push_back(a.var_ids);
  return Hypergraph(num_attrs(), std::move(edges));
}

int JoinQuery::MinDepth() const {
  uint64_t max_val = 0;
  for (const Atom& a : atoms_) max_val = std::max(max_val, a.rel->MaxValue());
  // The bit width of max_val (at least 1), computed from max_val itself:
  // max_val + 1 would wrap to 0 at UINT64_MAX.
  return 64 - __builtin_clzll(max_val | 1);
}

std::vector<int> JoinQuery::AcyclicSao() const {
  Hypergraph h = ToHypergraph();
  std::vector<int> order;
  if (!h.GyoEliminationOrder(&order)) return MinWidthSao();
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<int> JoinQuery::MinWidthSao() const {
  Hypergraph h = ToHypergraph();
  std::vector<int> order;
  h.Treewidth(&order);
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<int> JoinQuery::MinFhtwSao() const {
  Hypergraph h = ToHypergraph();
  std::vector<int> order;
  h.FractionalHypertreeWidth(&order);
  std::reverse(order.begin(), order.end());
  return order;
}

double JoinQuery::AgmBoundLog2() const {
  Hypergraph h = ToHypergraph();
  std::vector<double> log_sizes;
  log_sizes.reserve(atoms_.size());
  for (const Atom& a : atoms_) {
    log_sizes.push_back(std::log2(std::max<double>(1.0, a.rel->size())));
  }
  return h.AgmBoundLog2(log_sizes);
}

std::vector<Tuple> JoinQuery::BruteForceJoin(int depth) const {
  const int n = num_attrs();
  const uint64_t dom = uint64_t{1} << depth;
  std::vector<Tuple> out;
  Tuple t(n, 0);
  Tuple proj;
  for (;;) {
    bool ok = true;
    for (const Atom& a : atoms_) {
      proj.clear();
      for (int id : a.var_ids) proj.push_back(t[id]);
      if (!a.rel->Contains(proj)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(t);
    int i = n - 1;
    while (i >= 0 && ++t[i] == dom) t[i--] = 0;
    if (i < 0) break;
  }
  return out;
}

}  // namespace tetris

#include "kb/dyadic_tree_store.h"

#include <algorithm>
#include <cassert>

#include "util/bit_ops.h"

namespace tetris {
namespace {

// Worst case Insert appends per level: a split node, a suffix leaf, and the
// next level's root. Reserving this up front lets the walk (Descend) use a
// raw Node* without re-fetching nodes_.data() after every append.
constexpr int kMaxNewNodesPerLevel = 3;

// The capacity a vector that doubles from `step` keeps for `n` elements:
// the next step * 2^k, or 0 for none. Single inserts grow the node arena
// from 64 nodes, the provenance bits from 1.
size_t DoubledCapacity(size_t n, size_t step) {
  if (n == 0) return 0;
  size_t cap = step;
  while (cap < n) cap *= 2;
  return cap;
}

// Moves `v` to a buffer of capacity `cap` if it holds more.
template <typename T>
void CutCapacity(std::vector<T>* v, size_t cap) {
  if (v->capacity() <= cap) return;
  std::vector<T> moved;
  moved.reserve(cap);
  moved.assign(v->begin(), v->end());
  v->swap(moved);
}

}  // namespace

DyadicTreeStore::DyadicTreeStore(int dims) : dims_(dims) {
  // The walks keep one root per level in kMaxDims-slot arrays.
  assert(dims >= 0 && dims <= kMaxDims);
  root_ = NewNode(0, 0);
}

int32_t DyadicTreeStore::NewNode(uint64_t edge_bits, int edge_len) {
  Node n;
  n.edge_bits = edge_bits;
  n.edge_len = static_cast<uint8_t>(edge_len);
  nodes_.push_back(n);
  return static_cast<int32_t>(nodes_.size()) - 1;
}

void DyadicTreeStore::CopyBox(int32_t id, DyadicBox* out) const {
  assert(out->dims() == dims_);
  // pool_.data(), not &pool_[...]: a 0-dimension store has an empty pool.
  const DyadicInterval* comps =
      pool_.data() + static_cast<size_t>(id) * dims_;
  for (int i = 0; i < dims_; ++i) (*out)[i] = comps[i];
  out->set_output_derived(flags_[id] != 0);
}

DyadicBox DyadicTreeStore::Box(size_t id) const {
  DyadicBox b = DyadicBox::Universal(dims_);
  CopyBox(static_cast<int32_t>(id), &b);
  return b;
}

// Inlined into both callers, so Insert (every resolvent and reloaded
// gap) walks without a call, and the roots it never reads drop out.
[[gnu::always_inline]] inline int32_t DyadicTreeStore::Descend(
    int32_t node, int level, const DyadicInterval* c, int32_t* roots) {
  Node* nodes = nodes_.data();
  for (; level < dims_; ++level) {
    const DyadicInterval& iv = c[level];
    uint64_t rem_bits = iv.bits;
    int rem_len = iv.len;
    while (rem_len > 0) {
      const int bit = static_cast<int>((rem_bits >> (rem_len - 1)) & 1);
      int32_t next = nodes[node].child[bit];
      if (next < 0) {
        // Fresh path: one node absorbs the whole remaining suffix.
        next = NewNode(rem_bits, rem_len);
        nodes[node].child[bit] = next;
        node = next;
        rem_len = 0;
        break;
      }
      const uint64_t edge_bits = nodes[next].edge_bits;
      const int edge_len = nodes[next].edge_len;
      if (edge_len <= rem_len &&
          IsBitPrefix(edge_bits, edge_len, rem_bits, rem_len)) {
        // Whole edge consumed in one word compare.
        rem_len -= edge_len;
        rem_bits &= LowMask(rem_len);
        node = next;
        continue;
      }
      // Partial match: split the edge at the first diverging bit. p >= 1
      // because the child slot already matched the leading bit.
      const int m = edge_len < rem_len ? edge_len : rem_len;
      const int p =
          FirstDiffBit(edge_bits >> (edge_len - m), rem_bits >> (rem_len - m),
                       m);
      const int32_t mid = NewNode(edge_bits >> (edge_len - p), p);
      Node& old_child = nodes[next];
      old_child.edge_bits = edge_bits & LowMask(edge_len - p);
      old_child.edge_len = static_cast<uint8_t>(edge_len - p);
      const int old_first =
          static_cast<int>((old_child.edge_bits >> (edge_len - p - 1)) & 1);
      nodes[mid].child[old_first] = next;
      nodes[node].child[bit] = mid;
      node = mid;
      rem_len -= p;
      rem_bits &= LowMask(rem_len);
      if (rem_len > 0) {
        // The rest of the component diverges from the old edge here.
        const int rbit = static_cast<int>((rem_bits >> (rem_len - 1)) & 1);
        const int32_t leaf = NewNode(rem_bits, rem_len);
        nodes[node].child[rbit] = leaf;
        node = leaf;
        rem_len = 0;
      }
      break;
    }
    if (level + 1 < dims_) {
      int32_t next = nodes[node].down;
      if (next < 0) {
        next = NewNode(0, 0);
        nodes[node].down = next;
      }
      node = next;
      roots[level + 1] = node;
    }
  }
  return node;
}

bool DyadicTreeStore::Insert(const DyadicBox& b) {
  assert(flags_.size() == count_ && "staged boxes must be inserted first");
  // Grow once per insert so the walk never invalidates its node pointer;
  // after a bulk insert, this rejoins the doubling schedule.
  const size_t need =
      nodes_.size() + static_cast<size_t>(kMaxNewNodesPerLevel) * dims_;
  if (need > nodes_.capacity()) nodes_.reserve(DoubledCapacity(need, 64));
  int32_t roots[kMaxDims];  // not read: Insert keeps no finger
  const int32_t leaf = Descend(root_, 0, &b[0], roots);
  if (nodes_[leaf].down >= 0) return false;  // identical box present
  nodes_[leaf].down = static_cast<int32_t>(count_);
  pool_.insert(pool_.end(), &b[0], &b[0] + dims_);
  flags_.push_back(b.output_derived() ? 1 : 0);
  ++count_;
  return true;
}

void DyadicTreeStore::Stage(const DyadicBox& b) {
  // Insert's pool growth (dims_ * 2^k components), by hand: a range
  // insert of a few components cost twice the time of these push_backs.
  if (pool_.size() == pool_.capacity()) {
    pool_.reserve(pool_.empty() ? dims_ : 2 * pool_.size());
  }
  for (int i = 0; i < dims_; ++i) pool_.push_back(b[i]);
  flags_.push_back(b.output_derived() ? 1 : 0);
}

size_t DyadicTreeStore::InsertStaged() {
  const size_t first = count_;
  const size_t end = flags_.size();
  DyadicInterval* pool = pool_.data();
  // Where box k's walk enters: level 0 for the first staged box, else
  // the first component where it differs from box k - 1 (dims_: the same
  // box again). Box k - 1 still sits at its staged slot when box k is
  // read: a fresh box moves only down to slot count_ <= k.
  const auto entry = [&](size_t k) {
    if (k == first) return 0;
    const DyadicInterval* c = pool + k * dims_;
    int j = 0;
    while (j < dims_ && c[j] == c[j - dims_]) ++j;
    return j;
  };
  // The arena's one allocation. From its entry level j a walk appends at
  // most a split and a leaf on level j, and on each deeper level a fresh
  // root and a leaf or, under an existing root, a split and a leaf; a λ
  // component adds no leaf.
  size_t bound = 0;
  for (size_t k = first; k < end; ++k) {
    const DyadicInterval* c = pool + k * dims_;
    const int j = entry(k);
    if (j == dims_) continue;
    bound += c[j].len > 0 ? 2 : 0;
    for (int l = j + 1; l < dims_; ++l) bound += c[l].len > 0 ? 2 : 1;
  }
  nodes_.reserve(nodes_.size() + bound);
  // The finger: roots[j] is the level-j root on box k - 1's path, which
  // box k shares up to its entry level.
  int32_t roots[kMaxDims];
  roots[0] = root_;
  for (size_t k = first; k < end; ++k) {
    const int j = entry(k);
    if (k != first && j == dims_) continue;  // box k - 1 again
    const DyadicInterval* c = pool + k * dims_;
    const int32_t leaf = Descend(roots[j], j, c, roots);
    if (nodes_[leaf].down >= 0) continue;  // identical box present
    nodes_[leaf].down = static_cast<int32_t>(count_);
    if (k != count_) {
      std::copy(c, c + dims_, pool + count_ * dims_);
      flags_[count_] = flags_[k];
    }
    ++count_;
  }
  pool_.resize(count_ * dims_);
  flags_.resize(count_);
  // Boxes out of trie order (an R-tree's gaps, say) share few fingers, so
  // the bound can overshoot the nodes appended; duplicates leave the pool
  // and the bits room for boxes that were dropped. Each buffer holding
  // more than single inserts would hold for what is kept moves down to
  // that capacity, so later Inserts grow it on their own schedule.
  CutCapacity(&nodes_, DoubledCapacity(nodes_.size(), 64));
  CutCapacity(&pool_, dims_ * DoubledCapacity(count_, 1));
  CutCapacity(&flags_, DoubledCapacity(count_, 1));
  return count_ - first;
}

template <typename Visit>
bool DyadicTreeStore::WalkPath(int32_t node, const DyadicInterval& iv,
                               int64_t* visited, Visit&& visit) const {
  uint64_t rem_bits = iv.bits;
  int rem_len = iv.len;
  // Walk the prefix path of the component from λ downward; every explicit
  // node on the path is a stored prefix candidate.
  for (;;) {
    ++*visited;
    const Node& nd = nodes_[node];
    if (visit(nd)) return true;
    if (rem_len == 0) return false;
    const int bit = static_cast<int>((rem_bits >> (rem_len - 1)) & 1);
    const int32_t next = nd.child[bit];
    if (next < 0) return false;
    const Node& c = nodes_[next];
    // A stored prefix of the component must stay on the component's bit
    // path: the child's whole edge label must prefix the remaining bits.
    if (!IsBitPrefix(c.edge_bits, c.edge_len, rem_bits, rem_len)) {
      return false;
    }
    rem_len -= c.edge_len;
    rem_bits &= LowMask(rem_len);
    node = next;
  }
}

int32_t DyadicTreeStore::FindRec(int32_t node, const DyadicBox& b,
                                 int level, int64_t* visited) const {
  int32_t found = -1;
  WalkPath(node, b[level], visited, [&](const Node& nd) {
    if (nd.down < 0) return false;
    found = level + 1 >= dims_ ? nd.down
                               : FindRec(nd.down, b, level + 1, visited);
    return found >= 0;
  });
  return found;
}

bool DyadicTreeStore::FindContaining(const DyadicBox& b,
                                     DyadicBox* out) const {
  int64_t visited = 0;  // not reported
  const int32_t id = FindRec(root_, b, 0, &visited);
  if (id < 0) return false;
  CopyBox(id, out);
  return true;
}

bool DyadicTreeStore::FindContaining(const DyadicBox& b, int level,
                                     Cursor* cursor, DyadicBox* out,
                                     int64_t* nodes_visited) const {
  assert(level >= 0 && (level < dims_ || level == 0));
  Cursor& c = *cursor;
  if (c.depth_ < 0 || c.kb_size_ != count_) {
    c.roots_.assign(1, root_);  // R_0
    c.begin_[0] = 0;
    c.begin_[1] = 1;
    c.depth_ = 0;
    c.kb_size_ = count_;
  }
  if (c.depth_ < level) {
    // Descend: R_{j+1} lists, in order, the next-level roots met along
    // component j's path from each root of R_j, as FindRec recurses.
    c.roots_.resize(c.begin_[c.depth_ + 1]);
    for (int j = c.depth_; j < level; ++j) {
      for (uint32_t i = c.begin_[j]; i < c.begin_[j + 1]; ++i) {
        WalkPath(c.roots_[i], b[j], nodes_visited, [&](const Node& nd) {
          if (nd.down >= 0) c.roots_.push_back(nd.down);
          return false;
        });
      }
      c.begin_[j + 2] = static_cast<uint32_t>(c.roots_.size());
    }
    c.depth_ = level;
  }
  for (uint32_t i = c.begin_[level]; i < c.begin_[level + 1]; ++i) {
    const int32_t id = FindRec(c.roots_[i], b, level, nodes_visited);
    if (id >= 0) {
      CopyBox(id, out);
      return true;
    }
  }
  return false;
}

void DyadicTreeStore::CollectRec(int32_t node, const DyadicBox& b, int level,
                                 std::vector<DyadicBox>* out) const {
  int64_t visited = 0;  // not reported
  WalkPath(node, b[level], &visited, [&](const Node& nd) {
    if (nd.down >= 0) {
      if (level + 1 >= dims_) {
        out->push_back(Box(nd.down));
      } else {
        CollectRec(nd.down, b, level + 1, out);
      }
    }
    return false;
  });
}

void DyadicTreeStore::CollectContaining(const DyadicBox& b,
                                        std::vector<DyadicBox>* out) const {
  CollectRec(root_, b, 0, out);
}

bool DyadicTreeStore::ContainsExact(const DyadicBox& b) const {
  std::vector<DyadicBox> sup;
  CollectContaining(b, &sup);
  for (const auto& s : sup) {
    if (s == b) return true;
  }
  return false;
}

void DyadicTreeStore::AllRec(int32_t node, int level,
                             std::vector<DyadicBox>* out) const {
  const Node& nd = nodes_[node];
  if (nd.down >= 0) {
    if (level + 1 >= dims_) {
      out->push_back(Box(nd.down));
    } else {
      AllRec(nd.down, level + 1, out);
    }
  }
  for (int bit = 0; bit < 2; ++bit) {
    if (nd.child[bit] >= 0) AllRec(nd.child[bit], level, out);
  }
}

std::vector<DyadicBox> DyadicTreeStore::AllBoxes() const {
  std::vector<DyadicBox> out;
  out.reserve(count_);
  AllRec(root_, 0, &out);
  return out;
}

size_t DyadicTreeStore::MemoryBytes() const {
  return nodes_.capacity() * sizeof(Node) +
         pool_.capacity() * sizeof(DyadicInterval) + flags_.capacity() +
         sizeof(*this);
}

}  // namespace tetris

// Relations over discrete ordered domains (paper, Section 3.1).
//
// Attribute domains are {0,1}^d — equivalently the integers [0, 2^d) — with
// d logarithmic in the data. A Relation is a named, deduplicated set of
// arity-k tuples; indexing structures over relations live in src/index.
//
// Storage is columnar-era flat: all rows live in ONE contiguous
// arity-strided uint64_t buffer (row-major, stride = arity), not one heap
// allocation per row. Row access goes through TupleRef, a non-owning
// 16-byte proxy over a buffer slice; materializing a std::vector-backed
// Tuple is explicit (ToTuple) and reserved for boundaries that must own
// their row (engine outputs, server responses). Scanning a relation walks
// one linear buffer — sequential prefetch, zero pointer chasing — and
// building an index over n rows costs one O(n) gather instead of n
// per-row allocations.
#ifndef TETRIS_RELATION_RELATION_H_
#define TETRIS_RELATION_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tetris {

/// A materialized, owning tuple of attribute values. The interchange type
/// at API boundaries (probe arguments, engine results); bulk row storage
/// uses Relation's flat buffer instead.
using Tuple = std::vector<uint64_t>;

/// Sorts `tuples` lexicographically and removes duplicates: the canonical
/// form of every engine result and delta. A run that is already strictly
/// increasing (one comparison pass) is left as it is, so an engine that
/// emits in order pays no sort.
void CanonicalizeTuples(std::vector<Tuple>* tuples);

/// Bytes a result of `tuples` holds: per row, its Tuple header and its
/// values (every row of a result has the same arity). The one measure of
/// MemoryStats::output_bytes and of cached results.
size_t TupleBytes(const std::vector<Tuple>& tuples);

/// A non-owning view of one row inside a flat arity-strided buffer.
/// Valid as long as the owning buffer is neither mutated nor destroyed.
class TupleRef {
 public:
  TupleRef(const uint64_t* p, int k) : p_(p), k_(k) {}

  uint64_t operator[](int i) const { return p_[i]; }
  int size() const { return k_; }
  const uint64_t* data() const { return p_; }

  /// Materializes an owning copy.
  Tuple ToTuple() const { return Tuple(p_, p_ + k_); }
  operator Tuple() const { return ToTuple(); }

  friend bool operator==(const TupleRef& a, const TupleRef& b) {
    if (a.k_ != b.k_) return false;
    for (int i = 0; i < a.k_; ++i) {
      if (a.p_[i] != b.p_[i]) return false;
    }
    return true;
  }
  friend bool operator<(const TupleRef& a, const TupleRef& b) {
    const int m = a.k_ < b.k_ ? a.k_ : b.k_;
    for (int i = 0; i < m; ++i) {
      if (a.p_[i] != b.p_[i]) return a.p_[i] < b.p_[i];
    }
    return a.k_ < b.k_;
  }

 private:
  const uint64_t* p_;
  int k_;
};

/// A relation instance: a set of tuples plus the names of its attributes.
/// Attribute names tie relation columns to query attributes (vars(R)).
class Relation {
 public:
  /// Forward iterator over rows, yielding TupleRef proxies. It counts
  /// rows rather than buffer positions: a 0-ary relation holding the
  /// empty tuple has one row and an empty buffer.
  class RowIterator {
   public:
    RowIterator(const uint64_t* p, int k, size_t i) : p_(p), k_(k), i_(i) {}
    TupleRef operator*() const { return TupleRef(p_, k_); }
    RowIterator& operator++() {
      p_ += k_;
      ++i_;
      return *this;
    }
    bool operator!=(const RowIterator& o) const { return i_ != o.i_; }

   private:
    const uint64_t* p_;
    int k_;
    size_t i_;
  };

  /// An iterable view over all rows: `for (TupleRef t : rel.rows())`.
  class RowRange {
   public:
    RowRange(const uint64_t* begin, size_t rows, int k)
        : begin_(begin), rows_(rows), k_(k) {}
    RowIterator begin() const { return RowIterator(begin_, k_, 0); }
    RowIterator end() const { return RowIterator(nullptr, k_, rows_); }

   private:
    const uint64_t* begin_;
    size_t rows_;
    int k_;
  };

  Relation(std::string name, std::vector<std::string> attrs)
      : name_(std::move(name)), attrs_(std::move(attrs)) {}

  /// Builds a relation and canonicalizes it (sorts and deduplicates).
  static Relation Make(std::string name, std::vector<std::string> attrs,
                       std::vector<Tuple> tuples);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& attrs() const { return attrs_; }
  int arity() const { return static_cast<int>(attrs_.size()); }

  size_t size() const { return rows_; }
  TupleRef row(size_t i) const {
    return TupleRef(data_.data() + i * attrs_.size(), arity());
  }
  RowRange rows() const { return RowRange(data_.data(), rows_, arity()); }
  /// The flat row-major buffer, size() * arity() values.
  const std::vector<uint64_t>& raw() const { return data_; }

  /// Materializes every row as an owning Tuple (boundary use only).
  std::vector<Tuple> ToTuples() const;

  /// Adds a tuple (does not deduplicate; call Canonicalize after bulk adds).
  /// `t.size()` must equal arity().
  void Add(const Tuple& t);
  /// Adds a row from any contiguous arity()-value span.
  void AddRow(const uint64_t* v);
  /// Pre-allocates buffer space for `n` rows.
  void Reserve(size_t n) { data_.reserve(n * attrs_.size()); }

  /// Sorts lexicographically and removes duplicates.
  void Canonicalize();

  /// True iff `t` is a tuple of the relation. Requires canonical form.
  bool Contains(const Tuple& t) const;

  /// Index of attribute `name` within this relation, or -1.
  int AttrIndex(const std::string& name) const;

  /// Largest value appearing in any column (used to size domains); 0
  /// for an empty or 0-ary relation. O(1): Add/AddRow maintain it, and
  /// Canonicalize only drops duplicate rows, so it cannot change it.
  uint64_t MaxValue() const { return max_value_; }

 private:
  std::string name_;
  std::vector<std::string> attrs_;
  /// Row-major flat storage: rows_ * arity() values, stride arity().
  std::vector<uint64_t> data_;
  size_t rows_ = 0;
  uint64_t max_value_ = 0;
};

}  // namespace tetris

#endif  // TETRIS_RELATION_RELATION_H_

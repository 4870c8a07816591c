// Oracle access to the input box set B of a BCP instance (paper, §3.4).
//
// Tetris never scans B; it only asks, for a candidate output point, which
// gap boxes of B contain it (paper, Algorithm 2, line 4). The oracle
// abstraction lets the same engine run over a materialized box set (raw
// BCP instances, certificate experiments) or a live view of relation
// indices (the join runner in src/engine).
//
// Probe and the enumeration calls hand their boxes to a BoxSink
// (geometry/dyadic_box.h), so the engine loads each gap box into its
// knowledge base as it arrives. The sink contract is the index layer's
// (index/index.h): the sink runs on the caller's thread, once per box,
// before the call returns; a box is valid only during its sink call; and
// the boxes arrive in the order the oracle documents, the same on every
// call — the engine's insert order, and so its work, follows it.
#ifndef TETRIS_KB_BOX_ORACLE_H_
#define TETRIS_KB_BOX_ORACLE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "kb/dyadic_tree_store.h"

namespace tetris {

/// Oracle interface over a set of gap boxes B.
class BoxOracle {
 public:
  virtual ~BoxOracle() = default;

  /// Emits the gap boxes of B that contain the unit box `point`.
  /// Emitting nothing certifies that `point` is an output tuple.
  virtual void Probe(const DyadicBox& point, BoxSink sink) const = 0;

  /// Dimensionality of the output space.
  virtual int dims() const = 0;

  /// Emits *all* gap boxes of B (used by Tetris-Preloaded to initialize
  /// A := B). Returns false if the oracle cannot enumerate its box set,
  /// as this default does, emitting nothing.
  virtual bool EnumerateAll(BoxSink sink) const {
    (void)sink;
    return false;
  }

  /// Number of Probe calls served (oracle-access accounting, footnote 4).
  int64_t probe_count() const {
    return probe_count_.load(std::memory_order_relaxed);
  }

 protected:
  // Atomic so one oracle may serve concurrent engine runs (the parallel
  // executor's thread-safety contract: Probe must be const-thread-safe).
  mutable std::atomic<int64_t> probe_count_{0};
};

/// Oracle over an explicitly materialized box set, indexed by a multilevel
/// dyadic tree. Optionally filters probe results down to maximal boxes.
class MaterializedOracle : public BoxOracle {
 public:
  explicit MaterializedOracle(int dims, bool maximal_only = true)
      : store_(dims), maximal_only_(maximal_only) {}

  /// Adds a gap box to B. Duplicates are ignored.
  void Add(const DyadicBox& b) {
    if (store_.Insert(b)) ++size_;
  }
  void AddAll(const std::vector<DyadicBox>& boxes) {
    for (const auto& b : boxes) Add(b);
  }

  /// The store's containing boxes (maximal ones only, if so built), in
  /// store order.
  void Probe(const DyadicBox& point, BoxSink sink) const override;

  int dims() const override { return store_.dims(); }

  /// In the store's insertion-independent tree order.
  bool EnumerateAll(BoxSink sink) const override {
    for (const DyadicBox& b : store_.AllBoxes()) sink(b);
    return true;
  }

  /// Number of distinct boxes in B.
  size_t size() const { return size_; }

 private:
  DyadicTreeStore store_;
  bool maximal_only_;
  size_t size_ = 0;
};

/// Removes from `boxes` every box strictly contained in another element.
void KeepMaximalBoxes(std::vector<DyadicBox>* boxes);

}  // namespace tetris

#endif  // TETRIS_KB_BOX_ORACLE_H_

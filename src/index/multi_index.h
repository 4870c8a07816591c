// Multiple indices per relation (paper, Appendix B.2).
//
// "A fact often seen in practice is that relations are indexed with
// multiple search keys" — the gap boxes of a relation are the union of
// the gap boxes of all its indices, and probing returns one maximal gap
// per index. With both a (A,B)- and a (B,A)-ordered B-tree, certificates
// can be asymptotically smaller than with either alone (Example B.3).
#ifndef TETRIS_INDEX_MULTI_INDEX_H_
#define TETRIS_INDEX_MULTI_INDEX_H_

#include <memory>

#include "index/index.h"

namespace tetris {

/// A bundle of indices over the same relation acting as one gap source.
class MultiIndex : public Index {
 public:
  explicit MultiIndex(std::vector<std::unique_ptr<Index>> indexes)
      : indexes_(std::move(indexes)) {}

  int arity() const override { return indexes_.front()->arity(); }
  int depth() const override { return indexes_.front()->depth(); }

  /// Each index's gaps in turn, in bundle order.
  void GapsIntersecting(const DyadicBox& box, BoxSink sink) const override {
    for (const auto& ix : indexes_) ix->GapsIntersecting(box, sink);
  }

  /// Each index's probe in turn, in bundle order.
  void GapsContaining(const uint64_t* t, BoxSink sink) const override {
    for (const auto& ix : indexes_) ix->GapsContaining(t, sink);
  }

  size_t MemoryBytes() const override {
    size_t total = 0;
    for (const auto& ix : indexes_) total += ix->MemoryBytes();
    return total;
  }

  std::string Describe() const override {
    std::string s = "multi[";
    for (size_t i = 0; i < indexes_.size(); ++i) {
      if (i) s += "; ";
      s += indexes_[i]->Describe();
    }
    return s + "]";
  }

  size_t index_count() const { return indexes_.size(); }

 private:
  std::vector<std::unique_ptr<Index>> indexes_;
};

}  // namespace tetris

#endif  // TETRIS_INDEX_MULTI_INDEX_H_

// Dyadic boxes (paper, Definition 3.3).
//
// A dyadic box over n attributes is an n-tuple of dyadic intervals. Boxes
// whose components are all unit intervals are points (candidate output
// tuples); the knowledge base of Tetris stores gap boxes — boxes known to
// contain no output tuples.
//
// Boxes also carry a provenance bit: whether they were derived (directly or
// through resolution) from an *output* box. This implements the paper's
// distinction between gap-box resolutions and output-box resolutions
// (Definitions C.3 / C.4), which the runtime analysis counts separately.
#ifndef TETRIS_GEOMETRY_DYADIC_BOX_H_
#define TETRIS_GEOMETRY_DYADIC_BOX_H_

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "geometry/dyadic_interval.h"

namespace tetris {

/// Maximum number of dimensions a box can have. The Balance lift (paper,
/// Section F.5) maps n dimensions to 2n-2, so 16 supports queries with up
/// to 9 attributes even after lifting. ValidateEngineOptions
/// (engine/join_engine.h) enforces it on every entry point with
/// kQueryTooWideError: at most 16 attributes and 16 columns per atom on
/// the Tetris family, 9 attributes on its Balance-lifted variants, and
/// 16 on any engine whose run plans shard boxes (sharded, batched,
/// patched and served runs).
inline constexpr int kMaxDims = 16;

/// An n-dimensional dyadic box.
class DyadicBox {
 public:
  DyadicBox() = default;

  /// A box with `n` λ components: the universal box <λ, ..., λ>.
  static DyadicBox Universal(int n) {
    DyadicBox b;
    b.n_ = static_cast<uint8_t>(n);
    return b;
  }

  /// A unit box (point) from `n` depth-`d` coordinate values.
  static DyadicBox Point(const uint64_t* values, int n, int d) {
    DyadicBox b = Universal(n);
    for (int i = 0; i < n; ++i) b.iv_[i] = DyadicInterval::Unit(values[i], d);
    return b;
  }
  static DyadicBox Point(const std::vector<uint64_t>& values, int d) {
    return Point(values.data(), static_cast<int>(values.size()), d);
  }

  /// A box from explicit components.
  static DyadicBox Of(std::initializer_list<DyadicInterval> ivs) {
    DyadicBox b;
    b.n_ = static_cast<uint8_t>(ivs.size());
    int i = 0;
    for (const auto& iv : ivs) b.iv_[i++] = iv;
    return b;
  }

  int dims() const { return n_; }

  const DyadicInterval& operator[](int i) const { return iv_[i]; }
  DyadicInterval& operator[](int i) { return iv_[i]; }

  bool output_derived() const { return output_derived_; }
  void set_output_derived(bool v) { output_derived_ = v; }

  /// True iff every component of this box contains the corresponding
  /// component of `other` (containment in the dyadic-box poset).
  bool Contains(const DyadicBox& other) const {
    for (int i = 0; i < n_; ++i) {
      if (!iv_[i].Contains(other.iv_[i])) return false;
    }
    return true;
  }

  /// True iff the boxes share at least one point (component-wise
  /// comparability, since dyadic intervals intersect iff comparable).
  bool Intersects(const DyadicBox& other) const {
    for (int i = 0; i < n_; ++i) {
      if (!iv_[i].ComparableWith(other.iv_[i])) return false;
    }
    return true;
  }

  /// True iff the depth-`d` point `values` lies inside the box.
  bool ContainsPoint(const uint64_t* values, int d) const {
    for (int i = 0; i < n_; ++i) {
      if (!iv_[i].ContainsValue(values[i], d)) return false;
    }
    return true;
  }
  bool ContainsPoint(const std::vector<uint64_t>& values, int d) const {
    return ContainsPoint(values.data(), d);
  }

  /// True iff every component is a unit interval in a uniform depth-`d`
  /// space (for variable-depth spaces the engine's SplitSpace decides).
  bool IsUnitUniform(int d) const {
    for (int i = 0; i < n_; ++i) {
      if (iv_[i].len != d) return false;
    }
    return true;
  }

  /// The set of dimensions whose component is not λ (paper, Definition 3.7).
  std::vector<int> Support() const {
    std::vector<int> s;
    for (int i = 0; i < n_; ++i) {
      if (!iv_[i].IsLambda()) s.push_back(i);
    }
    return s;
  }

  /// Support as a bitmask over dimensions.
  uint32_t SupportMask() const {
    uint32_t m = 0;
    for (int i = 0; i < n_; ++i) {
      if (!iv_[i].IsLambda()) m |= 1u << i;
    }
    return m;
  }

  /// Projection onto a set of dimensions: components outside `dims_mask`
  /// become λ (paper, Definition E.2).
  DyadicBox Project(uint32_t dims_mask) const {
    DyadicBox b = Universal(n_);
    for (int i = 0; i < n_; ++i) {
      if (dims_mask & (1u << i)) b.iv_[i] = iv_[i];
    }
    b.output_derived_ = output_derived_;
    return b;
  }

  /// Number of depth-`d` points covered (volume). Only valid when
  /// n * d fits comfortably; callers use small d for volume accounting.
  double VolumeAt(int d) const {
    double v = 1.0;
    for (int i = 0; i < n_; ++i) {
      v *= static_cast<double>(iv_[i].SizeAt(d));
    }
    return v;
  }

  /// The coordinate values of a unit box in a uniform depth-`d` space.
  std::vector<uint64_t> ToPoint() const {
    std::vector<uint64_t> vals(n_);
    for (int i = 0; i < n_; ++i) vals[i] = iv_[i].bits;
    return vals;
  }

  bool operator==(const DyadicBox& other) const {
    if (n_ != other.n_) return false;
    for (int i = 0; i < n_; ++i) {
      if (iv_[i] != other.iv_[i]) return false;
    }
    return true;
  }
  bool operator!=(const DyadicBox& other) const { return !(*this == other); }

  /// e.g. "<01, λ, 1101>".
  std::string ToString() const {
    std::string s = "<";
    for (int i = 0; i < n_; ++i) {
      if (i) s += ", ";
      s += iv_[i].ToString();
    }
    s += ">";
    return s;
  }

 private:
  std::array<DyadicInterval, kMaxDims> iv_ = {};
  uint8_t n_ = 0;
  bool output_derived_ = false;
};

/// Hash over all components (ignores provenance).
struct DyadicBoxHash {
  size_t operator()(const DyadicBox& b) const {
    DyadicIntervalHash h;
    size_t acc = 0x243f6a8885a308d3ULL ^ static_cast<size_t>(b.dims());
    for (int i = 0; i < b.dims(); ++i) {
      acc = acc * 0x100000001b3ULL ^ h(b[i]);
    }
    return acc;
  }
};

/// Where gap and probe calls (index/index.h, kb/box_oracle.h) put their
/// boxes: a non-owning reference to a callable taking `const DyadicBox&`,
/// two words, passed by value and never allocating. Use one only as a
/// parameter: a lambda written as the argument lives until the call
/// returns, but a named sink made from a temporary would dangle.
class BoxSink {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, BoxSink>>>
  BoxSink(F&& f)  // implicit: a lambda converts at the call site
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* obj, const DyadicBox& b) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(b);
        }) {}

  void operator()(const DyadicBox& b) const { call_(obj_, b); }

 private:
  void* obj_;
  void (*call_)(void*, const DyadicBox&);
};

}  // namespace tetris

#endif  // TETRIS_GEOMETRY_DYADIC_BOX_H_

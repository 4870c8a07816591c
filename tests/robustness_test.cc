// Failure injection and edge-of-domain robustness: the engine contract
// only requires the oracle to return gap boxes (at least one containing a
// missing probe). Sloppy oracles — duplicates, dominated boxes, shuffled
// order — must not change the output; deep domains must not overflow.

#include <gtest/gtest.h>

#include <algorithm>

#include "box_collect.h"
#include "engine/balance.h"
#include "engine/tetris.h"
#include "geometry/decompose.h"
#include "util/rng.h"

namespace tetris {
namespace {

DyadicInterval Iv(uint64_t bits, int len) {
  return {bits, static_cast<uint8_t>(len)};
}
const DyadicInterval kLam = DyadicInterval::Lambda();

// Wraps a materialized oracle and degrades the probe answers: results are
// duplicated, dominated sub-boxes are appended, and the order shuffled.
class SloppyOracle : public BoxOracle {
 public:
  SloppyOracle(const MaterializedOracle* base, uint64_t seed)
      : base_(base), rng_(seed) {}

  int dims() const override { return base_->dims(); }

  void Probe(const DyadicBox& point, BoxSink sink) const override {
    ++probe_count_;
    std::vector<DyadicBox> clean;
    base_->Probe(point, AppendTo(&clean));
    std::vector<DyadicBox> noisy;
    for (const DyadicBox& b : clean) {
      noisy.push_back(b);
      noisy.push_back(b);  // duplicate
      // Dominated sub-box: shrink one non-unit dimension toward the probe.
      DyadicBox sub = b;
      for (int i = 0; i < sub.dims(); ++i) {
        if (sub[i].len < 62 && !point[i].IsLambda() &&
            sub[i].Contains(point[i]) && sub[i].len < point[i].len) {
          sub[i] = point[i].Prefix(sub[i].len + 1);
          break;
        }
      }
      noisy.push_back(sub);
    }
    // Shuffle deterministically.
    for (size_t i = noisy.size(); i > 1; --i) {
      std::swap(noisy[i - 1], noisy[rng_.Below(i)]);
    }
    for (const DyadicBox& b : noisy) sink(b);
  }

  bool EnumerateAll(BoxSink sink) const override {
    return base_->EnumerateAll(sink);
  }

 private:
  const MaterializedOracle* base_;
  mutable Rng rng_;
};

TEST(Robustness, SloppyOracleSameOutput) {
  Rng rng(404);
  for (int iter = 0; iter < 10; ++iter) {
    const int n = 2 + static_cast<int>(rng.Below(2));
    const int d = 3;
    MaterializedOracle clean(n, /*maximal_only=*/false);
    for (int i = 0; i < 20; ++i) {
      DyadicBox b = DyadicBox::Universal(n);
      for (int j = 0; j < n; ++j) {
        int len = static_cast<int>(rng.Below(d + 1));
        b[j] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
      }
      clean.Add(b);
    }
    SloppyOracle sloppy(&clean, iter);
    UniformSpace space(n, d);
    auto run = [&](const BoxOracle& oracle) {
      TetrisOptions opt;
      opt.init = TetrisOptions::Init::kReloaded;
      Tetris engine(&oracle, &space, opt);
      std::vector<std::vector<uint64_t>> out;
      engine.Run([&](const DyadicBox& p) {
        out.push_back(p.ToPoint());
        return true;
      });
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(run(clean), run(sloppy)) << "iter " << iter;
  }
}

TEST(Robustness, DeepDomainBooleanCover) {
  // d = 40: two half-space boxes cover a 2^40-per-dimension cube; the
  // engine must decide coverage without walking the domain.
  const int d = 40;
  MaterializedOracle oracle(2);
  oracle.Add(DyadicBox::Of({Iv(0, 1), kLam}));
  oracle.Add(DyadicBox::Of({Iv(1, 1), kLam}));
  UniformSpace space(2, d);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kPreloaded;
  TetrisStats stats;
  EXPECT_TRUE(IsFullyCovered(oracle, space, opt, &stats));
  EXPECT_LE(stats.resolutions, 4);
}

TEST(Robustness, DeepDomainSingleHole) {
  // Cover everything except one point at d = 30; Tetris must find exactly
  // that point, in ~d resolutions, not ~2^d.
  const int d = 30;
  const uint64_t hole_a = 123456789u, hole_b = 987654321u % (1u << 30);
  MaterializedOracle oracle(2);
  // Complement of {hole_a} on A crossed with λ, plus <hole_a> x
  // complement of {hole_b}.
  for (const DyadicInterval& iv :
       DyadicCover(0, hole_a - 1, d)) {
    oracle.Add(DyadicBox::Of({iv, kLam}));
  }
  for (const DyadicInterval& iv :
       DyadicCover(hole_a + 1, (uint64_t{1} << d) - 1, d)) {
    oracle.Add(DyadicBox::Of({iv, kLam}));
  }
  for (const DyadicInterval& iv : DyadicCover(0, hole_b - 1, d)) {
    oracle.Add(DyadicBox::Of({DyadicInterval::Unit(hole_a, d), iv}));
  }
  for (const DyadicInterval& iv :
       DyadicCover(hole_b + 1, (uint64_t{1} << d) - 1, d)) {
    oracle.Add(DyadicBox::Of({DyadicInterval::Unit(hole_a, d), iv}));
  }
  UniformSpace space(2, d);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kPreloaded;
  Tetris engine(&oracle, &space, opt);
  std::vector<std::vector<uint64_t>> out;
  engine.Run([&](const DyadicBox& p) {
    out.push_back(p.ToPoint());
    return true;
  });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (std::vector<uint64_t>{hole_a, hole_b}));
}

TEST(Robustness, LbFallbacksForLowDimensions) {
  // n = 1 and n = 2 skip the lift entirely but must still be correct.
  for (int n : {1, 2}) {
    MaterializedOracle oracle(n);
    DyadicBox half = DyadicBox::Universal(n);
    half[0] = Iv(0, 1);
    oracle.Add(half);
    TetrisLB lb(&oracle, n, 3, /*preloaded=*/true);
    int64_t outputs = 0;
    EXPECT_EQ(lb.Run([&](const DyadicBox&) {
      ++outputs;
      return true;
    }),
              RunStatus::kCompleted);
    // Half the space is uncovered: 4 * 8^{n-1} points.
    EXPECT_EQ(outputs, n == 1 ? 4 : 32);
  }
}

TEST(Robustness, RepeatedRunsAreDeterministic) {
  MaterializedOracle oracle(3);
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    DyadicBox b = DyadicBox::Universal(3);
    for (int j = 0; j < 3; ++j) {
      int len = static_cast<int>(rng.Below(3));
      b[j] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
    }
    oracle.Add(b);
  }
  UniformSpace space(3, 3);
  std::vector<std::vector<uint64_t>> first;
  for (int run = 0; run < 3; ++run) {
    TetrisOptions opt;
    opt.init = TetrisOptions::Init::kReloaded;
    Tetris engine(&oracle, &space, opt);
    std::vector<std::vector<uint64_t>> out;
    engine.Run([&](const DyadicBox& p) {
      out.push_back(p.ToPoint());
      return true;
    });
    if (run == 0) {
      first = out;
    } else {
      EXPECT_EQ(out, first) << "non-deterministic enumeration order";
    }
  }
}

}  // namespace
}  // namespace tetris

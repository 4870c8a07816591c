#include "engine/proof_log.h"

#include <gtest/gtest.h>

#include "engine/tetris.h"
#include "util/rng.h"

namespace tetris {
namespace {

DyadicInterval Iv(uint64_t bits, int len) {
  return {bits, static_cast<uint8_t>(len)};
}
const DyadicInterval kLam = DyadicInterval::Lambda();

TEST(ProofLog, HandVerifiedProof) {
  ProofLog log(2, 1);
  DyadicBox left = DyadicBox::Of({Iv(0, 1), kLam});
  DyadicBox right = DyadicBox::Of({Iv(1, 1), kLam});
  log.AddAxiom(left);
  log.AddAxiom(right);
  log.AddStep(left, right, DyadicBox::Universal(2), 0);
  std::string err;
  EXPECT_TRUE(log.Verify(&err)) << err;
  EXPECT_TRUE(log.Derives(DyadicBox::Universal(2)));
}

TEST(ProofLog, RejectsUnsoundStep) {
  ProofLog log(2, 2);
  DyadicBox a = DyadicBox::Of({Iv(0b00, 2), kLam});
  DyadicBox b = DyadicBox::Of({Iv(0b01, 2), kLam});
  log.AddAxiom(a);
  log.AddAxiom(b);
  // Claim the whole space from two quarter slabs: unsound.
  log.AddStep(a, b, DyadicBox::Universal(2), 0);
  std::string err;
  EXPECT_FALSE(log.Verify(&err));
  EXPECT_NE(err.find("unsound"), std::string::npos);
}

TEST(ProofLog, RejectsUnderivedPremise) {
  ProofLog log(2, 1);
  DyadicBox left = DyadicBox::Of({Iv(0, 1), kLam});
  DyadicBox right = DyadicBox::Of({Iv(1, 1), kLam});
  log.AddAxiom(left);  // `right` never registered
  log.AddStep(left, right, DyadicBox::Universal(2), 0);
  std::string err;
  EXPECT_FALSE(log.Verify(&err));
  EXPECT_NE(err.find("premise"), std::string::npos);
}

TEST(ProofLog, DotContainsAllNodes) {
  ProofLog log(2, 1);
  DyadicBox left = DyadicBox::Of({Iv(0, 1), kLam});
  DyadicBox right = DyadicBox::Of({Iv(1, 1), kLam});
  log.AddAxiom(left);
  log.AddAxiom(right);
  log.AddStep(left, right, DyadicBox::Universal(2), 0);
  std::string dot = log.ToDot();
  EXPECT_NE(dot.find("digraph proof"), std::string::npos);
  EXPECT_NE(dot.find("<λ, λ>"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

// Engine integration: every Tetris run produces a verifiable proof whose
// step count matches the resolution counter and which derives the
// universal box when the run covered the space.
class EngineProofProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineProofProperty, EngineProofsVerify) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 5; ++iter) {
    const int n = 2 + static_cast<int>(rng.Below(2));
    const int d = 2 + static_cast<int>(rng.Below(2));
    MaterializedOracle oracle(n);
    const int count = 5 + static_cast<int>(rng.Below(30));
    for (int i = 0; i < count; ++i) {
      DyadicBox b = DyadicBox::Universal(n);
      for (int j = 0; j < n; ++j) {
        int len = static_cast<int>(rng.Below(d + 1));
        b[j] = {rng.Below(uint64_t{1} << len), static_cast<uint8_t>(len)};
      }
      oracle.Add(b);
    }
    UniformSpace space(n, d);
    for (auto init : {TetrisOptions::Init::kPreloaded,
                      TetrisOptions::Init::kReloaded}) {
      for (bool cache : {true, false}) {
        ProofLog log(n, d);
        TetrisOptions opt;
        opt.init = init;
        opt.cache_resolvents = cache;
        opt.proof_log = &log;
        Tetris engine(&oracle, &space, opt);
        RunStatus status =
            engine.Run([](const DyadicBox&) { return true; });
        ASSERT_EQ(status, RunStatus::kCompleted);
        std::string err;
        EXPECT_TRUE(log.Verify(&err)) << err;
        EXPECT_EQ(log.step_count(),
                  static_cast<size_t>(engine.stats().resolutions));
        EXPECT_TRUE(log.Derives(DyadicBox::Universal(n)))
            << "completed run must derive full cover";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProofProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace tetris

#include "sat/tetris_sat.h"

#include <cassert>

namespace tetris {

DyadicBox ClauseToGapBox(const std::vector<int>& clause, int num_vars) {
  DyadicBox b = DyadicBox::Universal(num_vars);
  for (int lit : clause) {
    int v = lit > 0 ? lit : -lit;
    // The clause is falsified when the literal is false: variable pinned
    // to 0 for a positive literal, 1 for a negative one.
    b[v - 1] = DyadicInterval{lit > 0 ? 0u : 1u, 1};
  }
  return b;
}

namespace {

SatResult Run(const Cnf& f, bool stop_at_first, ProofLog* proof) {
  assert(f.num_vars >= 1 && f.num_vars <= kMaxDims);
  MaterializedOracle oracle(f.num_vars);
  for (const auto& c : f.clauses) {
    if (c.empty()) {
      // An empty clause is unsatisfiable: it falsifies everything.
      oracle.Add(DyadicBox::Universal(f.num_vars));
    } else {
      oracle.Add(ClauseToGapBox(c, f.num_vars));
    }
  }
  UniformSpace space(f.num_vars, /*depth=*/1);
  TetrisOptions opt;
  opt.init = TetrisOptions::Init::kPreloaded;
  opt.proof_log = proof;
  Tetris engine(&oracle, &space, opt);

  SatResult result;
  engine.Run([&](const DyadicBox& p) {
    uint64_t mask = 0;
    for (int v = 0; v < f.num_vars; ++v) {
      if (p[v].bits) mask |= uint64_t{1} << v;
    }
    if (!result.first_model) result.first_model = mask;
    ++result.model_count;
    return !stop_at_first;
  });
  result.stats = engine.stats();
  return result;
}

}  // namespace

SatResult CountModels(const Cnf& f, ProofLog* proof) {
  return Run(f, /*stop_at_first=*/false, proof);
}

SatResult Solve(const Cnf& f, ProofLog* proof) {
  return Run(f, /*stop_at_first=*/true, proof);
}

}  // namespace tetris

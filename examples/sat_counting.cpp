// Tetris as DPLL with clause learning (paper, Section 4.2.4, Appendix I).
//
// Clauses become gap boxes in the Boolean cube (Figure 8), branching is
// box splitting, learned clauses are cached resolvents, and #SAT is the
// box cover problem. For UNSAT formulas the engine leaves behind a
// machine-checkable geometric-resolution refutation.
//
// The correspondence also runs the other way: each clause is a relation
// holding its satisfying partial assignments, and the natural join of
// the clause relations is exactly the model set — so the closing section
// counts models with any engine behind the JoinEngine facade
// (`--engine=leapfrog` counts models with Leapfrog Triejoin).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "engine/cli.h"
#include "sat/tetris_sat.h"

using namespace tetris;

namespace {

// Lifts a clause into a relation over its variables: the 2^k - 1
// assignments of the clause's k variables that satisfy it.
Relation ClauseRelation(const std::vector<int>& clause, int id) {
  std::vector<std::string> attrs;
  for (int lit : clause) {
    attrs.push_back("x" + std::to_string(lit > 0 ? lit : -lit));
  }
  const int k = static_cast<int>(clause.size());
  std::vector<Tuple> tuples;
  for (uint64_t mask = 0; mask < (uint64_t{1} << k); ++mask) {
    bool sat = false;
    for (int j = 0; j < k && !sat; ++j) {
      const bool value = (mask >> j) & 1;
      sat = clause[j] > 0 ? value : !value;
    }
    if (!sat) continue;
    Tuple t;
    for (int j = 0; j < k; ++j) t.push_back((mask >> j) & 1);
    tuples.push_back(std::move(t));
  }
  return Relation::Make("C" + std::to_string(id), attrs,
                        std::move(tuples));
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisReloaded};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "sat_counting — #SAT as box covering, plus the "
                             "clause-relation join view")) {
    return *exit_code;
  }

  // A small satisfiable formula in DIMACS.
  const char* dimacs =
      "c (x1 v x2) & (~x1 v x3) & (~x2 v ~x3) & (x2 v x3)\n"
      "p cnf 3 4\n"
      "1 2 0\n"
      "-1 3 0\n"
      "-2 -3 0\n"
      "2 3 0\n";
  Cnf f = Cnf::ParseDimacs(dimacs);
  std::printf("formula:\n%s\n", f.ToDimacs().c_str());

  SatResult r = CountModels(f);
  std::printf("#models = %llu (brute force: %llu)\n",
              static_cast<unsigned long long>(r.model_count),
              static_cast<unsigned long long>(f.BruteForceCount()));
  if (r.first_model) {
    std::printf("first model mask = 0b");
    for (int v = f.num_vars - 1; v >= 0; --v) {
      std::printf("%d", static_cast<int>((*r.first_model >> v) & 1));
    }
    std::printf("  (learned clauses = %lld resolutions)\n\n",
                static_cast<long long>(r.stats.resolutions));
  }

  // Pigeonhole PHP(3,2): 3 pigeons, 2 holes — classically UNSAT and a
  // canonical hard case for resolution. Tetris leaves a refutation.
  Cnf php = PigeonholeCnf(3, 2);
  ProofLog proof(php.num_vars, 1);
  SatResult u = CountModels(php, &proof);
  std::printf("PHP(3,2): %llu models (UNSAT as expected)\n",
              static_cast<unsigned long long>(u.model_count));
  std::string err;
  bool ok = proof.Verify(&err);
  std::printf("refutation: %zu axioms, %zu resolution steps, verifies: "
              "%s\n",
              proof.axiom_count(), proof.step_count(), ok ? "YES" : "no");
  std::printf("derives the full cube (empty clause analogue): %s\n",
              proof.Derives(DyadicBox::Universal(php.num_vars)) ? "YES"
                                                                : "no");
  std::printf("\nFirst lines of the Graphviz proof DAG:\n");
  std::string dot = proof.ToDot();
  size_t pos = 0;
  for (int line = 0; line < 8 && pos != std::string::npos; ++line) {
    size_t next = dot.find('\n', pos);
    std::printf("  %s\n", dot.substr(pos, next - pos).c_str());
    pos = next == std::string::npos ? next : next + 1;
  }
  std::printf("  ...\n");

  // #SAT as a join: clause relations, natural join = model set. Every
  // variable of f appears in some clause, so |join| = #models.
  std::printf("\n#SAT as a natural join of clause relations "
              "(JoinEngine facade):\n");
  std::vector<std::unique_ptr<Relation>> rels;
  std::vector<const Relation*> ptrs;
  for (size_t c = 0; c < f.clauses.size(); ++c) {
    rels.push_back(std::make_unique<Relation>(
        ClauseRelation(f.clauses[c], static_cast<int>(c))));
    ptrs.push_back(rels.back().get());
  }
  JoinQuery q = JoinQuery::Build(ptrs);
  bool counts_ok = true;
  cli::RunReporter rep(opts.format, "sat_counting");
  rep.Section("clause-relation join, |output| must equal #models");
  for (const cli::EngineRun& run : cli::RunEngines(q, opts)) {
    rep.Row("cnf(3 vars, 4 clauses)",
            {{"models", static_cast<double>(r.model_count)}}, run.kind,
            run.result);
    if (run.result.ok && run.result.tuples.size() != r.model_count) {
      rep.Error("!! join count %zu != #models %llu (%s)",
               run.result.tuples.size(),
               static_cast<unsigned long long>(r.model_count),
               EngineKindName(run.kind));
      counts_ok = false;
    }
  }
  return ok && counts_ok && rep.AllAgreed() ? 0 : 1;
}

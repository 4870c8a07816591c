// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench binary selects engines at runtime through the JoinEngine
// facade and the shared CLI harness (src/engine/cli.h): it prints (a) one
// row per (scenario, engine) with the measured time and space counters,
// (b) the paper's bound for the same parameters, and (c) a fitted log-log
// growth exponent so the *shape* claim (who wins, with which exponent) is
// checkable at a glance. EXPERIMENTS.md documents each binary's flags and
// the expected outcomes.
#ifndef TETRIS_BENCH_BENCH_UTIL_H_
#define TETRIS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "engine/cli.h"

namespace tetris::bench {

/// Wall-clock stopwatch in milliseconds.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Ms() const {
    auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(now - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Least-squares slope of log(y) against log(x): the empirical growth
/// exponent of a series. Points with non-positive coordinates are skipped;
/// `used`, if given, receives the number of points fitted (below 2 the
/// result is 0).
inline double FitExponent(const std::vector<std::pair<double, double>>& pts,
                          int* used = nullptr) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (auto [x, y] : pts) {
    if (x <= 0 || y <= 0) continue;
    double lx = std::log(x), ly = std::log(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  if (used) *used = n;
  if (n < 2) return 0.0;
  double denom = n * sxx - sx * sx;
  if (std::fabs(denom) < 1e-12) return 0.0;
  return (n * sxy - sx * sy) / denom;
}

/// True iff `run` is a successful unsharded run of engine `kind`: a run
/// of the one algorithm the paper's bounds speak about. A sharded run
/// (--shards, --memory-budget) gives each subcube a knowledge base of
/// its own, so its summed counters stay out of a gated fit.
inline bool CountsForClaim(const cli::EngineRun& run, EngineKind kind) {
  return run.result.ok && run.kind == kind && run.result.stats.shards == 0;
}

/// Reports the growth exponent of the series `fit` (FitExponent) as a
/// summary row and gates it on the paper's bound: the row's expectation
/// carries `claim` and the interval [lo, hi] (use -INFINITY / INFINITY
/// for an open side). A value outside it prints the bound and returns
/// false, which the bench turns into exit status 1. The fitted counts
/// are deterministic, so a miss is a real change in the algorithm's
/// work, never timing noise. A series of fewer than two points (its
/// engine not selected, sharded runs only, or a --size below the sweep)
/// has no exponent: the row says the gate was not checked, and it
/// passes.
inline bool GatedSummary(cli::RunReporter* rep, const std::string& metric,
                         const std::vector<std::pair<double, double>>& fit,
                         double lo, double hi, const std::string& claim) {
  char gate[96];
  if (std::isinf(lo)) {
    std::snprintf(gate, sizeof(gate), "gate: <= %g", hi);
  } else if (std::isinf(hi)) {
    std::snprintf(gate, sizeof(gate), "gate: >= %g", lo);
  } else {
    std::snprintf(gate, sizeof(gate), "gate: [%g, %g]", lo, hi);
  }
  int points = 0;
  const double value = FitExponent(fit, &points);
  if (points < 2) {
    rep->Summary(metric, value,
                 claim + "; " + gate + " not checked (fewer than 2 points)");
    return true;
  }
  rep->Summary(metric, value, claim + "; " + gate);
  if (value >= lo && value <= hi) return true;
  rep->Error("!! BOUND MISSED: %s = %.6g, %s (%s)", metric.c_str(), value,
             gate, claim.c_str());
  return false;
}

}  // namespace tetris::bench

#endif  // TETRIS_BENCH_BENCH_UTIL_H_

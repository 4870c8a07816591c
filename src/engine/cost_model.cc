#include "engine/cost_model.h"

#include <algorithm>
#include <cmath>

namespace tetris {

namespace {

// The baselines keep their materialized restricted copy resident for the
// whole shard run, so their peak can never undercut the payload itself;
// the Tetris family runs shards through zero-copy views (per-shard
// residency can genuinely undercut the payload, but a degenerate
// zero-metric probe must not predict zero cost for every shard).
double FloorSlope(EngineFamily family) {
  return family == EngineFamily::kTetris ? 1.0 / 64.0 : 1.0;
}

}  // namespace

EngineFamily EngineFamilyOf(EngineKind kind) {
  switch (kind) {
    case EngineKind::kTetrisPreloaded:
    case EngineKind::kTetrisReloaded:
    case EngineKind::kTetrisPreloadedNoCache:
    case EngineKind::kTetrisPreloadedLB:
    case EngineKind::kTetrisReloadedLB:
      return EngineFamily::kTetris;
    case EngineKind::kLeapfrog:
    case EngineKind::kGenericJoin:
      return EngineFamily::kWcoj;
    case EngineKind::kYannakakis:
    case EngineKind::kPairwiseHash:
    case EngineKind::kPairwiseSortMerge:
    case EngineKind::kPairwiseNestedLoop:
      return EngineFamily::kMaterializing;
  }
  return EngineFamily::kWcoj;
}

size_t ShardCostModel::EstimatePeak(size_t payload_bytes) const {
  const double est = intercept_bytes +
                     bytes_per_payload_byte * static_cast<double>(payload_bytes);
  const size_t scaled =
      est <= 0.0 ? 0 : static_cast<size_t>(std::ceil(est));
  return std::max(floor_bytes, scaled);
}

size_t FamilyPeakMetric(EngineFamily family, const RunStats& stats) {
  const MemoryStats& m = stats.memory;
  switch (family) {
    case EngineFamily::kTetris:
      // KB growth model: the knowledge base is the engine-internal
      // structure; the per-shard output rides along.
      return std::max(m.kb_bytes, m.output_bytes);
    case EngineFamily::kWcoj:
      // Output-volume model: Leapfrog / Generic Join stream over the
      // inputs and materialize only the output.
      return std::max(m.output_bytes, m.intermediate_bytes);
    case EngineFamily::kMaterializing:
      // Intermediate model: pairwise plans and Yannakakis peak on the
      // largest materialized intermediate.
      return std::max(m.intermediate_bytes, m.output_bytes);
  }
  return 0;
}

ShardCostModel FitShardCostModel(EngineKind kind,
                                 size_t probe_payload_bytes,
                                 const RunStats& probe_stats) {
  ShardCostModel model;
  model.family = EngineFamilyOf(kind);
  if (probe_payload_bytes == 0) return model;  // no signal: proxy

  const size_t metric = FamilyPeakMetric(model.family, probe_stats);
  model.bytes_per_payload_byte =
      std::max(static_cast<double>(metric) /
                   static_cast<double>(probe_payload_bytes),
               FloorSlope(model.family));
  model.floor_bytes = 64;
  model.calibrated = true;
  return model;
}

ShardCostModel FitShardCostModelAffine(EngineKind kind, size_t payload_a,
                                       const RunStats& stats_a,
                                       size_t payload_b,
                                       const RunStats& stats_b) {
  // Order the points by payload; the larger one anchors the degenerate
  // fallbacks (it is the better single predictor of full-size shards).
  size_t p1 = payload_a, p2 = payload_b;
  const RunStats* s1 = &stats_a;
  const RunStats* s2 = &stats_b;
  if (p1 > p2) {
    std::swap(p1, p2);
    std::swap(s1, s2);
  }
  if (p2 == 0) {
    ShardCostModel model;
    model.family = EngineFamilyOf(kind);
    return model;  // no signal at all: proxy
  }
  if (p1 == 0 || p1 == p2) return FitShardCostModel(kind, p2, *s2);

  ShardCostModel model;
  model.family = EngineFamilyOf(kind);
  const size_t m1 = FamilyPeakMetric(model.family, *s1);
  const size_t m2 = FamilyPeakMetric(model.family, *s2);
  // The secant slope, floored like the one-point fit (a noisy
  // decreasing pair must not yield a negative or vanishing slope).
  double slope = (static_cast<double>(m2) - static_cast<double>(m1)) /
                 (static_cast<double>(p2) - static_cast<double>(p1));
  slope = std::max(slope, FloorSlope(model.family));
  // Anchor the intercept so neither probe point is underestimated —
  // budgets fail safe toward finer splits, never coarser.
  double intercept = static_cast<double>(m1) - slope * static_cast<double>(p1);
  intercept = std::max(intercept, static_cast<double>(m2) -
                                      slope * static_cast<double>(p2));
  intercept = std::max(intercept, 0.0);
  model.bytes_per_payload_byte = slope;
  model.intercept_bytes = intercept;
  model.floor_bytes = 64;
  model.calibrated = true;
  return model;
}

}  // namespace tetris

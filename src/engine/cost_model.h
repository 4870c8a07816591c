// Calibrated per-engine-family shard cost estimation.
//
// The shard planner budgets shards before running them, so it needs a
// model mapping a shard's restricted input payload to the peak resident
// bytes the engine will actually touch (MemoryStats::PeakBytes). A flat
// payload proxy cannot anticipate engine-internal growth: the Tetris
// family's knowledge base grows with the resolutions it caches, the
// worst-case-optimal baselines are dominated by output volume, and the
// pairwise plans by materialized intermediates. The executor therefore
// fits a per-family *affine* model from a cheap probe pass — it runs two
// small probe shards (a ~1/8-scale and a ~1/4-scale one) exactly the way
// the real shards will run and fits peak(payload) = intercept +
// slope·payload through the family's dominant metric at both points.
// The secant through two scales catches superlinear growth (the pairwise
// plans' intermediates) that a single through-the-origin slope
// underestimates; when only one probe point is available the fit
// degrades to the one-point slope, and with none to the payload proxy.
// Probe shards are real shards of the output space, so their outputs are
// *reused* as those shards' results instead of discarded. Every budgeted
// result carries the prediction (RunStats::estimated_max_shard_peak_bytes)
// beside the actual largest shard peak (max_shard_peak_bytes), so the
// model is auditable, not just plausible.
#ifndef TETRIS_ENGINE_COST_MODEL_H_
#define TETRIS_ENGINE_COST_MODEL_H_

#include "engine/join_engine.h"

namespace tetris {

/// Engine families with distinct peak-memory shapes.
enum class EngineFamily {
  kTetris,         ///< knowledge-base growth (kb_bytes) dominates
  kWcoj,           ///< Leapfrog / Generic Join: output volume dominates
  kMaterializing,  ///< Yannakakis / pairwise: intermediates dominate
};

EngineFamily EngineFamilyOf(EngineKind kind);

/// Per-shard peak model: EstimatePeak(payload) = max(floor_bytes,
/// intercept_bytes + bytes_per_payload_byte * payload), where payload is
/// the restricted input payload of the shard (shard_planner.h's
/// EstimateAtomBytes summed over the shard's atoms). The default is the
/// uncalibrated payload proxy (slope 1, intercept 0).
struct ShardCostModel {
  EngineFamily family = EngineFamily::kWcoj;
  double bytes_per_payload_byte = 1.0;
  /// Affine offset of the two-point fit; 0 for one-point fits and the
  /// payload proxy.
  double intercept_bytes = 0.0;
  size_t floor_bytes = 0;
  bool calibrated = false;

  size_t EstimatePeak(size_t payload_bytes) const;
};

/// The family's dominant peak-memory metric of one run — the quantity
/// the cost model is fitted through: KB growth for the Tetris variants,
/// output volume for the WCOJ baselines, intermediate volume for the
/// materializing plans (each maxed with the output buffer).
size_t FamilyPeakMetric(EngineFamily family, const RunStats& stats);

/// Fits the one-point model from one probe shard run: the slope is
/// FamilyPeakMetric / payload, through the origin. Falls back to the
/// payload proxy when the probe carries no signal
/// (`probe_payload_bytes == 0`).
ShardCostModel FitShardCostModel(EngineKind kind,
                                 size_t probe_payload_bytes,
                                 const RunStats& probe_stats);

/// Fits the two-point affine model through probe shards at two different
/// scales: slope = Δmetric / Δpayload (the secant), intercept anchored
/// so neither probe point is underestimated. Superlinear engines show a
/// larger secant slope than the through-the-origin slope, so pairwise
/// plans' intermediates stop being underestimated. Degrades to the
/// one-point fit on the larger probe when the payloads coincide, and to
/// the payload proxy when both carry no signal.
ShardCostModel FitShardCostModelAffine(EngineKind kind, size_t payload_a,
                                       const RunStats& stats_a,
                                       size_t payload_b,
                                       const RunStats& stats_b);

}  // namespace tetris

#endif  // TETRIS_ENGINE_COST_MODEL_H_

// Glue between the program's result structs and the per-layer metrics:
// what a traced run reads from RunStats, the probe calls it makes beside
// an op, and the metric table it prints.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "engine/join_engine.h"
#include "engine/join_runner.h"

namespace perfbench {

/// Adds one engine result's RunStats (and shard runs) to `t`.
void AddRunStats(const tetris::EngineResult& r, LayerTotals* t);

/// Probe beside op `op`: the same query through RunTetrisJoin, unsharded,
/// over `prebuilt` indexes or, when null, over SAO-consistent indexes the
/// probe builds (span index.build). Span tetris.run; returns its ms.
double ProbeTetris(Tracer* tr, uint64_t op, const tetris::JoinQuery& query,
                   const std::vector<int>& sao, int depth,
                   tetris::JoinAlgorithm algo,
                   const std::vector<const tetris::Index*>* prebuilt);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Span names of the ops themselves; every other child of a "bench.op"
/// span is a probe.
bool IsOpSpan(const std::string& name);

/// The per-layer metric table of a traced phase. Layers a workload does
/// not exercise read 0.
std::vector<Metric> LayerMetrics(const Tracer& tr, const LayerTotals& t,
                                 double trace_overhead_pct);

/// The counters that must repeat exactly across two runs with one seed.
std::vector<std::pair<std::string, int64_t>> DeterministicCounters(
    const LayerTotals& t);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

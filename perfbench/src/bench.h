// perfbench: fixed-work workloads over the public APIs (RunJoin,
// JoinService), one closed-loop client thread each.
//
// A run replays one op sequence fixed by (--workload, --seed,
// --seconds): the op count is derived from --seconds alone, never from
// elapsed time, so two runs with one seed do identical work and every
// work counter repeats exactly.
//
// Untraced runs report the end-to-end metrics. Traced runs repeat the
// workload with spans recorded around each call the benchmark makes into
// a layer's public functions ("<layer>.<call>"), plus probe calls made
// beside each op (outside the op's span), and turn spans and counters
// into the per-layer metrics. Nothing inside the program is
// instrumented.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------
// Statistics over latency samples (nearest-rank percentiles).

double Median(std::vector<double> v);

/// The highest of p90 / p99 / p99.9 that leaves at least ten samples
/// beyond it; p50 when there are fewer than 100 samples.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};
Tail TailOf(std::vector<double> v);

// ---------------------------------------------------------------------
// Host-speed reference. The shared host's speed drifts: the same query
// runs at levels up to 1.6x apart, each lasting seconds, and the drift
// moves every single-threaded workload's times the same way. A fixed
// kernel (dependent random updates in an L2-resident table, with
// branches) timed between ops measures it, and each end-to-end time is
// reported scaled to the kernel's nominal speed around the moment it was
// measured: time * nominal / measured. The kernel is benchmark code, so
// a change to the program moves the scaled times exactly as much as the
// raw ones. perfbench/NOTES.md has the measurements behind this.

class HostClock {
 public:
  /// The kernel's median time on the reference host (4-vCPU shared VM).
  static constexpr double kNominalMs = 3.0;
  /// Samples this close to an interval describe the host during it.
  static constexpr double kWindowMs = 300.0;

  HostClock() : table_(size_t{1} << 15) {}
  /// Runs the kernel once; returns and records its time.
  double SampleMs();
  /// Host slowdown against the reference host during [from, to] (> 1:
  /// slower): the median of the samples taken within kWindowMs of the
  /// interval, or the nearest sample when there is none.
  double SlowdownOver(Clock::time_point from, Clock::time_point to) const;
  /// Median slowdown over every sample (reported for information).
  double Slowdown() const;
  size_t samples() const { return samples_.size(); }

 private:
  struct Sample {
    Clock::time_point at;  ///< midpoint of the kernel run
    double ms = 0.0;
  };

  std::vector<uint64_t> table_;  // 256 KiB, dependent random updates
  std::vector<Sample> samples_;  // in time order
};

// ---------------------------------------------------------------------
// Tracing: spans kept in memory, written out when the run ends.

struct Span {
  const char* name = "";
  const char* tag = "";  ///< path taken, e.g. "hit" for server.execute
  uint64_t op = 0;       ///< op id shared by every span of one op
  int parent = -1;       ///< index of the enclosing span, -1 for roots
  int64_t start_ns = 0;  ///< since the tracer was created
  int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span that encloses every span recorded until End.
  void Begin(const char* name, uint64_t op);
  void End();
  /// Records a finished child span of the innermost open span.
  void Record(const char* name, uint64_t op, Clock::time_point start,
              Clock::time_point end, const char* tag = "");

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span named `name` (and tagged `tag`, when
  /// non-null), in recording order.
  std::vector<double> DurationsMs(const std::string& name,
                                  const char* tag = nullptr) const;
  /// Summed self time (span minus the part its children cover) per name.
  std::map<std::string, double> SelfMsByName() const;

  /// One JSON object per span, then one per name with count, total and
  /// self time. Returns false when the file cannot be written.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times `fn` as a span named `name` of op `op`; runs it untimed when
/// `tr` is null. Returns fn's result.
template <typename Fn>
auto Probe(Tracer* tr, const char* name, uint64_t op, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  auto out = fn();
  if (tr != nullptr) tr->Record(name, op, t0, Clock::now());
  return out;
}

// ---------------------------------------------------------------------
// Per-layer totals a workload fills during its traced phase. Timings
// come from the tracer's spans; these are the counts and sizes read from
// the program's own result structs and counters.

struct LayerTotals {
  // Engine results of the ops that ran an engine (RunStats).
  int64_t output_tuples = 0;
  int64_t resolutions = 0;
  int64_t kb_inserts = 0;
  int64_t boxes_loaded = 0;
  int64_t skeleton_nodes = 0;
  int64_t oracle_probes = 0;
  int64_t kb_peak_bytes = 0;       ///< max over ops
  int64_t gap_boxes = 0;           ///< max over ops (|B(Q)|)
  int64_t index_bytes = 0;         ///< max over ops
  int64_t shard_count = 0;         ///< max over ops
  int64_t shard_max_peak_bytes = 0;  ///< max over ops
  std::vector<double> parallelism;   ///< per op: Σ shard wall / op wall
  std::vector<double> skew;          ///< per op: slowest / median shard
  /// Per unsharded query: RunJoin ms minus RunTetrisJoin ms on the same
  /// prebuilt indexes.
  std::vector<double> facade_ms;

  // Service: read paths taken, then service counters (deltas over the
  // phase).
  int64_t reads_hit = 0;
  int64_t reads_patched = 0;
  int64_t reads_cold = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_insertions = 0;
  int64_t cache_evictions = 0;
  int64_t cache_invalidations = 0;
  int64_t cache_survivals = 0;
  int64_t cache_bytes = 0;  ///< at the end of the phase
  int64_t patched_reads = 0;
  int64_t shards_rerun = 0;
  int64_t shards_total = 0;
  int64_t index_builds = 0;
  int64_t index_hits = 0;
  int64_t index_promotes = 0;
  int64_t index_compactions = 0;
  int64_t index_cache_bytes = 0;  ///< at the end of the phase
};

// ---------------------------------------------------------------------
// Workloads.

enum class OpKind { kRead, kAppend, kDelete, kReplace };

struct OpSample {
  OpKind kind = OpKind::kRead;
  double ms = 0.0;  ///< the op's own call, probes excluded
  bool ok = true;   ///< no error and, where checked inline, right answer
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One line describing the generated inputs.
  virtual std::string Sizes() const = 0;
  /// Ops in a run of `seconds`: a function of `seconds` alone.
  virtual size_t OpCount(int seconds) const = 0;
  /// Ops per throughput block: a whole period of the op mix.
  virtual size_t BlockOps() const = 0;
  /// Set-ups per run; the median is reported as setup_s.
  virtual int SetupReps() const = 0;
  /// Digest of the generated inputs (changes with the seed where the
  /// workload draws data from it).
  virtual uint64_t InputDigest() const = 0;

  /// Drops any previous state and builds a fresh one for an `ops`-op
  /// run: inputs, registration, index builds and one untimed warm-up
  /// pass. Spans of set-up work go to `tr` when non-null.
  virtual void Setup(size_t ops, Tracer* tr) = 0;
  /// Runs op `i` of the sequence. With a tracer, records the op's span
  /// and runs the probe calls beside it, outside the span.
  virtual OpSample RunOp(size_t i, Tracer* tr) = 0;
  /// Checks made after the phase, outside every timer. Returns the
  /// number of ops found wrong.
  virtual size_t Verify() = 0;

  /// Counts and sizes gathered since the last Setup.
  const LayerTotals& totals() const { return totals_; }
  /// Called once the phase ends, before totals() is read.
  virtual void FinishPhase() {}

 protected:
  LayerTotals totals_;
};

/// The three workloads, their inputs drawn from `seed`.
std::unique_ptr<Workload> MakeJoinWorstcase(uint64_t seed);
std::unique_ptr<Workload> MakeJoinCertificate(uint64_t seed);
std::unique_ptr<Workload> MakeServeMutate(uint64_t seed);

/// Order-sensitive 64-bit digest of a list of rows (anything with
/// size() and operator[]).
template <typename Rows>
uint64_t DigestRows(const Rows& rows) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& row : rows) {
    for (int k = 0; k < static_cast<int>(row.size()); ++k) {
      h ^= row[k] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    h = (h ^ (h >> 31)) * 0xbf58476d1ce4e5b9ULL;
  }
  return h;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

// perfbench benchmark binary:
//
//   perfbench --workload <join-worstcase|join-certificate|serve-mutate>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints a line describing the run (workload, seed, op count, input
// digest), a line of details, and last the result JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics (details: the raw times before host scaling);
// --trace 1 repeats the workload traced and reports the per-layer
// metrics (details: the deterministic counters). Exits 1 when any op
// failed or returned a wrong answer, 2 on bad arguments.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "layers.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || a->seconds < 1 || a->seconds > 3600) return false;
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || (a->trace != 0 && a->trace != 1)) return false;
    } else if (flag == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "join-worstcase") return MakeJoinWorstcase(seed);
  if (name == "join-certificate") return MakeJoinCertificate(seed);
  if (name == "serve-mutate") return MakeServeMutate(seed);
  return nullptr;
}

struct Phase {
  std::vector<OpSample> samples;
  std::vector<Clock::time_point> op_end;  ///< when each op returned
  /// One per whole block: ops per second, and the block's interval.
  std::vector<double> block_ops_per_s;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> blocks;
  Clock::time_point start, end;
  double wall_ms = 0.0;  ///< host-clock samples excluded
  size_t failed = 0;
};

// Runs ops [0, n) in order, timing each block of `block` ops. Samples
// the host clock first and then between ops every kSampleEveryMs;
// sampling time is left out of every wall time.
Phase RunPhase(Workload& w, size_t n, Tracer* tr, HostClock* host) {
  constexpr double kSampleEveryMs = 100.0;
  Phase p;
  p.samples.reserve(n);
  p.op_end.reserve(n);
  host->SampleMs();
  const size_t block = w.BlockOps();
  p.start = Clock::now();
  Clock::time_point block_start = p.start;
  Clock::time_point last_sample = p.start;
  double block_excluded_ms = 0.0;
  double excluded_ms = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (tr != nullptr) tr->Begin("bench.op", i);
    const OpSample s = w.RunOp(i, tr);
    if (tr != nullptr) tr->End();
    Clock::time_point now = Clock::now();
    if (!s.ok) ++p.failed;
    p.samples.push_back(s);
    p.op_end.push_back(now);
    if (MsBetween(last_sample, now) >= kSampleEveryMs) {
      const double ms = host->SampleMs();
      block_excluded_ms += ms;
      excluded_ms += ms;
      last_sample = now = Clock::now();
    }
    if ((i + 1) % block == 0) {
      const double ms = MsBetween(block_start, now) - block_excluded_ms;
      p.block_ops_per_s.push_back(static_cast<double>(block) / (ms / 1e3));
      p.blocks.emplace_back(block_start, now);
      block_start = now;
      block_excluded_ms = 0.0;
    }
  }
  p.end = Clock::now();
  p.wall_ms = MsBetween(p.start, p.end) - excluded_ms;
  host->SampleMs();
  return p;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <join-worstcase|"
                 "join-certificate|serve-mutate> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <file>]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = Make(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const size_t n = w->OpCount(args.seconds);

  // Set-up, several times; the last one's state is measured.
  HostClock host;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> setups;
  for (int r = 0; r < w->SetupReps(); ++r) {
    host.SampleMs();
    const Clock::time_point t0 = Clock::now();
    w->Setup(n, nullptr);
    setups.emplace_back(t0, Clock::now());
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"ops\": %zu, "
              "\"input_digest\": \"%016llx\", \"inputs\": \"%s\"}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), n,
              static_cast<unsigned long long>(w->InputDigest()),
              w->Sizes().c_str());
  std::fflush(stdout);

  Phase plain = RunPhase(*w, n, nullptr, &host);
  const double rss_mb = PeakRssMb();
  size_t failed = plain.failed + w->Verify();
  size_t attempted = n;

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // Every time twice: raw, and scaled by the host's slowdown around
    // the moment it was measured.
    std::vector<double> setup_raw, setup_scaled;
    for (const auto& [t0, t1] : setups) {
      setup_raw.push_back(MsBetween(t0, t1) / 1e3);
      setup_scaled.push_back(setup_raw.back() / host.SlowdownOver(t0, t1));
    }
    std::vector<double> tp_scaled;
    for (size_t b = 0; b < plain.blocks.size(); ++b) {
      const auto& [t0, t1] = plain.blocks[b];
      tp_scaled.push_back(plain.block_ops_per_s[b] *
                          host.SlowdownOver(t0, t1));
    }
    std::vector<double> reads_raw, reads_scaled;
    for (size_t i = 0; i < n; ++i) {
      const OpSample& s = plain.samples[i];
      if (s.kind != OpKind::kRead) continue;
      const Clock::time_point t1 = plain.op_end[i];
      const auto t0 = t1 - std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(s.ms));
      reads_raw.push_back(s.ms);
      reads_scaled.push_back(s.ms / host.SlowdownOver(t0, t1));
    }
    const Tail tail_raw = TailOf(reads_raw);
    const Tail tail_scaled = TailOf(reads_scaled);
    metrics = {
        {"setup_s", Median(setup_scaled), "s"},
        {"ops_per_s", Median(tp_scaled), "1/s"},
        {"peak_rss_mb", rss_mb, "MiB"},
        {"read_p50_ms", Median(reads_scaled), "ms"},
        {"read_tail_ms", tail_scaled.value, "ms"},
    };
    std::printf("{\"raw\": {\"setup_s\": %.9g, \"ops_per_s\": %.9g, "
                "\"read_p50_ms\": %.9g, \"read_tail_ms\": %.9g}, "
                "\"host_slowdown\": %.6g, \"host_samples\": %zu, "
                "\"reads\": %zu, \"read_tail_percentile\": %g, "
                "\"setup_reps\": %zu, \"blocks\": %zu}\n",
                Median(setup_raw), Median(plain.block_ops_per_s),
                Median(reads_raw), tail_raw.value, host.Slowdown(),
                host.samples(), reads_raw.size(), tail_scaled.percentile,
                setup_raw.size(), plain.blocks.size());
  } else {
    Tracer tr;
    tr.Begin("bench.setup", 0);
    w->Setup(n, &tr);
    tr.End();
    Phase traced = RunPhase(*w, n, &tr, &host);
    failed += traced.failed + w->Verify();
    attempted += n;
    w->FinishPhase();

    // Tracing overhead: untraced ops/s over traced ops/s, where the
    // traced phase's wall time excludes the probe calls made beside ops,
    // each phase scaled by the host clock sampled during it.
    double probe_ms = 0.0;
    for (const Span& s : tr.spans()) {
      if (s.parent >= 0 && std::strcmp(tr.spans()[s.parent].name,
                                       "bench.op") == 0 &&
          !IsOpSpan(s.name)) {
        probe_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
    const double traced_ms = (traced.wall_ms - probe_ms) /
                             host.SlowdownOver(traced.start, traced.end);
    const double plain_ms =
        plain.wall_ms / host.SlowdownOver(plain.start, plain.end);
    const double overhead_pct = (traced_ms / plain_ms - 1.0) * 100.0;
    metrics = LayerMetrics(tr, w->totals(), overhead_pct);

    size_t kinds[4] = {0, 0, 0, 0};
    for (const OpSample& s : traced.samples) ++kinds[static_cast<int>(s.kind)];
    std::printf("{\"counters\": {\"reads\": %zu, \"appends\": %zu, "
                "\"deletes\": %zu, \"replaces\": %zu",
                kinds[0], kinds[1], kinds[2], kinds[3]);
    for (const auto& [name, v] : DeterministicCounters(w->totals())) {
      std::printf(", \"%s\": %lld", name.c_str(), static_cast<long long>(v));
    }
    std::printf("}}\n");
    if (!args.spans.empty() && !tr.WriteJsonl(args.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
    }
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

#!/usr/bin/env python3
"""Perf-smoke harness: quick benchmark runs, a machine-readable result
file, and a ratio-based regression gate.

Runs bench_micro, bench_sharding, bench_batching, bench_serving, and
bench_incremental in quick modes, collects per-bench wall time, peak
resident bytes, the unsharded Tetris run's KB inserts and skeleton
nodes, batch throughput, service cache-hit rates, and incremental
patched-vs-scratch ratios and patch resolutions into a BENCH JSON file,
and
(when given a baseline) fails on any metric that regressed by more than
--max-regression (default 25%). A metric the baseline tracks but the PR
run did not produce also fails the gate.

Wall-time metrics are normalized by a fixed CPU calibration loop timed
on the same machine, so a checked-in baseline transfers between
machines of different speeds: what is compared is "benchmark time in
calibration units", not raw seconds. Byte and work-count metrics are
deterministic and compared raw.

Usage:
  # run the benches and write the result file
  perf_smoke.py --build-dir build --out BENCH_pr.json

  # ...and additionally gate against a baseline
  perf_smoke.py --build-dir build --out BENCH_pr.json \
      --baseline BENCH_baseline.json

  # compare two existing result files without re-running anything
  perf_smoke.py --compare BENCH_pr.json --baseline BENCH_baseline.json

  # self-test of the gate logic (no build needed): synthetic slowdowns,
  # throughput drops, and missing metrics must all fail the gate
  perf_smoke.py --self-test

  # end-to-end self-test: pretend every timing is 2x slower
  perf_smoke.py --build-dir build --out /tmp/slow.json \
      --baseline BENCH_baseline.json --inject-slowdown 2

Baseline refresh (intentional perf changes): re-run with --out and copy
the result over BENCH_baseline.json, or apply the `perf-baseline-change`
label to the PR to skip the gate for that run (the artifact still
uploads). See EXPERIMENTS.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

SCHEMA = 1

# metric name -> direction ("lower" is better, or "higher")
# Normalized wall times carry the unit "cal" (calibration units).


def calibrate():
    """Time a fixed CPU-bound loop; the unit all wall times divide by.

    A pure-python xorshift loop is deliberately interpreter-bound: it
    tracks single-core machine speed well enough to transfer baselines
    between hosts, and needs no extra binaries.
    """
    best = None
    for _ in range(3):
        x = 0x9E3779B97F4A7C15
        t0 = time.perf_counter()
        for _ in range(2_000_000):
            x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
            x ^= x >> 7
            x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def run(cmd, cwd=None, allow_fail=False):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write("%s: %s (exit %d)\n%s\n%s\n" %
                         ("note" if allow_fail else "FAILED",
                          " ".join(cmd), proc.returncode,
                          proc.stdout[-4000:], proc.stderr[-4000:]))
        if not allow_fail:
            raise SystemExit(1)
    return proc.stdout, wall, proc.returncode


def jsonl_rows(text):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError:
            pass
    return rows


def collect(build_dir, cal):
    """Run the three benches in quick mode; return {metric: value}."""
    bench = os.path.join(build_dir, "bench")
    metrics = {}

    # bench_micro: google-benchmark JSON for a fixed primitive subset.
    out, wall, _ = run([
        os.path.join(bench, "bench_micro"),
        "--engines=tetris-preloaded",
        "--benchmark_filter="
        "BM_OrderedResolve|BM_KbInsert|BM_KbFindContaining/1024|"
        "BM_DyadicCover|BM_SortedIndexBuild/4096|"
        "BM_SortedIndexProbe/1024|BM_SortedIndexProbePermuted/262144|"
        "BM_SortedIndexAppendProbe/0|"
        "BM_SortedIndexAppendProbe/16|BM_RunJoin",
        "--benchmark_format=json",
        # A plain double keeps old google-benchmark happy (newer
        # releases want a "0.05s" suffix but still accept the double
        # with a deprecation warning).
        "--benchmark_min_time=0.05",
    ])
    metrics["bench_micro.proc_wall"] = {
        "value": wall / cal, "unit": "cal", "direction": "lower"}
    gb = json.loads(out)
    for b in gb.get("benchmarks", []):
        name = b["name"]
        # cpu_time in ns; normalize into calibration units per 1e9 ops
        # of the loop (the ratio is all that matters).
        metrics["bench_micro.%s.cpu" % name] = {
            "value": b["cpu_time"] / (cal * 1e9),
            "unit": "cal/op", "direction": "lower"}

    # bench_sharding: one engine at the default grid size — the size its
    # >1.5x@4-threads acceptance was designed for (a smaller grid would
    # make the speedup marginal on 4-core CI runners and flake the job).
    # The harness benches embed their own hard acceptance gates (>1.5x
    # speedup/throughput on >= 4 cores) and exit nonzero on a miss; that
    # verdict is recorded as an exit_ok metric and enforced by the
    # *compare* step, so the perf-baseline-change label can skip it like
    # any other perf signal instead of hard-failing the run step.
    out, wall, rc = run([
        os.path.join(bench, "bench_sharding"),
        "--engine=tetris-preloaded", "--format=jsonl",
    ], allow_fail=True)
    metrics["bench_sharding.exit_ok"] = {
        "value": 1.0 if rc == 0 else 0.0, "unit": "bool",
        "direction": "higher"}
    metrics["bench_sharding.proc_wall"] = {
        "value": wall / cal, "unit": "cal", "direction": "lower"}
    peak = 0
    for row in jsonl_rows(out):
        if row.get("row_type") == "run":
            peak = max(peak, row.get("shard_peak_bytes", 0),
                       row.get("memory", {}).get("kb_bytes", 0))
            if row.get("scenario") == "unsharded":
                metrics["bench_sharding.unsharded.wall"] = {
                    "value": row["wall_ms"] / (cal * 1e3),
                    "unit": "cal", "direction": "lower"}
                # The skeleton's KB work as deterministic counts: a
                # return of the dead resolvent inserts, a change to the
                # descent, or a lookup that re-walks the trie from its
                # root moves these far past the tolerance. A
                # row without the field records nothing, so the gate
                # reports the metric missing instead of a 0.
                for counter in ("kb_inserts", "skeleton_nodes",
                                "kb_nodes_visited"):
                    if counter in row:
                        metrics["bench_sharding.unsharded." + counter] = {
                            "value": row[counter], "unit": "count",
                            "direction": "lower"}
    metrics["bench_sharding.peak_bytes"] = {
        "value": peak, "unit": "B", "direction": "lower"}

    # bench_batching: shared-relation batch sweep, jsonl batch rows.
    out, wall, rc = run([
        os.path.join(bench, "bench_batching"),
        "--engines=tetris-preloaded", "--size=200", "--format=jsonl",
    ], allow_fail=True)
    metrics["bench_batching.exit_ok"] = {
        "value": 1.0 if rc == 0 else 0.0, "unit": "bool",
        "direction": "higher"}
    metrics["bench_batching.proc_wall"] = {
        "value": wall / cal, "unit": "cal", "direction": "lower"}
    for row in jsonl_rows(out):
        if row.get("row_type") != "batch":
            continue
        params = row.get("params", {})
        if row.get("scenario") == "b8":
            metrics["bench_batching.batch8.wall"] = {
                "value": row["wall_ms"] / (cal * 1e3),
                "unit": "cal", "direction": "lower"}
            metrics["bench_batching.batch8.qps"] = {
                "value": params.get("qps", 0.0) * cal,
                "unit": "q/cal", "direction": "higher"}
            metrics["bench_batching.batch8.index_bytes"] = {
                "value": params.get("index_KiB", 0.0) * 1024,
                "unit": "B", "direction": "lower"}

    # bench_serving: the resident join service, quick mode. The bench's
    # own embedded acceptance (hit rate > 0, cache-hit >= 5x cold) is
    # the exit_ok signal; the hit rates are near-deterministic ratios
    # worth gating directly. The raw hit-speedup factor is deliberately
    # NOT a metric — it is a cold-vs-microsecond ratio that swings
    # orders of magnitude with machine noise; exit_ok already enforces
    # its >= 5x floor.
    out, wall, rc = run([
        os.path.join(bench, "bench_serving"),
        "--engine=tetris-preloaded", "--size=200", "--batch=16",
        "--format=jsonl",
    ], allow_fail=True)
    metrics["bench_serving.exit_ok"] = {
        "value": 1.0 if rc == 0 else 0.0, "unit": "bool",
        "direction": "higher"}
    metrics["bench_serving.proc_wall"] = {
        "value": wall / cal, "unit": "cal", "direction": "lower"}
    for row in jsonl_rows(out):
        if row.get("row_type") != "summary":
            continue
        metric = row.get("metric")
        if metric == "tetris-preloaded_hit_rate":
            metrics["bench_serving.hit_rate"] = {
                "value": row.get("value", 0.0), "unit": "frac",
                "direction": "higher"}
        elif metric == "closed_loop_hit_rate":
            metrics["bench_serving.closed_loop_hit_rate"] = {
                "value": row.get("value", 0.0), "unit": "frac",
                "direction": "higher"}
        elif metric == "closed_loop_qps":
            metrics["bench_serving.closed_loop_qps"] = {
                "value": row.get("value", 0.0) * cal,
                "unit": "q/cal", "direction": "higher"}

    # bench_incremental: patched re-evaluation vs from-scratch, gated by
    # the differential oracle. exit_ok carries the oracle verdict and
    # the strictly-fewer-shards acceptance; the shard re-run fraction is
    # a deterministic plan property worth gating directly. The raw
    # patched speedup is deliberately NOT a metric — on a loaded 1-core
    # runner the scratch/patched ratio swings too much; exit_ok already
    # enforces the structural acceptance.
    out, wall, rc = run([
        os.path.join(bench, "bench_incremental"),
        "--engine=tetris-preloaded", "--size=200", "--format=jsonl",
    ], allow_fail=True)
    metrics["bench_incremental.exit_ok"] = {
        "value": 1.0 if rc == 0 else 0.0, "unit": "bool",
        "direction": "higher"}
    metrics["bench_incremental.proc_wall"] = {
        "value": wall / cal, "unit": "cal", "direction": "lower"}
    # Patch work as a deterministic count: the Tetris resolutions of the
    # tetris-preloaded delta-sweep patches, summed over the sweep rows.
    patched_resolutions = 0
    for row in jsonl_rows(out):
        if (row.get("row_type") == "run"
                and row.get("engine") == "tetris-preloaded"):
            patched_resolutions += row.get("resolutions", 0)
        if row.get("row_type") != "summary":
            continue
        metric = row.get("metric")
        if metric == "tetris-preloaded_small_delta_rerun_frac":
            metrics["bench_incremental.small_delta_rerun_frac"] = {
                "value": row.get("value", 0.0), "unit": "frac",
                "direction": "lower"}
        elif metric == "cache_survivals":
            metrics["bench_incremental.cache_survivals"] = {
                "value": row.get("value", 0.0), "unit": "count",
                "direction": "higher"}
        elif metric == "engines_incremental_verified":
            metrics["bench_incremental.engines_verified"] = {
                "value": row.get("value", 0.0), "unit": "count",
                "direction": "higher"}
        elif metric == "index_rebuilds":
            # Gated through exit_ok: the bench exits nonzero when a
            # 1-row delta rebuilds any index instead of promoting it
            # (compare() skips the ratio at a 0 baseline, so the hard
            # gate is the bench's own acceptance check).
            metrics["bench_incremental.index_rebuilds"] = {
                "value": row.get("value", 0.0), "unit": "count",
                "direction": "lower"}
        elif metric == "index_promotes":
            metrics["bench_incremental.index_promotes"] = {
                "value": row.get("value", 0.0), "unit": "count",
                "direction": "higher"}
        elif metric == "patch_index_hits":
            # Base indexes the service's patched read took from the
            # registry's cache instead of building (3 on R, S, T); the
            # bench exits nonzero below that, so exit_ok gates it too.
            metrics["bench_incremental.patch_index_hits"] = {
                "value": row.get("value", 0.0), "unit": "count",
                "direction": "higher"}
    metrics["bench_incremental.patched_resolutions"] = {
        "value": patched_resolutions, "unit": "count", "direction": "lower"}
    return metrics


def compare(pr, baseline, max_regression):
    """Return a list of (name, ratio, verdict) and the overall pass."""
    ok = True
    report = []
    for name, base in sorted(baseline.get("metrics", {}).items()):
        cur = pr.get("metrics", {}).get(name)
        if cur is None:
            # A metric the baseline tracks but the PR run did not produce
            # is indistinguishable from a regression (a bench that
            # crashed, was renamed, or was dropped from collect() stops
            # reporting) — it must fail the gate, not silently pass.
            # Intentional removals go through a baseline refresh.
            report.append((name, None, "MISSING FROM PR RUN (FAIL)"))
            ok = False
            continue
        bval, cval = base["value"], cur["value"]
        if bval <= 0:
            report.append((name, None, "no baseline signal (pass)"))
            continue
        direction = base.get("direction", "lower")
        # ratio > 1 means "worse", whichever the direction.
        ratio = (cval / bval) if direction == "lower" else (bval / max(cval, 1e-12))
        verdict = "ok"
        if ratio > 1.0 + max_regression:
            verdict = "REGRESSION (> %.0f%%)" % (100 * max_regression)
            ok = False
        report.append((name, ratio, verdict))
    for name in sorted(pr.get("metrics", {})):
        if name not in baseline.get("metrics", {}):
            report.append((name, None, "new metric (pass)"))
    return report, ok


def self_test(max_regression):
    """Exercise the gate on synthetic results — no build required.

    Every scenario the gate must catch (and must not catch) is driven
    through compare() itself, so a refactor that weakens the gate —
    e.g. a missing metric passing silently — fails this self-test.
    """
    import copy

    base = {"metrics": {
        "t.wall": {"value": 1.0, "unit": "cal", "direction": "lower"},
        "t.qps": {"value": 100.0, "unit": "q/cal", "direction": "higher"},
        "t.exit_ok": {"value": 1.0, "unit": "bool", "direction": "higher"},
    }}
    failures = []

    def check(label, mutate, want_ok):
        pr = copy.deepcopy(base)
        mutate(pr["metrics"])
        _, ok = compare(pr, base, max_regression)
        good = ok == want_ok
        print("self-test: %-44s %s" % (label, "ok" if good else "BROKEN"))
        if not good:
            failures.append(label)

    check("identical run passes",
          lambda m: None, True)
    check("within-tolerance drift passes",
          lambda m: m["t.wall"].__setitem__(
              "value", m["t.wall"]["value"] * (1.0 + max_regression / 2)),
          True)
    check("lower-is-better slowdown fails",
          lambda m: m["t.wall"].__setitem__(
              "value", m["t.wall"]["value"] * 2.0), False)
    check("higher-is-better throughput drop fails",
          lambda m: m["t.qps"].__setitem__(
              "value", m["t.qps"]["value"] / 2.0), False)
    check("bench exit flip fails",
          lambda m: m["t.exit_ok"].__setitem__("value", 0.0), False)
    check("metric missing from PR run fails",
          lambda m: m.pop("t.qps"), False)
    check("new metric only in PR run passes",
          lambda m: m.__setitem__(
              "t.new", {"value": 1.0, "unit": "cal", "direction": "lower"}),
          True)

    if failures:
        print("\nperf-smoke --self-test: GATE BROKEN (%s)" %
              "; ".join(failures))
        return 1
    print("\nperf-smoke --self-test: ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", help="write the BENCH result JSON here")
    ap.add_argument("--baseline", help="gate against this BENCH JSON")
    ap.add_argument("--compare",
                    help="compare this existing result file instead of "
                         "running the benches")
    ap.add_argument("--max-regression", type=float, default=0.25,
                    help="fail when a metric is worse by more than this "
                         "fraction (default 0.25)")
    ap.add_argument("--inject-slowdown", type=float, default=1.0,
                    help="multiply every lower-is-better metric (and "
                         "divide every higher-is-better one) — self-test "
                         "of the gate")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate logic on synthetic results "
                         "(slowdowns, throughput drops, and missing "
                         "metrics must fail; tolerable drift and new "
                         "metrics must pass) without running any bench")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.max_regression)

    if args.compare:
        with open(args.compare) as f:
            pr = json.load(f)
    else:
        cal = calibrate()
        print("calibration: %.3fs per unit" % cal)
        metrics = collect(args.build_dir, cal)
        pr = {"schema": SCHEMA, "calibration_s": cal, "metrics": metrics}

    if args.inject_slowdown != 1.0:
        for m in pr["metrics"].values():
            if m.get("direction", "lower") == "lower":
                m["value"] *= args.inject_slowdown
            else:
                m["value"] /= args.inject_slowdown
        print("injected %gx slowdown into every metric (self-test)" %
              args.inject_slowdown)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(pr, f, indent=1, sort_keys=True)
            f.write("\n")
        print("wrote %s (%d metrics)" % (args.out, len(pr["metrics"])))

    if not args.baseline:
        return 0
    with open(args.baseline) as f:
        baseline = json.load(f)
    report, ok = compare(pr, baseline, args.max_regression)
    width = max(len(name) for name, _, _ in report) if report else 10
    for name, ratio, verdict in report:
        print("%-*s  %s  %s" %
              (width, name,
               "x%.2f" % ratio if ratio is not None else "  -  ", verdict))
    if not ok:
        print("\nperf-smoke: REGRESSION over %s (allowed: %.0f%%). "
              "If intentional, refresh BENCH_baseline.json or apply the "
              "'perf-baseline-change' PR label." %
              (args.baseline, 100 * args.max_regression))
        return 1
    print("\nperf-smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

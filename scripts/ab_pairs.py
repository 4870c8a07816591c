#!/usr/bin/env python3
"""Alternating perfbench pairs: a parent revision against the working tree.

    python3 scripts/ab_pairs.py --seeds 20001-20010 --seconds 15 \\
        [--workloads serve-mutate,join-worstcase] [--parent HEAD] \\
        [--align] [--trace 1] [--workdir DIR]
    python3 scripts/ab_pairs.py --self-test

Exports the parent revision (`git archive`, default HEAD) to DIR/parent
and the working tree (tracked files and untracked, unignored ones) to
DIR/change, and builds each through its own perfbench/run.py with its
own CARGO_TARGET_DIR (DIR/build-<side>-<default|align>). --align builds
both with CXXFLAGS="-falign-functions=64 -falign-loops=64": GCC places
each function's cold part before all hot code, so resizing any cold path
moves every hot function, and aligned builds move less. Re-exports keep
file times, so a later call over the same DIR rebuilds only what changed.

For each workload and each seed of the range it runs one untraced
perfbench run per side, the parent first on odd pairs and the change
first on even ones. It prints every run, with host-scaled and raw
ops_per_s and the host slowdown perfbench measured, then for each
end-to-end metric of BENCHMARK.json: both medians, the shift of the
change's median, the parent's IQR, the change's wins and a verdict:

  regression  the change's median is worse than the parent's by more
              than the metric's BENCHMARK.json bound;
  gain        the change wins at least 9 of 10 pairs and its median is
              better by more than the parent's IQR; without --align it
              reads "gain (unaligned)": code layout alone moves a metric
              that far (join-certificate's setup_s, which runs no
              changed code, read a 10/10 default-flag gain), so quote
              it only beside --align pairs;
  unresolved  otherwise, with "(noisy)" when the parent's IQR alone is
              wider than the bound, so these pairs cannot resolve it.

Under the verdict table it prints which mode each side's runs landed in,
per metric: the sorted runs split at their largest gap when that gap is
wider than the runs on either side of it span, and each mode shows its
run count and range. A workload whose runs fall into two modes within one
build (join-worstcase and join-certificate do on a shared host) moves its
median by a mode's width when a few runs change sides; read a verdict
there against the modes.

--trace 1 makes one traced run per side and seed instead (the parent
first on odd pairs), to check that both sides do the same work and to
see where the time went. A seed whose deterministic counters line
(perfbench's {"counters": ...}) differs between the sides is printed
with the differing counters. Then, per side, it prints the median over
the seeds of the per-layer metrics server.cold_ms, server.patched_ms,
tetris.run_ms, kb.peak_bytes and index.gap_boxes, and from the span
files (spans-<workload>-<seed>.jsonl) the server.execute times per path
tag (hit, patched, cold) and the engine.run_join times per query of the
round (within an op those spans come in query order, so join-certificate
shows its six queries apart), pooled over the seeds.

--self-test checks the verdict and mode logic on fixed synthetic samples,
with no build and no run: an A/A set must read "unresolved", a 30%
slowdown on every pair "regression", ten wins by more than the parent's
IQR "gain" with --align and "gain (unaligned)" without (ten wins inside
it, or eight past it, "unresolved"), a two-cluster set must split
into its two modes, equal counters lines must match and a changed,
missing or extra counter must not, a larger failed share of ops must
fail and an equal one pass, and synthetic spans must group by path tag
and by query.

Exit status: 0 when no metric reads "regression" (--trace 1: no seed's
counters differ) and the change fails no larger share of ops than the
parent (--self-test: every check passes); 1 otherwise; 2 on bad
arguments, a failed export or build, or a run that prints no result.
"""

import argparse
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("join-worstcase", "join-certificate", "serve-mutate")
ALIGN_FLAGS = "-falign-functions=64 -falign-loops=64"
RUN_TIMEOUT_S = 1800
SIDES = ("parent", "change")
LAYERS = ("server.cold_ms", "server.patched_ms", "tetris.run_ms",
          "kb.peak_bytes", "index.gap_boxes")


def export_parent(rev, dest):
    """Extracts `git archive rev` into dest; False if git fails."""
    proc = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                          stdout=subprocess.PIPE)
    if proc.returncode != 0:
        return False
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest)
    return True


def export_working_tree(dest):
    """Copies tracked and untracked, unignored files into dest."""
    proc = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], stdout=subprocess.PIPE)
    if proc.returncode != 0:
        return False
    for rel in proc.stdout.decode().split("\0"):
        src = os.path.join(ROOT, rel)
        if not rel or not os.path.isfile(src):
            continue  # deleted in the working tree
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))
    return True


def build_env(workdir, side, align):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(
        workdir, "build-%s-%s" % (side, "align" if align else "default"))
    env.pop("CXXFLAGS", None)
    if align:
        env["CXXFLAGS"] = ALIGN_FLAGS
    return env


def build(tree, env):
    """Builds through the tree's own perfbench/run.py; True on success."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(tree, "perfbench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    saved = dict(os.environ)
    os.environ.clear()
    os.environ.update(env)
    try:
        return run_py.build() is not None
    finally:
        os.environ.clear()
        os.environ.update(saved)


class NoResult(Exception):
    """A run printed no result, or a traced one no counters or spans."""


def run_once(tree, env, workload, seed, seconds, trace):
    """One perfbench run; returns (result, extra) dicts: extra is the
    counters of a traced run's {"counters": ...} line, and an untraced
    run's {"raw": ...} line ({} if it prints none)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    extra = counters_of(lines) if trace else next(
        (json.loads(l) for l in lines if l.startswith('{"raw"')), {})
    if not lines or '"metrics"' not in lines[-1] or extra is None:
        raise NoResult("%s run on seed %d printed no result"
                       % (os.path.basename(tree), seed))
    return json.loads(lines[-1]), extra


def read_spans(env, workload, seed):
    """The span lines of a traced run's span file, in file order (a
    span's parent is its index there)."""
    path = os.path.join(env["CARGO_TARGET_DIR"], "perfbench",
                        "spans-%s-%d.jsonl" % (workload, seed))
    try:
        with open(path) as f:
            return [d for d in map(json.loads, f) if "span" in d]
    except (OSError, ValueError):
        raise NoResult("cannot read " + path)


def run_pairs(trees, envs, workload, seeds, seconds, trace, on_pair):
    """Runs every seed on both sides, the parent first on odd pairs and
    the change first on even ones, and calls on_pair(pair, seed, runs)
    with run_once's (result, extra) per side, in run order. Returns the
    [failed, attempted] op counts per side."""
    failed = {side: [0, 0] for side in SIDES}
    for i, seed in enumerate(seeds):
        runs = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side] = run_once(trees[side], envs[side], workload, seed,
                                  seconds, trace)
            failed[side][0] += runs[side][0]["failed"]
            failed[side][1] += runs[side][0]["attempted"]
        on_pair(i, seed, runs)
        sys.stdout.flush()
    return failed


def fails_more(failed):
    """True when the change fails a larger share of its ops than the
    parent; `failed` is run_pairs' counts."""
    (fp, ap), (fc, ac) = failed["parent"], failed["change"]
    return fc * max(ap, 1) > fp * max(ac, 1)


def counters_of(lines):
    """The counters dict of perfbench's {"counters": ...} line, or None."""
    for line in lines:
        if line.startswith('{"counters"'):
            return json.loads(line)["counters"]
    return None


def counter_diff(parent, change):
    """Sorted (name, parent value, change value) of every counter that
    differs, a counter one side lacks reading None there."""
    return sorted((k, parent.get(k), change.get(k))
                  for k in set(parent) | set(change)
                  if parent.get(k) != change.get(k))


def ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def execute_by_tag(spans):
    """server.execute durations (ms) by path tag."""
    out = {}
    for s in spans:
        if s["span"] == "server.execute":
            out.setdefault(s["tag"], []).append(ms(s))
    return out


def run_join_by_query(spans):
    """engine.run_join durations (ms) by their position within their op:
    an op's RunJoin calls come in query order."""
    out, seen = {}, {}
    for s in spans:
        p = s["parent"]
        if s["span"] != "engine.run_join" or p < 0 or \
                spans[p]["span"] != "bench.op":
            continue
        k = seen[p] = seen.get(p, -1) + 1
        out.setdefault(k, []).append(ms(s))
    return out


def print_side_by_side(title, rows):
    """rows: (label, parent values, change values); prints counts and
    medians."""
    print("%-22s %6s %12s %6s %12s %8s" % (title, "n", "parent_med", "n",
                                           "change_med", "shift"))
    for label, pv, cv in rows:
        mp = statistics.median(pv) if pv else float("nan")
        mc = statistics.median(cv) if cv else float("nan")
        shift = "%+7.1f%%" % ((mc - mp) / mp * 100) if pv and cv and mp \
            else "%8s" % "-"
        print("%-22s %6d %12.5g %6d %12.5g %s" % (label, len(pv), mp, len(cv),
                                                 mc, shift))


def time_workload(trees, envs, workload, args, metrics):
    """The untraced pairs of one workload: prints every run, the verdict
    table and the modes; returns (some metric regressed, failed
    counts)."""
    print("%4s %7s %-6s %11s %11s %8s  %s" % (
        "pair", "seed", "side", "ops_per_s", "raw", "slowdown",
        "  ".join(m["name"] for m in metrics if m["name"] != "ops_per_s")))
    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}

    def on_pair(i, seed, runs):
        for side, (result, raw) in runs.items():
            m = {k: v["value"] for k, v in result["metrics"].items()}
            for name in values[side]:
                values[side][name].append(m[name])
            print("%4d %7d %-6s %11.1f %11.1f %8.3f  %s" % (
                i + 1, seed, side, m["ops_per_s"],
                raw.get("raw", {}).get("ops_per_s", float("nan")),
                raw.get("host_slowdown", float("nan")),
                "  ".join("%.4g" % m[x["name"]] for x in metrics
                          if x["name"] != "ops_per_s")))

    failed = run_pairs(trees, envs, workload, args.seeds, args.seconds,
                       False, on_pair)
    print("%-13s %6s %5s %12s %12s %8s %11s %6s  %s" % (
        "metric", "better", "bound", "parent_med", "change_med", "shift",
        "parent_IQR", "wins", "verdict"))
    regressed = False
    for metric in metrics:
        name = metric["name"]
        mp, mc, shift, spread, wins, word = verdict(
            metric, values["parent"][name], values["change"][name],
            args.align)
        regressed |= word == "regression"
        print("%-13s %6s %4.0f%% %12.5g %12.5g %+7.1f%% %11.4g %3d/%-2d  %s"
              % (name, metric["better"], metric["bound"] * 100, mp, mc,
                 shift * 100, spread, wins, len(args.seeds), word))
    print("modes (runs at a range of values):")
    for metric in metrics:
        for side in SIDES:
            print("%-13s %-6s %s" % (
                metric["name"] if side == "parent" else "", side,
                format_modes(values[side][metric["name"]])))
    return regressed, failed


def trace_workload(trees, envs, workload, args):
    """The traced runs of one workload: prints each seed's counter check
    and the layer and span medians; returns (some seed's counters
    differ, failed counts)."""
    layers = {side: {m: [] for m in LAYERS} for side in SIDES}
    by_tag = {side: {} for side in SIDES}
    by_query = {side: {} for side in SIDES}
    differ = []

    def on_pair(i, seed, runs):
        for side, (result, _) in runs.items():
            spans = read_spans(envs[side], workload, seed)
            for m in LAYERS:
                layers[side][m].append(result["metrics"][m]["value"])
            for src, dst in ((execute_by_tag(spans), by_tag[side]),
                             (run_join_by_query(spans), by_query[side])):
                for k, v in src.items():
                    dst.setdefault(k, []).extend(v)
        diff = counter_diff(runs["parent"][1], runs["change"][1])
        if diff:
            differ.append(seed)
        print("seed %d: counters %s" % (seed, "equal" if not diff else
              "DIFFER: " + ", ".join("%s %s -> %s" % d for d in diff)))

    failed = run_pairs(trees, envs, workload, args.seeds, args.seconds,
                       True, on_pair)
    print_side_by_side("per-layer (seed median)",
                       [(m, layers["parent"][m], layers["change"][m])
                        for m in LAYERS])
    for title, groups, fmt in (
            ("server.execute by path", by_tag, "%s"),
            ("engine.run_join by query", by_query, "query %d")):
        keys = sorted(set(groups["parent"]) | set(groups["change"]))
        if keys:
            print_side_by_side(title, [(fmt % k, groups["parent"].get(k, []),
                                        groups["change"].get(k, []))
                                       for k in keys])
    return bool(differ), failed


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def verdict(metric, parent, change, aligned):
    """(parent median, change median, shift, parent IQR, wins, verdict);
    `aligned` says both builds used ALIGN_FLAGS."""
    lower = metric["better"] == "lower"
    mp, mc = statistics.median(parent), statistics.median(change)
    spread = iqr(parent)
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    shift = (mc - mp) / mp if mp else 0.0
    worse_by = shift if lower else -shift
    better_by = mp - mc if lower else mc - mp
    if worse_by > metric["bound"]:
        word = "regression"
    elif wins * 10 >= 9 * len(parent) and better_by > spread:
        word = "gain" if aligned else "gain (unaligned)"
    else:
        word = "unresolved"
        if mp and spread / abs(mp) > metric["bound"]:
            word += " (noisy)"
    return mp, mc, shift, spread, wins, word


def modes(values):
    """The runs as one or two modes, [(count, lo, hi), ...] in value order:
    split at the largest gap between sorted runs when that gap is wider
    than the runs on either side of it span."""
    v = sorted(values)
    if len(v) < 3:
        return [(len(v), v[0], v[-1])] if v else []
    gap, i = max((v[k + 1] - v[k], k) for k in range(len(v) - 1))
    if gap > v[i] - v[0] and gap > v[-1] - v[i + 1]:
        return [(i + 1, v[0], v[i]), (len(v) - i - 1, v[i + 1], v[-1])]
    return [(len(v), v[0], v[-1])]


def format_modes(values):
    return ", ".join("%d at %.4g" % (n, lo) if lo == hi else
                     "%d at %.4g-%.4g" % (n, lo, hi)
                     for n, lo, hi in modes(values))


def self_test():
    """Checks verdict() and modes() on fixed synthetic samples for every
    end-to-end metric of BENCHMARK.json; returns the exit status."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = [100.0, 103.0, 98.0, 101.0, 99.0, 102.0, 97.0, 104.0, 100.5,
            101.5]
    aa = base[5:] + base[:5]  # the same runs, paired differently
    two = [270.0, 275.0, 281.0, 272.0, 362.0, 375.0, 278.0, 370.0, 273.0,
           365.0]
    spread = iqr(base)
    failures = 0

    def check(name, got, want):
        nonlocal failures
        ok = got == want
        failures += not ok
        print("%-4s %s: got %s, want %s" % ("ok" if ok else "FAIL", name,
                                           got, want))

    for metric in metrics:
        worse = 1.0 if metric["better"] == "lower" else -1.0
        slower = [p * (1 + 0.30 * worse) for p in base]
        better = [p - 3 * spread * worse for p in base]
        slightly = [p - 0.1 * spread * worse for p in base]
        eight = better[:8] + [p + 0.1 * worse for p in base[8:]]
        name = metric["name"]
        for label, change, aligned, want in (
                ("A/A", aa, True, "unresolved"),
                ("30% slowdown", slower, True, "regression"),
                ("10/10 wins past the IQR", better, True, "gain"),
                ("10/10 wins past the IQR, unaligned", better, False,
                 "gain (unaligned)"),
                ("10/10 wins inside the IQR", slightly, True, "unresolved"),
                ("8/10 wins past the IQR", eight, True, "unresolved")):
            check("%s %s" % (name, label),
                  verdict(metric, base, change, aligned)[5], want)
    check("A/A runs form one mode", modes(base), [(10, 97.0, 104.0)])
    check("two clusters form two modes", modes(two),
          [(6, 270.0, 281.0), (4, 362.0, 375.0)])

    # The counter check on synthetic perfbench lines.
    line = ('{"counters": {"reads": 1200, "appends": 60, "resolutions": '
            '212970, "kb_inserts": 156632}}')
    same = counters_of(['{"workload": "serve-mutate"}', line])
    check("equal counters lines match", counter_diff(same, same), [])
    moved = dict(same, resolutions=212971)
    check("a changed counter is named", counter_diff(same, moved),
          [("resolutions", 212970, 212971)])
    fewer = {k: v for k, v in same.items() if k != "kb_inserts"}
    check("a missing counter is named", counter_diff(same, fewer),
          [("kb_inserts", 156632, None)])
    check("an extra counter is named",
          counter_diff(fewer, same), [("kb_inserts", None, 156632)])
    check("no counters line reads None", counters_of(['{"metrics": {}}']),
          None)
    # The failed-ops check: a larger share fails, an equal one does not.
    for label, failed, want in (
            ("no failed op", [[0, 90], [0, 100]], False),
            ("an equal failed share", [[1, 90], [1, 90]], False),
            ("a larger failed share", [[1, 100], [1, 90]], True),
            ("a failure where the parent has none", [[0, 90], [1, 90]],
             True)):
        check(label + (" fails" if want else " passes"),
              fails_more(dict(zip(SIDES, failed))), want)
    # Spans: two ops of two queries each, and server.execute by tag.
    spans = [{"span": "bench.op", "parent": -1},
             {"span": "engine.run_join", "parent": 0},
             {"span": "tetris.run", "parent": 0},
             {"span": "engine.run_join", "parent": 0},
             {"span": "bench.op", "parent": -1},
             {"span": "engine.run_join", "parent": 4},
             {"span": "engine.run_join", "parent": 4},
             {"span": "engine.run_join", "parent": -1},
             {"span": "server.execute", "parent": 4, "tag": "hit"},
             {"span": "server.execute", "parent": 4, "tag": "cold"}]
    for k, s in enumerate(spans):
        s.update(start_ns=0, end_ns=(k + 1) * 1000000)
    check("run_join spans group by query",
          run_join_by_query(spans), {0: [2.0, 6.0], 1: [4.0, 7.0]})
    check("execute spans group by tag", execute_by_tag(spans),
          {"hit": [9.0], "cold": [10.0]})
    print("ab_pairs self-test: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError("want LO-HI with LO <= HI")
    return list(range(lo, hi + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=parse_seeds,
                    help="seed range LO-HI, one pair per seed")
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated, default all three")
    ap.add_argument("--parent", default="HEAD", help="revision to export")
    ap.add_argument("--align", action="store_true",
                    help="build both trees with " + ALIGN_FLAGS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one traced run per side and seed; compare "
                    "counters and print layer and span medians")
    ap.add_argument("--workdir", help="export and build directory "
                    "(default: a fresh temporary directory)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the verdict and mode logic on synthetic "
                    "samples, then exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.seeds is None:
        ap.error("--seeds is required")
    workloads = args.workloads.split(",")
    if any(w not in WORKLOADS for w in workloads):
        ap.error("--workloads: choose from " + ", ".join(WORKLOADS))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    workdir = os.path.abspath(args.workdir or tempfile.mkdtemp(
        prefix="ab_pairs-"))
    trees, envs = {}, {}
    for side in SIDES:
        tree = os.path.join(workdir, side)
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        ok = (export_parent(args.parent, tree) if side == "parent"
              else export_working_tree(tree))
        env = build_env(workdir, side, args.align)
        if not ok or not build(tree, env):
            print("ab_pairs: cannot export or build the %s" % side,
                  file=sys.stderr)
            return 2
        trees[side], envs[side] = tree, env

    flags = "--align" if args.align else "default flags"
    failing = False
    try:
        for workload in workloads:
            print("\n%s: %s vs working tree, %s, %s at --seconds %d" % (
                workload, args.parent, flags,
                ("traced, %d seeds" if args.trace else "%d pairs")
                % len(args.seeds), args.seconds))
            bad, failed = (trace_workload(trees, envs, workload, args)
                           if args.trace else
                           time_workload(trees, envs, workload, args,
                                         metrics))
            print("failed ops: parent %d/%d, change %d/%d"
                  % (*failed["parent"], *failed["change"]))
            failing |= bad or fails_more(failed)
    except NoResult as e:
        print("ab_pairs: %s" % e, file=sys.stderr)
        return 2
    return 1 if failing else 0

if __name__ == "__main__":
    sys.exit(main())

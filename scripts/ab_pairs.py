#!/usr/bin/env python3
"""Alternating perfbench pairs: a parent revision against the working tree.

    python3 scripts/ab_pairs.py --seeds 20001-20010 --seconds 15 \\
        [--workloads serve-mutate,join-worstcase] [--parent HEAD] \\
        [--align] [--workdir DIR]
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

--self-test checks the verdict and mode logic on fixed synthetic samples,
with no build and no run: an A/A set must read "unresolved", a 30%
slowdown on every pair "regression", ten wins by more than the parent's
IQR "gain" with --align and "gain (unaligned)" without (ten wins inside
it, or eight past it, "unresolved"), and a two-cluster set must split
into its two modes.

Exit status: 0 when no metric reads "regression" and the change fails no
larger share of ops than the parent (--self-test: every check passes); 1
otherwise; 2 on bad arguments, a failed export or build, or a run that
prints no result.
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


def run_once(tree, env, workload, seed, seconds):
    """One untraced run; returns (result, raw) dicts, or None."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines or '"metrics"' not in lines[-1]:
        return None
    raw = next((json.loads(l) for l in lines if l.startswith('{"raw"')), {})
    return json.loads(lines[-1]), raw


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
    for side in ("parent", "change"):
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
    for workload in workloads:
        print("\n%s: %s vs working tree, %s, %d pairs at --seconds %d"
              % (workload, args.parent, flags, len(args.seeds), args.seconds))
        print("%4s %7s %-6s %11s %11s %8s  %s" % (
            "pair", "seed", "side", "ops_per_s", "raw", "slowdown",
            "  ".join(m["name"] for m in metrics if m["name"] != "ops_per_s")))
        values = {side: {m["name"]: [] for m in metrics}
                  for side in ("parent", "change")}
        failed = {"parent": [0, 0], "change": [0, 0]}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                got = run_once(trees[side], envs[side], workload, seed,
                               args.seconds)
                if got is None:
                    print("ab_pairs: %s run on seed %d printed no result"
                          % (side, seed), file=sys.stderr)
                    return 2
                result, raw = got
                failed[side][0] += result["failed"]
                failed[side][1] += result["attempted"]
                m = {k: v["value"] for k, v in result["metrics"].items()}
                for name in values[side]:
                    values[side][name].append(m[name])
                print("%4d %7d %-6s %11.1f %11.1f %8.3f  %s" % (
                    i + 1, seed, side, m["ops_per_s"],
                    raw.get("raw", {}).get("ops_per_s", float("nan")),
                    raw.get("host_slowdown", float("nan")),
                    "  ".join("%.4g" % m[x["name"]] for x in metrics
                              if x["name"] != "ops_per_s")))
                sys.stdout.flush()
        print("%-13s %6s %5s %12s %12s %8s %11s %6s  %s" % (
            "metric", "better", "bound", "parent_med", "change_med", "shift",
            "parent_IQR", "wins", "verdict"))
        for metric in metrics:
            name = metric["name"]
            mp, mc, shift, spread, wins, word = verdict(
                metric, values["parent"][name], values["change"][name],
                args.align)
            failing |= word == "regression"
            print("%-13s %6s %4.0f%% %12.5g %12.5g %+7.1f%% %11.4g %3d/%-2d  %s"
                  % (name, metric["better"], metric["bound"] * 100, mp, mc,
                     shift * 100, spread, wins, len(args.seeds), word))
        print("modes (runs at a range of values):")
        for metric in metrics:
            for side in ("parent", "change"):
                print("%-13s %-6s %s" % (
                    metric["name"] if side == "parent" else "", side,
                    format_modes(values[side][metric["name"]])))
        print("failed ops: parent %d/%d, change %d/%d" % (
            failed["parent"][0], failed["parent"][1],
            failed["change"][0], failed["change"][1]))
        if failed["change"][0] * max(failed["parent"][1], 1) > \
                failed["parent"][0] * max(failed["change"][1], 1):
            failing = True
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

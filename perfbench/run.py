#!/usr/bin/env python3
"""Builds the program under test and runs one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads: join-worstcase, join-certificate, serve-mutate (see
perfbench/NOTES.md). The first call configures and builds perfbench/
(CMake), which compiles the repository's src/ into the benchmark binary;
later calls rebuild only what changed. Build output goes to stderr. The
binary's last line on stdout is the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The build lands in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), relative paths taken from the checkout root.
Exit status: the binary's (0 ok, 1 a failed or wrong op, 2 bad
arguments), or 3 when the build fails, without a result line.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("join-worstcase", "join-certificate", "serve-mutate")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, *gen])
    steps.append(["cmake", "--build", bdir, "--parallel", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(bdir, "perfbench")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir(), "spans-%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

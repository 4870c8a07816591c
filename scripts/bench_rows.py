#!/usr/bin/env python3
"""Diffs the paper, gap and ablation bench rows of two builds.

    python3 scripts/bench_rows.py <build_a> <build_b>

Runs each bench binary below from <build>/bench at --format=jsonl, once
with its default engines and once with --engines=all, in both builds,
and compares their JSONL rows in order with every `wall_ms` field
dropped: wall times move from run to run, every other field is
deterministic. Prints each row whose other fields differ, as both builds
wrote it, then a summary line. Use it before and after a change that
must leave the engines' work and output alone (EXPERIMENTS.md, "Before
and after a change").

Each differing row is tagged `bytes only` when every field that differs
is a byte footprint (`memory.*`, `shard_peak_bytes`,
`est_shard_peak_bytes`, `plan_bytes`: a change to how memory is reserved
moves these with the same work), and `work` otherwise; a different exit
status or row count counts as `work`. The summary line gives both
counts.

Exit status: 0 when every row agrees; 1 when some row differs, or a
binary writes a different number of rows or exits differently in the
two builds; 2 on a missing binary or a run longer than TIMEOUT_S.
"""

import argparse
import json
import os
import subprocess
import sys

BINARIES = (
    "bench_table1_agm",
    "bench_table1_acyclic",
    "bench_table1_fhtw",
    "bench_table1_certificate",
    "bench_fig2_ordered_lb",
    "bench_fig2_tree_ordered",
    "bench_klee",
    "bench_gap_extraction",
    "bench_ablation_indexes",
)
MODES = ((), ("--engines=all",))
TIMEOUT_S = 900  # one bench run
BYTES_FIELDS = ("shard_peak_bytes", "est_shard_peak_bytes", "plan_bytes")


def without_wall(value):
    """`value` with every `wall_ms` key removed, at any depth."""
    if isinstance(value, dict):
        return {k: without_wall(v) for k, v in value.items() if k != "wall_ms"}
    if isinstance(value, list):
        return [without_wall(v) for v in value]
    return value


def flat(value, path=""):
    """{dotted path: leaf value} of a JSON object, nested objects
    flattened."""
    if not isinstance(value, dict):
        return {path: value}
    out = {}
    for k, v in value.items():
        out.update(flat(v, path + "." + k if path else k))
    return out


def differing_fields(a, b):
    """Sorted dotted paths whose values differ between two rows."""
    fa, fb = flat(a), flat(b)
    return sorted(p for p in set(fa) | set(fb) if fa.get(p) != fb.get(p))


def bytes_only(fields):
    """True iff every field in `fields` is a byte footprint."""
    return all(f.startswith("memory.") or f in BYTES_FIELDS for f in fields)


def run_rows(build, binary, mode):
    """(exit status, JSONL row lines) of one bench run."""
    exe = os.path.join(build, "bench", binary)
    if not os.path.exists(exe):
        raise FileNotFoundError(exe)
    proc = subprocess.run([exe, "--format=jsonl", *mode],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_a", help="build directory (holds bench/)")
    ap.add_argument("build_b", help="build directory (holds bench/)")
    args = ap.parse_args()

    compared = 0
    work = 0
    bytes_rows = 0
    for binary in BINARIES:
        for mode in MODES:
            label = " ".join((binary,) + mode)
            try:
                code_a, rows_a = run_rows(args.build_a, binary, mode)
                code_b, rows_b = run_rows(args.build_b, binary, mode)
            except (FileNotFoundError, subprocess.TimeoutExpired) as e:
                print("bench_rows: %s: %s" % (label, e), file=sys.stderr)
                return 2
            if code_a != code_b:
                print("%s: exit status %d vs %d" % (label, code_a, code_b))
                work += 1
            if len(rows_a) != len(rows_b):
                print("%s: %d rows vs %d" % (label, len(rows_a), len(rows_b)))
                work += 1
            for i, (a, b) in enumerate(zip(rows_a, rows_b)):
                compared += 1
                fields = differing_fields(without_wall(json.loads(a)),
                                          without_wall(json.loads(b)))
                if not fields:
                    continue
                if bytes_only(fields):
                    bytes_rows += 1
                    tag = "bytes only"
                else:
                    work += 1
                    tag = "work"
                print("%s, row %d [%s: %s]:\n  a: %s\n  b: %s" %
                      (label, i, tag, ", ".join(fields), a, b))
    print("bench_rows: %d rows compared, %d differences (%d work, "
          "%d bytes only)" % (compared, work + bytes_rows, work, bytes_rows))
    return 1 if work + bytes_rows else 0


if __name__ == "__main__":
    sys.exit(main())

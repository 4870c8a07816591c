#!/usr/bin/env python3
"""Determinism self-test of the perfbench benchmark.

    python3 perfbench/selftest.py [--seconds N]

Builds the benchmark binary (as run.py does), then for every workload:

  * an untraced run must be correct and print exactly the end-to-end
    metrics BENCHMARK.json lists, with their units, none of them 0;
  * two traced runs with one seed must print identical op counts and
    deterministic counters (resolutions, KB inserts, oracle probes, cache
    hits/misses/survivals/invalidations, patched reads, shards re-run,
    index builds/promotes/compactions, ...) and exactly the per-layer
    metrics BENCHMARK.json lists;
  * a traced run with a second seed must keep the op mix (reads,
    appends, deletes, replaces) and change the input digest, except on
    join-worstcase, whose full grid does not depend on the seed.

Prints one line per check and exits 1 if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SEEDED = {"join-certificate", "serve-mutate"}
MIX = ("reads", "appends", "deletes", "replaces")


def invoke(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[0])
    result = json.loads(lines[-1])
    counters = json.loads(lines[-2])["counters"] if trace else None
    return proc.returncode, info, counters, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    exe = run.build()
    if exe is None:
        print("FAIL build")
        return 1

    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    def check_result(workload, trace, code, result):
        check(code == 0 and result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1,
              "%s trace=%d: exit 0, correct, no failed ops" % (workload, trace))
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want[trace],
              "%s trace=%d: metric names and units match BENCHMARK.json"
              % (workload, trace))

    for workload in run.WORKLOADS:
        code, _, _, result = invoke(exe, workload, 7, args.seconds, 0)
        check_result(workload, 0, code, result)
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              "%s: every end-to-end metric is nonzero" % workload)

        code, info_a, counters_a, result = invoke(exe, workload, 7,
                                                  args.seconds, 1)
        check_result(workload, 1, code, result)
        _, info_b, counters_b, _ = invoke(exe, workload, 7, args.seconds, 1)
        check(info_a["ops"] == info_b["ops"] and counters_a == counters_b,
              "%s: one seed twice gives identical op counts and counters"
              % workload)

        _, info_c, counters_c, _ = invoke(exe, workload, 8, args.seconds, 1)
        check(all(counters_a[k] == counters_c[k] for k in MIX),
              "%s: a second seed keeps the op mix" % workload)
        changed = info_a["input_digest"] != info_c["input_digest"]
        check(changed == (workload in SEEDED),
              "%s: a second seed %s the input data"
              % (workload, "changes" if workload in SEEDED else "keeps"))

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

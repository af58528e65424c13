#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a source checkout:

    python3 perfbench/selftest.py [--seconds S] [--workload W ...]

Checks, through perfbench/run.py:
1. spec.json describes every workload of BENCHMARK.json and maps every
   per-layer metric to a workload;
2. on every workload, a corrupted reference (--corrupt-reference) drives
   ops_ok_ratio below 1 and `correct` to false, while a clean run reports
   1.0 and true;
3. the quality metrics and the deterministic per-layer counts named in
   spec.json "exact_repeat" repeat exactly across two runs with one seed
   and across two seeds.
Takes a few minutes: an untraced compile-cold run always completes 100 ops.
"""

import argparse
import fnmatch
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace, corrupt=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-reference")
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise SystemExit("selftest: %s exited with %d" % (" ".join(cmd), r.returncode))
    return json.loads(r.stdout.strip().splitlines()[-1])


def value(res, name):
    return res["metrics"][name]["value"]


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    spec = json.load(open(os.path.join(HERE, "spec.json")))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--workload", action="append", choices=names)
    a = ap.parse_args()
    errors = []

    # 1. spec.json covers BENCHMARK.json
    subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--list"],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    for m in bench["per_layer"]:
        if not any(fnmatch.fnmatch(m["name"], p)
                   for row in spec["layer_map"] for p in row["per_layer"]):
            errors.append("%s is in no spec.json layer_map row" % m["name"])
    if set(spec["workloads"]) != set(names):
        errors.append("spec.json workloads differ from BENCHMARK.json")

    exact = spec["exact_repeat"]

    def repeated(kind, runs):
        keys = [k for k in runs[0]["metrics"] if any(fnmatch.fnmatch(k, p) for p in exact)]
        for k in keys:
            vs = [value(r, k) for r in runs]
            if len(set(vs)) != 1:
                errors.append("%s %s does not repeat: %s" % (kind, k, vs))
        return len(keys)

    for w in a.workload or names:
        # 2. a corrupted reference must show
        bad = run(w, 1, a.seconds, 0, corrupt=True)
        if not (value(bad, "ops_ok_ratio") < 1 and bad["failed"] > 0 and not bad["correct"]):
            errors.append("%s: corrupted reference not detected: %s" % (w, bad))
        # 3. exact repeat across runs and seeds
        plain = [run(w, s, a.seconds, 0) for s in (1, 1, 2)]
        for r in plain:
            if not r["correct"] or value(r, "ops_ok_ratio") != 1:
                errors.append("%s: clean run not correct: %s" % (w, r))
        n1 = repeated(w, plain)
        traced = [run(w, s, a.seconds, 1) for s in (1, 1, 2)]
        for r in traced:
            if not r["correct"]:
                errors.append("%s: clean traced run not correct" % w)
        n2 = repeated(w + " traced", traced)
        print("selftest: %s ok_ratio corrupt %.3f clean 1.0; %d+%d exact metrics compared"
              % (w, value(bad, "ops_ok_ratio"), n1, n2), file=sys.stderr)

    for e in errors:
        print("selftest: FAIL " + e, file=sys.stderr)
    if errors:
        sys.exit(1)
    print("selftest: ok", file=sys.stderr)


if __name__ == "__main__":
    main()

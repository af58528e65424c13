#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list      # every metric by name, with its unit

Run from the root of a source checkout. The script builds the benchmark
(perfbench/bench.exe) and the roccc CLI with dune, runs the workload and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set of BENCHMARK.json, with
--trace 1 the per-layer set; a per-layer metric of a layer the workload
does not run reads 0. Workloads, metrics and the layer map are
described in BENCHMARK.json and perfbench/spec.json. Exits non-zero,
without printing a result, when the checkout cannot be built or the run
breaks the result format.
"""

import argparse
import fnmatch
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def metric_workloads(name, bench, spec):
    """The workloads on which a metric is meaningful (spec.json layer_map)."""
    every = [w["name"] for w in bench["workloads"]]
    rows = [r for r in spec["layer_map"]
            if any(fnmatch.fnmatch(name, p) for p in r["per_layer"])]
    if not rows or any(r["workload"] == "all" for r in rows):
        return every
    return [r["workload"] for r in rows]


def print_metrics(bench, spec):
    """One line per metric: kind, name, unit, direction, bound, workloads."""
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            bound = m.get("bound")
            print("{:<10} {:<40} {:<10} {:<6} {:<6} {}".format(
                kind, m["name"], m["unit"], m["better"],
                "-" if bound is None else bound,
                ",".join(metric_workloads(m["name"], bench, spec))))
    for w in bench["workloads"]:
        s = spec["workloads"][w["name"]]
        print("workload {}: {} loop, {} connection(s); {}".format(
            w["name"], s["loop"], s["connections"], s["seed"]))
    for row in spec["layer_map"]:
        print("layer map on {}: {} -> {} ({})".format(
            row["workload"], ", ".join(row["per_layer"]),
            ", ".join(row["moves"]) or "no end-to-end metric", row["note"]))


def build():
    for need in ("dune-project", "lib", "bin/roccc.ml", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a source checkout: %s is missing" % need)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam is on PATH")
    # the shared dune cache lives outside the checkout: keep it out
    cmd = dune + ["build", "--root", ROOT, "--cache=disabled",
                  "./perfbench/bench.exe", "./bin/roccc.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def run_bench(argv):
    """Run bench.exe in its own process group; return its stdout."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, start_new_session=True, text=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        fail("workload timed out")
    # the server children are reaped by bench.exe; sweep any straggler
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        fail("bench.exe exited with code %d" % proc.returncode)
    return out


def check_result(line, bench, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are wrong")
    if not isinstance(res["correct"], bool):
        fail("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool):
            fail(k + " is not a whole number")
    if res["attempted"] < 1:
        fail("no op attempted")
    listed = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = res["metrics"]
    if set(got) - set(want):
        fail("metrics not in BENCHMARK.json: %s" % sorted(set(got) - set(want)))
    if not trace and set(got) != set(want):
        fail("end-to-end metrics missing: %s" % sorted(set(want) - set(got)))
    for name, m in got.items():
        if m.get("unit") != want[name]:
            fail("unit of %s is %r, BENCHMARK.json says %r" % (name, m.get("unit"), want[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            fail("%s has no numeric value" % name)
    res["metrics"] = {m["name"]: got.get(m["name"], {"value": 0, "unit": m["unit"]})
                      for m in listed}
    return res


def main():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--list", action="store_true", help="print every metric and exit")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="corrupt one reference; the run must then report failures")
    a = ap.parse_args()
    if a.list:
        print_metrics(bench, spec)
        return
    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    build()
    # serve-mixed: server workers and client connections, one per core
    jobs = len(os.sched_getaffinity(0))
    argv = [os.path.join(ROOT, "_build/default/perfbench/bench.exe"),
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace),
            "--roccc", os.path.join(ROOT, "_build/default/bin/roccc.exe"),
            "--jobs", str(jobs)]
    if a.corrupt_reference:
        argv.append("--corrupt-reference")
    t0 = time.time()
    out = run_bench(argv)
    lines = out.strip().splitlines()
    if not lines:
        fail("bench.exe printed no result")
    res = check_result(lines[-1], bench, a.trace == 1)
    try:
        os.rmdir(os.path.join(ROOT, "_perfbench"))
    except OSError:
        pass
    print("perfbench: %s seed %d trace %d took %.1f s" %
          (a.workload, a.seed, a.trace, time.time() - t0), file=sys.stderr)
    print(json.dumps(res))


if __name__ == "__main__":
    main()

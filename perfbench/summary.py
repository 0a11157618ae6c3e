"""Run the benchmark over several seeds and print every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/summary.py                    # end-to-end metrics
    python3 perfbench/summary.py --trace 1          # per-layer metrics
    python3 perfbench/summary.py --seeds 1,2,3 --workloads eval-r2

Each (workload, seed) is one ``run.py`` invocation.  For each metric the
table gives its workload, name, unit, the number of runs, the samples
behind one run's value, the median over runs, the quartiles and the spread
(interquartile distance over the median).  Names in parentheses are
recorded but not tracked by BENCHMARK.json.  ``failed_ratio`` is failed
over attempted statements, summed over the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]


def run_once(workload, seed, trace):
    """One run.py invocation of BENCHMARK.json's run length; returns its
    result line and full record."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    record_path = next(line.split(" ", 2)[2] for line in lines
                       if line.startswith("# record "))
    with open(os.path.join(ROOT, record_path), encoding="utf-8") as fh:
        return json.loads(lines[-1]), json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    runs = {}
    for workload in args.workloads.split(","):
        for seed in seeds:
            runs.setdefault(workload, []).append(
                run_once(workload, seed, args.trace))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)

    header = (f"{'workload':13s} {'metric':40s} {'unit':6s} {'runs':>4s} "
              f"{'samples':>7s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s}")
    print(header)
    for workload, results in runs.items():
        for name, first in results[0][1]["metrics"].items():
            values = [rec["metrics"][name]["value"] for _, rec in results]
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            label = name if first["tracked"] else f"({name})"
            print(f"{workload:13s} {label:40s} {first['unit']:6s} "
                  f"{len(values):4d} {first['samples']:7d} {med:12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {spread:7.3f}")
        attempted = sum(res["attempted"] for res, _ in results)
        failed = sum(res["failed"] for res, _ in results)
        print(f"{workload:13s} {'failed_ratio':40s} {'ratio':6s} "
              f"{len(results):4d} {attempted // len(results):7d} "
              f"{failed / attempted:12.6g}")
    bad = [w for w, results in runs.items()
           if not all(res["correct"] for res, _ in results)]
    if bad:
        print(f"# incorrect results on: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own tests.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py           # static and traced checks
    python3 perfbench/selfcheck.py --quick   # static checks only

Static checks: plan sizes, seeded determinism, the false claims' golden
differences, a recorded report line for every statement a seed can draw,
and BENCHMARK.json against the metrics this harness emits.  Traced checks
run each workload once with ``--trace 1`` and require that every per-layer
metric mapped to that workload is non-zero, that eval-r2 builds no
echelon, that suite-warm misses no cache file, and that the traced
report digest equals the untraced one.  Not named test_*.py on purpose:
the traced checks take minutes and stay out of the repository's test run.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from summary import run_once  # noqa: E402

FAILURES = []


def check(ok, message):
    if not ok:
        FAILURES.append(message)
    print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)


def static_checks():
    expected = run.load_expected()
    for seed in (workloads.DEV_SEED, workloads.HELDOUT_SEED, 2, 3):
        plan = workloads.plan("eval-r2", seed)
        texts = [t for b in plan for t, _ in b.statements]
        check(len(texts) == 181 == len(set(texts)),
              f"eval-r2 seed {seed}: 181 distinct statements")
        check(plan == workloads.plan("eval-r2", seed),
              f"eval-r2 seed {seed}: same seed, same plan")
        for w in ("eval-r2", "certify-cold"):
            missing = [t for t, _, line in run.expected_for(w, seed, expected)
                       if line is None]
            check(not missing, f"{w} seed {seed}: every statement has a "
                               f"recorded line {missing[:2]}")
    verdicts = [v for b in workloads.plan("eval-r2", 1) for _, v in b.statements]
    check((verdicts.count("Disproved"), verdicts.count("Unknown")) == (10, 1),
          "eval-r2: 10 Disproved and 1 Unknown expected")
    check(sum(len(b.statements) for b in workloads.plan("certify-cold", 1)) == 28,
          "certify-cold: 28 certificate statements in six blocks")
    check(len(expected["suite-warm"]) == workloads.SUITE_WARM_STATEMENTS,
          "suite-warm: 179 recorded lines")
    for text, _ in workloads.false_claim_pool():
        x, y = text[len("assert_equiv "):].split(" ~ ")
        check(workloads.golden_pairs_differ(x, y),
              f"golden rows differ: {text}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.WORKLOADS")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == [(n, tracing.metric_unit(n), tracing.metric_better(n))
              for n, _ in tracing.LAYER_METRICS],
          "BENCHMARK.json per_layer matches tracing.LAYER_METRICS")
    check([m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches run.END_TO_END")


def traced_checks():
    for workload in workloads.WORKLOADS:
        result, record = run_once(workload, workloads.DEV_SEED, 1)
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        check(result["correct"] and result["failed"] == 0,
              f"{workload}: traced run correct")
        check(len(record["digests"]) == 1,
              f"{workload}: traced digest equals untraced digest")
        check(set(metrics) == {n for n, _ in tracing.LAYER_METRICS},
              f"{workload}: every per-layer metric reported")
        zero = [n for n, mapped in tracing.LAYER_METRICS
                if workload in mapped and not metrics.get(n)]
        check(not zero, f"{workload}: mapped layer metrics non-zero {zero}")
        if workload == "eval-r2":
            check(metrics["zhu.build_ospan.calls"] == 0,
                  "eval-r2: zhu.build_ospan.calls = 0")
        if workload == "suite-warm":
            check(metrics["zhu.build_ospan.cache_miss"] == 0,
                  "suite-warm: zhu.build_ospan.cache_miss = 0")


def main(argv):
    static_checks()
    if "--quick" not in argv:
        traced_checks()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

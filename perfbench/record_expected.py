"""Record the report line of every statement the workloads can draw.

Usage, from the root of a checkout, on the code whose output is the
reference::

    python3 perfbench/record_expected.py

Writes perfbench/expected_lines.json: for eval-r2 and certify-cold a map
from statement text to its report line, for suite-warm the report lines of
``suite all`` at rank 2 in order.  Timings (``NNN ms``) are replaced by
``<t> ms``.  The verdicts themselves are not taken from here: they are
written by rule in workloads.py, and this script refuses to record a line
whose verdict disagrees.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import orbifock  # noqa: E402
import workloads  # noqa: E402
from worker import make_runners, strip_timing  # noqa: E402


def every_eval_r2_statement():
    """All statements any seed of eval-r2 can draw."""
    n = len(workloads.GENERATORS)
    circles = [(workloads.circle_statement(i, j, k), "Proved")
               for i in range(n) for j in range(n) for k in range(3)]
    return [workloads.Block(rank=2, statements=(
        workloads.table_statements() + workloads.final_relation_statements()
        + circles + workloads.false_claim_pool()
        + [(workloads.OVER_CUTOFF, "Unknown")]))]


def record_blocks(blocks, cache_dir):
    lines = {}
    for (runner, stmts), block in zip(make_runners(orbifock, blocks, cache_dir),
                                      blocks):
        report = orbifock.Report(runner.config)
        for stmt, (text, verdict) in zip(stmts, block.statements):
            runner.run([stmt], report)
            result = report.results[-1]
            if result.status != verdict:
                raise SystemExit(f"{text}: {result.status}, expected {verdict}")
            lines[text] = strip_timing(result.line())
    return lines


def main():
    work = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="record-", dir=work)
    try:
        out = {"eval-r2": record_blocks(every_eval_r2_statement(), cache_dir),
               "certify-cold": record_blocks(
                   workloads.certify_cold_plan(workloads.DEV_SEED), cache_dir)}
        report = orbifock.run_suite("all", orbifock.RunConfig(
            rank=2, cache_dir=cache_dir))
        if len(report.results) != workloads.SUITE_WARM_STATEMENTS:
            raise SystemExit(f"suite all has {len(report.results)} statements")
        for result in report.results:
            if result.status != "Proved":
                raise SystemExit(f"suite statement not Proved: {result.line()}")
        out["suite-warm"] = [strip_timing(r.line()) for r in report.results]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    with open(os.path.join(HERE, "expected_lines.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

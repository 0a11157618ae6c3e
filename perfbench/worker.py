"""One benchmark pass in a fresh interpreter, driven by ``run.py``.

Usage (normally only through run.py)::

    python3 perfbench/worker.py JOB_JSON

JOB_JSON holds the workload, seed, cache directory, mode (``setup`` stops
after set-up, ``run`` runs the statements), the parent's monotonic clock at
spawn, and an optional span file path that turns tracing on.

Standard output is one JSON object per line: a ``ready`` record, then one
``verdict`` record per statement as soon as it is known, then a ``done``
record.  The parent counts every planned statement without a verdict record
as failed, so a crash is never silent.

Between two verdicts the worker times a fixed exact-arithmetic kernel,
``reference()``.  Its time tracks the host's momentary speed, so the parent
can adjust each latency for it.  The kernel's own time is never part of a
latency or of ``run_s``.
"""

from __future__ import annotations

import gc
import json
import os
import re
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMING_RE = re.compile(r"\d+ ms\b")
REFERENCE_TERMS = 1500


def strip_timing(line):
    """A report line with every ``NNN ms`` replaced, for digests."""
    return TIMING_RE.sub("<t> ms", line)


def reference():
    """Seconds taken by a fixed harmonic sum in exact rationals.

    orbifock's work is Fraction arithmetic in pure Python, so this kernel
    slows down and speeds up with it when the host's speed changes.  The
    collector is paused so that it never bills the program's garbage here.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, REFERENCE_TERMS):
            total += Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def verdict(result, seconds, ref_before, ref_after):
    emit({"kind": "verdict", "status": result.status,
          "line": strip_timing(result.line()), "ms": 1000 * seconds,
          "ref_ms": 500 * (ref_before + ref_after)})


def make_runners(orbifock, blocks, cache_dir):
    """Parse each block's script and pair its statements with a Runner."""
    jobs = []
    for block in blocks:
        text = "\n".join(line for line, _ in block.statements)
        stmts = orbifock.parse_script(text, block.rank)
        cfg = orbifock.RunConfig(
            rank=block.rank, max_weight=block.max_weight, slack=block.slack,
            policy=orbifock.GeneratorPolicy(pairs=block.pairs),
            cache_dir=cache_dir)
        jobs.append((orbifock.Runner(cfg), stmts))
    return jobs


def run_statements(orbifock, jobs):
    """Closed loop: submit one statement, wait for its verdict, repeat."""
    ref = reference()
    run_s = 0.0
    for runner, stmts in jobs:
        report = orbifock.Report(runner.config)
        for stmt in stmts:
            t0 = time.perf_counter()
            runner.run([stmt], report)
            latency = time.perf_counter() - t0
            run_s += latency
            ref_next = reference()
            verdict(report.results[-1], latency, ref, ref_next)
            ref = ref_next
    return run_s


def run_suite_all(orbifock, cache_dir):
    """``suite all`` at rank 2; a verdict's latency is the gap since the last.

    The reference kernel runs inside ``Report.add``, after the verdict's
    time is taken, and the next gap starts once it has finished.
    """
    from orbifock import runner as runner_mod

    verdicts = []
    refs = [reference()]
    last = [0.0]
    original_add = runner_mod.Report.add

    def timed_add(report, result):
        verdicts.append((time.perf_counter() - last[0], result))
        refs.append(reference())
        original_add(report, result)
        last[0] = time.perf_counter()

    runner_mod.Report.add = timed_add
    try:
        last[0] = time.perf_counter()
        orbifock.run_suite("all", orbifock.RunConfig(rank=2, cache_dir=cache_dir))
        tail = time.perf_counter() - last[0]
    finally:
        runner_mod.Report.add = original_add
    for k, (latency, result) in enumerate(verdicts):
        verdict(result, latency, refs[k], refs[k + 1])
    return sum(latency for latency, _ in verdicts) + tail


def main(job):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import orbifock
    import workloads

    tracer = None
    if job.get("span_file"):
        # Installed before parsing so that parse spans are recorded; a
        # traced pass reports no set-up time.
        import tracing

        tracer = tracing.Tracer(job["run_id"])
        tracer.install()
    jobs = make_runners(orbifock, workloads.plan(job["workload"], job["seed"]),
                        job["cache_dir"])
    setup_s = time.monotonic() - job["spawned"]
    refs = sorted(reference() for _ in range(3))
    emit({"kind": "ready", "setup_s": setup_s, "ref_ms": 1000 * refs[1]})
    if job["mode"] == "setup":
        return
    if job["workload"] == "suite-warm":
        run_s = run_suite_all(orbifock, job["cache_dir"])
    else:
        run_s = run_statements(orbifock, jobs)
    done = {"kind": "done", "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        done["layers"] = tracer.layer_metrics()
        tracer.write_spans(job["span_file"])
    emit(done)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))

"""Time-to-verdict benchmark for orbifock.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload eval-r2 --seed 1 --seconds 10 --trace 0

Each pass runs in a fresh worker process, so in-process caches start empty
as in one CLI invocation.  Passes repeat until ``--seconds`` have elapsed
(at least one).  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` every pass is
run twice, untraced and traced, and the object holds the per-layer metrics.
Times are scaled to the reference kernel's nominal speed (see ``adjusted``).
A fuller record, with run metadata and unscaled times, goes to
``.perfbench-work/results/``.  See perfbench/README.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench-work")
EXPECTED_FILE = os.path.join(HERE, "expected_lines.json")
SETUP_ONLY_WORKERS = 4      # extra set-up samples per untraced run
RUN_BUDGET_S = 170          # a run must end within 180 s
NO_NEW_PASS_AFTER_S = 100   # do not start a pass this late into a run
# The reference kernel's median time on the development host (Intel Xeon,
# 2 vCPUs, Python 3.11); times are reported at this host speed.
REFERENCE_NOMINAL_MS = 7.0
# The metrics BENCHMARK.json tracks.  A run also records, untracked, the
# median and 90th percentile verdict times and the unadjusted wall time.
END_TO_END = ("setup_s", "run_s", "verdict_tail_ms", "peak_rss_mb")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_mean(values):
    """Mean of the slowest tenth (at least one value)."""
    ordered = sorted(values)
    return statistics.mean(ordered[-max(1, -(-len(ordered) // 10)):])


def source_digest():
    """SHA-256 over the program's sources, which names the code under test."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def adjusted(value, ref_ms):
    """A time scaled to the reference kernel's nominal speed.

    The worker times the kernel beside every verdict.  On a shared host the
    speed of both moves together by tens of percent within seconds; the
    ratio does not.
    """
    return value * REFERENCE_NOMINAL_MS / ref_ms


def load_expected():
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def expected_for(workload, seed, expected):
    """Planned (statement, verdict, report line) triples of one pass."""
    if workload == "suite-warm":
        return [(line, "Proved", line) for line in expected["suite-warm"]]
    table = expected[workload]
    return [(text, verdict, table.get(text))
            for block in workloads.plan(workload, seed)
            for text, verdict in block.statements]


class Bench:
    """One invocation: a workload, a seed, a time budget and a trace flag."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.t_start = time.monotonic()
        self.run_id = f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}-{time.time_ns()}"
        self.code = source_digest()
        self.tmp = os.path.join(WORK, "tmp", self.run_id)
        self.expected = expected_for(workload, seed, load_expected())
        self.cache_state = {"state": "copy of warm per pass"
                            if workload == "suite-warm" else "empty per pass"}
        self.n_spawned = 0

    # -- workers ---------------------------------------------------------

    def spawn(self, mode, cache_dir, workload=None, span_file=None):
        """Run one worker to completion; returns its parsed records."""
        self.n_spawned += 1
        job = {"workload": workload or self.workload, "seed": self.seed,
               "cache_dir": cache_dir, "mode": mode,
               "run_id": f"{self.run_id}-w{self.n_spawned}",
               "span_file": span_file}
        # Bytecode is cached as in a normal install, and hashing is fixed.
        env = dict(os.environ, ORBIFOCK_CACHE_DIR=cache_dir, PYTHONHASHSEED="0")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        budget = max(1.0, RUN_BUDGET_S - (time.monotonic() - self.t_start))
        job["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired as exc:
            # run() has killed the worker and waited for it.
            out, code, err = exc.stdout or "", "timeout", ""
            if isinstance(out, bytes):
                out = out.decode(errors="replace")
        else:
            out, code, err = proc.stdout, proc.returncode, proc.stderr
        records = []
        for line in out.splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
        return {"code": code, "stderr_tail": err[-2000:], "records": records}

    def fresh_dir(self, tag):
        path = os.path.join(self.tmp, tag)
        os.makedirs(path)
        return path

    def pass_cache(self, k):
        """A fresh cache directory for one pass, deleted after it.

        It is empty, or for suite-warm a copy of the warm cache, so that
        whatever a pass writes there is never read by a later pass.
        """
        path = os.path.join(self.tmp, f"cache{k}")
        if self.workload == "suite-warm":
            shutil.copytree(self.warm_cache(), path)
        else:
            os.makedirs(path)
        return path

    def warm_cache(self):
        """The cache one certify-cold pass of this code left behind.

        It is filled once per checkout and code digest, never shared
        between different sources, and written under a temporary name so a
        half-filled directory is never read.
        """
        path = os.path.join(WORK, f"warm-{self.code[:16]}")
        if not os.path.isdir(path):
            tmp = self.fresh_dir("fill")
            result = self.check(
                self.spawn("run", tmp, workload="certify-cold"),
                expected_for("certify-cold", self.seed, load_expected()))
            if result["failed"] or not result["worker_ok"]:
                raise BenchError(f"cache fill failed: {result['failures'][:3]}")
            try:
                os.rename(tmp, path)
            except OSError:
                shutil.rmtree(tmp, ignore_errors=True)
            self.cache_state["filled_in_this_run"] = True
            self.cache_state["fill_run_s"] = result["run_s"]
        self.cache_state.setdefault("filled_in_this_run", False)
        self.cache_state["dir"] = os.path.relpath(path, ROOT)
        self.cache_state["files"] = sorted(os.listdir(path))
        return path

    # -- checking --------------------------------------------------------

    def check(self, outcome, expected=None):
        """Compare a worker's verdicts with the expected ones.

        A statement fails if its verdict differs from the expected one, it
        ends in Error, its report line differs from the recorded one, or the
        worker ended before reaching it.
        """
        expected = self.expected if expected is None else expected
        records = outcome["records"]
        verdicts = [r for r in records if r.get("kind") == "verdict"]
        done = next((r for r in records if r.get("kind") == "done"), None)
        failures = []
        for i in range(max(len(expected), len(verdicts))):
            if i >= len(verdicts):
                failures.append(f"#{i}: no verdict, the worker ended")
            elif i >= len(expected):
                failures.append(f"#{i}: unplanned {verdicts[i]['line']}")
            elif verdicts[i]["status"] != expected[i][1]:
                failures.append(f"#{i}: {expected[i][0]}: "
                                f"{verdicts[i]['status']} != {expected[i][1]}")
            elif verdicts[i]["line"] != expected[i][2]:
                failures.append(f"#{i}: report line differs: {verdicts[i]['line']}")
        worker_ok = outcome["code"] == 0 and done is not None
        lines = [v["line"] for v in verdicts]
        ready = next((r for r in records if r.get("kind") == "ready"), None)
        raw_ms = sum(v["ms"] for v in verdicts)
        latencies = [adjusted(v["ms"], v["ref_ms"]) for v in verdicts]
        speed = sum(latencies) / raw_ms if raw_ms else 1.0
        return {
            "attempted": max(len(expected), len(verdicts)),
            "failed": len(failures),
            "worker_ok": worker_ok,
            "failures": failures + ([] if worker_ok else [
                f"worker exit {outcome['code']}: {outcome['stderr_tail'][-300:]}"]),
            "latencies_ms": latencies,
            "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "setup_s": adjusted(ready["setup_s"], ready["ref_ms"]) if ready else None,
            "raw_setup_s": ready["setup_s"] if ready else None,
            "run_s": done["run_s"] * speed if worker_ok else None,
            "raw_run_s": done["run_s"] if worker_ok else None,
            "speed": speed,
            "peak_rss_mb": done["peak_rss_mb"] if worker_ok else None,
            "layers": done.get("layers") if worker_ok else None,
        }

    def run_pass(self, k, span_file=None):
        cache_dir = self.pass_cache(k)
        try:
            return self.check(self.spawn("run", cache_dir, span_file=span_file))
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def more_passes(self, passes):
        elapsed = time.monotonic() - self.t_start
        return not passes or (elapsed < self.seconds
                              and elapsed < NO_NEW_PASS_AFTER_S)

    # -- the two kinds of run --------------------------------------------

    def end_to_end(self):
        setups = []
        for k in range(SETUP_ONLY_WORKERS):
            outcome = self.spawn("setup", self.fresh_dir(f"setup{k}"))
            ready = next((r for r in outcome["records"]
                          if r.get("kind") == "ready"), None)
            if outcome["code"] != 0 or ready is None:
                raise BenchError("set-up failed: " + outcome["stderr_tail"])
            setups.append(adjusted(ready["setup_s"], ready["ref_ms"]))
        passes = []
        while self.more_passes(passes):
            passes.append(self.run_pass(len(passes)))
        ok = [p for p in passes if p["run_s"] is not None]
        setups += [p["setup_s"] for p in ok]
        latencies = [ms for p in ok for ms in p["latencies_ms"]]
        if not ok or not latencies:
            return passes, {}
        return passes, {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "run_s": (statistics.median(p["run_s"] for p in ok), "s", len(ok)),
            "verdict_tail_ms": (tail_mean(latencies), "ms", len(latencies)),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in ok),
                            "MB", len(ok)),
            "verdict_p50_ms": (percentile(latencies, 50), "ms", len(latencies)),
            "verdict_p90_ms": (percentile(latencies, 90), "ms", len(latencies)),
            "raw_run_s": (statistics.median(p["raw_run_s"] for p in ok), "s",
                          len(ok)),
        }

    def per_layer(self):
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        plain, traced = [], []
        while self.more_passes(traced):
            k = len(traced)
            plain.append(self.run_pass(2 * k))
            span_file = os.path.join(WORK, "traces", f"{self.run_id}-{k}.tsv.gz")
            traced.append(self.run_pass(2 * k + 1, span_file=span_file))
            if traced[-1]["digest"] != plain[-1]["digest"]:
                traced[-1]["worker_ok"] = False
                traced[-1]["failures"].append(
                    "traced report digest differs from the untraced one")
        passes = plain + traced
        ok = [p for p in traced if p["layers"]]
        base = [p["run_s"] for p in plain if p["run_s"] is not None]
        if not ok or not base:
            return passes, {}
        metrics = {}
        for name, _ in tracing.LAYER_METRICS:
            if name == "trace.overhead_ratio":
                value = (statistics.median(p["run_s"] for p in ok)
                         / statistics.median(base))
            elif tracing.metric_unit(name) == "s":
                value = statistics.median(p["layers"][name] * p["speed"]
                                          for p in ok)
            else:
                value = statistics.median(p["layers"][name] for p in ok)
            metrics[name] = (value, tracing.metric_unit(name), len(ok))
        return passes, metrics

    def run(self):
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        passes, metrics = self.per_layer() if self.trace else self.end_to_end()
        tracked = ([n for n, _ in tracing.LAYER_METRICS] if self.trace
                   else END_TO_END)
        attempted = sum(p["attempted"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        correct = (bool(metrics) and failed == 0
                   and all(p["worker_ok"] for p in passes))
        meta = {
            "run_id": self.run_id, "workload": self.workload, "seed": self.seed,
            "dev_seed": workloads.DEV_SEED, "heldout_seed": workloads.HELDOUT_SEED,
            "seconds": self.seconds, "trace": int(self.trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": commit(), "src_sha256": self.code,
            "cache": self.cache_state,
            "passes": len(passes), "wall_s": time.monotonic() - self.t_start,
        }
        record = {
            "meta": meta,
            "metrics": {k: {"value": v, "unit": u, "samples": n,
                            "tracked": k in tracked}
                        for k, (v, u, n) in metrics.items()},
            "failed_ratio": failed / attempted if attempted else 1.0,
            "failures": [f for p in passes for f in p["failures"]][:20],
            "digests": sorted({p["digest"] for p in passes}),
            "passes": [{k: p[k] for k in ("run_s", "raw_run_s", "setup_s",
                                          "raw_setup_s", "speed", "peak_rss_mb",
                                          "attempted", "failed", "digest",
                                          "latencies_ms")}
                       for p in passes],
        }
        path = os.path.join(WORK, "results", f"{self.run_id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        print("# meta " + json.dumps(meta))
        print("# record " + os.path.relpath(path, ROOT))
        print(json.dumps({
            "correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                        for k in tracked if k in metrics},
        }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "orbifock", "__init__.py")):
        print("perfbench: no orbifock sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.run()
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

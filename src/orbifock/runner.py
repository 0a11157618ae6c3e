"""Dispatch parsed statements to the reduction and evaluation engines.

Equivalence assertions try the evaluation disproof first (a difference on
any top level is a hard counterexample), then ask the truncated circle span
for a membership certificate.  The three possible outcomes are Proved,
Disproved (with a witness), and Unknown (the cutoff was not enough, which
is never an error: truncation is one-sided).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from . import script as dsl
from .toplevel import (FAMILIES, Witness, disprove_equiv, evaluate,
                       independence_rank)
from .zhu import DEFAULT_POLICY, Verdict, build_ospan

# Hard resource guard: echelons above this weight are refused, not attempted.
MAX_WEIGHT_CAP = 16

CACHE_ENV = "ORBIFOCK_CACHE_DIR"


def default_cache_dir():
    return os.environ.get(CACHE_ENV) or None


@dataclass
class RunConfig:
    rank: int
    max_weight: int = 8
    slack: int = 2
    policy: object = DEFAULT_POLICY
    cache_dir: str | None = field(default_factory=default_cache_dir)

    def describe(self):
        return (f"rank={self.rank} max_weight={self.max_weight} "
                f"slack={self.slack} policy[{self.policy.key()}]")


@dataclass
class StatementResult:
    text: str
    status: str          # Proved | Disproved | Unknown | Error
    detail: str = ""
    ms: float = 0.0

    def line(self):
        out = f"[{self.status.upper():9s}] {self.text}"
        if self.detail:
            out += f"  ({self.detail})"
        return out


class Report:
    """Per-statement outcomes plus the overall verdict."""

    def __init__(self, config):
        self.config = config
        self.results = []
        self.cache_hits = 0

    def add(self, result):
        self.results.append(result)

    def counts(self):
        out = {"Proved": 0, "Disproved": 0, "Unknown": 0, "Error": 0}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def passed(self):
        """True when every statement was Proved."""
        c = self.counts()
        return not (c["Disproved"] or c["Error"] or c["Unknown"])

    def to_text(self, with_timing=False):
        lines = [f"# config: {self.config.describe()}"]
        for r in self.results:
            line = r.line()
            if with_timing:
                line += f"  [{r.ms:.0f} ms]"
            lines.append(line)
        c = self.counts()
        lines.append(f"# proved={c['Proved']} disproved={c['Disproved']} "
                     f"unknown={c['Unknown']} error={c['Error']} "
                     f"cache_hits={self.cache_hits}")
        lines.append("PASS" if self.passed() else "FAIL")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps({
            "config": self.config.describe(),
            "results": [{"text": r.text, "status": r.status,
                         "detail": r.detail, "ms": round(r.ms, 3)}
                        for r in self.results],
            "counts": self.counts(),
            "cache_hits": self.cache_hits,
            "pass": self.passed(),
        }, indent=2) + "\n"


class Runner:
    """Runs statements against one configuration, building spans lazily."""

    def __init__(self, config):
        self.config = config
        self._echelon = None

    def echelon(self):
        if self._echelon is None:
            cfg = self.config
            if cfg.max_weight + cfg.slack > MAX_WEIGHT_CAP:
                raise ResourceWarning(
                    f"max_weight+slack {cfg.max_weight + cfg.slack} exceeds the "
                    f"resource guard {MAX_WEIGHT_CAP}")
            self._echelon = build_ospan(cfg.rank, cfg.max_weight, cfg.slack,
                                        policy=cfg.policy,
                                        cache_dir=cfg.cache_dir)
        return self._echelon

    def run(self, statements, report=None):
        report = report or Report(self.config)
        for stmt in statements:
            t0 = time.perf_counter()
            try:
                status, detail = self.run_statement(stmt)
            except ResourceWarning as exc:
                status, detail = "Unknown", f"resource guard: {exc}"
            except (ValueError, ArithmeticError) as exc:
                status, detail = "Error", str(exc)
            ms = 1000 * (time.perf_counter() - t0)
            report.add(StatementResult(dsl.format_statement(stmt), status, detail, ms))
        if self._echelon is not None and self._echelon.cache_hit:
            report.cache_hits += 1
        return report

    def run_statement(self, stmt):
        rank = self.config.rank
        if stmt.kind == "equiv":
            left, right = (dsl.realize(e, rank) for e in stmt.payload)
            return self.check_equiv(left, right)
        if stmt.kind == "eval":
            expr, fam, expected = stmt.payload
            got = evaluate(dsl.realize(expr, rank), fam)
            want = dsl.realize_expected(expected, fam, rank)
            if got == want:
                return "Proved", ""
            return "Disproved", f"{fam}: got {got}, expected {want}"
        if stmt.kind == "rank":
            exprs, value = stmt.payload
            got = independence_rank([dsl.realize(e, rank) for e in exprs])
            if got == value:
                return "Proved", ""
            return "Disproved", f"rank {got} != {value}"
        if stmt.kind == "zero_eval":
            x = dsl.realize(stmt.payload[0], rank)
            for fam in FAMILIES:
                act = evaluate(x, fam)
                if not act.is_zero():
                    entry, val = next((e, v) for e, v in act.entries() if v)
                    return "Disproved", str(Witness(fam, entry, val, 0))
            return "Proved", ""
        raise ValueError(f"unknown statement kind {stmt.kind!r}")

    def check_equiv(self, left, right):
        witness = disprove_equiv(left, right)
        if witness is not None:
            return "Disproved", str(witness)
        diff = left - right
        if diff.is_zero():
            return "Proved", "exact equality"
        cfg = self.config
        if diff.max_weight2() > 2 * cfg.max_weight:
            return "Unknown", (f"weight {diff.max_weight2() / 2:g} exceeds "
                               f"cutoff {cfg.max_weight}; no disproof found")
        if self.echelon().is_equiv(left, right) is Verdict.PROVED_EQUAL:
            return "Proved", f"circle-span certificate at cutoff {cfg.max_weight}"
        return "Unknown", (f"no certificate at cutoff {cfg.max_weight} "
                           f"(slack {cfg.slack}); no disproof found")


def run_text(text, config):
    """Parse and run a script given as text."""
    return Runner(config).run(dsl.parse_script(text, config.rank))

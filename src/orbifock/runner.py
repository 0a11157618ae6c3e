"""Dispatch parsed statements to the reduction and evaluation engines.

Equivalence assertions try the evaluation disproof first (a difference on
any top level is a hard counterexample), then ask the truncated circle span
for a membership certificate.  The three possible outcomes are Proved,
Disproved (with a witness), and Unknown (the cutoff was not enough, which
is never an error: truncation is one-sided).

The Runners of one run share a :class:`Session`: its circle spans and one
memo of Proved verdicts, so a statement is decided once per run and per
relabeling of its generator indices.  Permuting the generators h_a is an
automorphism of M(1) that commutes with theta, so it preserves the product,
the circles and O(V) and permutes the readings on the five top levels: a
statement and its relabelings have one verdict.  Only Proved verdicts are
reused, since a witness names an entry of one index order.

The memo key (:meth:`Runner.memo_key`) also says where a verdict holds, by
statement kind:

- ``zero_eval`` and ``rank``: the relabeled statement alone, at every rank.
  Take a state on generators 1..k, read at rank l >= k.  Its Hplus, Tplus
  and Mlambda readings (a polynomial in l_1..l_k) are its rank-k ones.  Its
  Hminus and Tminus readings are the rank-k matrices plus the diagonal
  entries (j, j), j > k: :func:`~orbifock.toplevel.top_level_matrix` puts
  the vacuum (or empty-remainder) term on every diagonal entry, and no
  other term of the state reaches row or column j, so each extra entry
  equals the Hplus (or Tplus) reading.  Whether every reading vanishes, and
  the rank of a list of readings, therefore do not depend on l.
- ``eval``: the rank and the relabeled statement.  An expected value such
  as E(1,1) is a matrix of the rank, so ``one on Hminus = E(1,1)`` holds at
  rank 1 and fails at rank 2.
- ``equiv``: the span's (rank, policy, cache_dir), the cutoff, the slack
  and the relabeled statement, since a certificate is one truncated span's.

A statement that names an index above its Runner's rank is an Error, so it
always runs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

from . import script as dsl
from .toplevel import (FAMILIES, Witness, disprove_equiv, evaluate,
                       first_nonzero, independence_rank)
from .zhu import DEFAULT_POLICY, CircleSpan

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
    """Per-statement outcomes plus the overall verdict.

    ``header`` is the ``# config:`` text, the full configuration by default.
    """

    def __init__(self, config):
        self.header = config.describe()
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
        lines = [f"# config: {self.header}"]
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
            "config": self.header,
            "results": [{"text": r.text, "status": r.status,
                         "detail": r.detail, "ms": round(r.ms, 3)}
                        for r in self.results],
            "counts": self.counts(),
            "cache_hits": self.cache_hits,
            "pass": self.passed(),
        }, indent=2) + "\n"


class Session:
    """What the Runners of one run share: ``spans``, the
    :class:`~orbifock.zhu.CircleSpan` of each (rank, policy, cache_dir) met
    so far, and ``proved``, which maps the :meth:`Runner.memo_key` of every
    statement Proved so far to its detail (see the module docstring).
    """

    def __init__(self):
        self.spans = {}
        self.proved = {}

    def span(self, rank, policy, cache_dir):
        key = (rank, policy, cache_dir)
        return self.spans.setdefault(key, CircleSpan(*key))


class Runner:
    """Runs statements against one configuration, in ``session`` or in a
    fresh session of its own.  Its ``span`` is the session's
    :class:`~orbifock.zhu.CircleSpan` of its (rank, policy, cache_dir).  A
    difference of weight at most the cutoff max_weight is certified sector
    part by sector part, each at its own weight, else at the window
    max_weight + slack.

    A statement whose memo key is in the session's ``proved`` is Proved
    without being run again.  Every generator policy seeds the span
    symmetrically in the indices, so a certificate carries over too.
    Disproved, Unknown and Error results are always computed afresh.
    """

    def __init__(self, config, session=None):
        self.config = config
        self.session = Session() if session is None else session
        self.span = self.session.span(config.rank, config.policy,
                                      config.cache_dir)

    def memo_key(self, stmt, names):
        """The key under which a Proved ``stmt`` is memoized, by kind (see
        the module docstring); ``names`` receives the relabeling."""
        key = dsl.relabel(stmt, names)
        cfg = self.config
        if stmt.kind == "eval":
            return cfg.rank, key
        if stmt.kind == "equiv":
            return ((cfg.rank, cfg.policy, cfg.cache_dir), cfg.max_weight,
                    cfg.slack, key)
        return key

    def run(self, statements, report=None):
        report = report or Report(self.config)
        proved = self.session.proved
        # A call that read any echelon from the cache counts one hit.
        hits = self.span.cache_hits
        for stmt in statements:
            t0 = time.perf_counter()
            names = {}
            key = self.memo_key(stmt, names)
            # An index beyond the rank, in a statement parsed at a higher
            # one, is an Error, so such a statement is always run.
            if key in proved and max(names, default=0) <= self.config.rank:
                status, detail = "Proved", proved[key]
            else:
                try:
                    status, detail = self.run_statement(stmt)
                except ResourceWarning as exc:
                    status, detail = "Unknown", f"resource guard: {exc}"
                except (ValueError, ArithmeticError) as exc:
                    status, detail = "Error", str(exc)
                if status == "Proved":
                    proved[key] = detail
            ms = 1000 * (time.perf_counter() - t0)
            report.add(StatementResult(dsl.format_statement(stmt), status, detail, ms))
        if self.span.cache_hits > hits:
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
            return "Disproved", (f"{fam}: got {dsl.printable(got)}, "
                                 f"expected {dsl.printable(want)}")
        if stmt.kind == "rank":
            exprs, value = stmt.payload
            got = independence_rank([dsl.realize(e, rank) for e in exprs])
            if got == value:
                return "Proved", ""
            return "Disproved", f"rank {got} != {value}"
        if stmt.kind == "zero_eval":
            found = first_nonzero(dsl.realize(stmt.payload[0], rank), FAMILIES)
            if found is None:
                return "Proved", ""
            fam, entry, val = found
            return "Disproved", str(Witness(fam, entry, dsl.printable(val), 0))
        raise ValueError(f"unknown statement kind {stmt.kind!r}")

    def check_equiv(self, left, right):
        witness = disprove_equiv(left, right)
        if witness is not None:
            dsl.printable(witness.left)
            dsl.printable(witness.right)
            return "Disproved", str(witness)
        diff = left - right
        if diff.is_zero():
            return "Proved", "exact equality"
        cfg = self.config
        if cfg.max_weight < 0 or cfg.slack < 0:
            raise ValueError(f"max_weight and slack must be nonnegative, "
                             f"got {cfg.max_weight} and {cfg.slack}")
        if diff.max_weight() > cfg.max_weight:
            return "Unknown", (f"weight {diff.max_weight()} exceeds "
                               f"cutoff {cfg.max_weight}; no disproof found")
        if self.span.contains(diff, cfg.max_weight + cfg.slack):
            return "Proved", f"circle-span certificate at cutoff {cfg.max_weight}"
        return "Unknown", (f"no certificate at cutoff {cfg.max_weight} "
                           f"(slack {cfg.slack}); no disproof found")


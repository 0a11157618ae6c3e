"""Built-in verification suites.

Each suite assembles statements (mostly in the script language, a few
native checks that the language cannot express) and runs them through the
standard runner, so reports look the same everywhere.  Each certificate
block sets its own cutoff and generator policy, the values that make its
certificates fire; the other blocks only evaluate.  A suite reads only the
rank and ``cache_dir`` (which no command sets) from its configuration,
since every block runs through :func:`_run_block`.  :func:`run_suite`
makes one report per run, headed by the rank alone, and each suite adds
its results to it.  It also makes one :class:`~orbifock.runner.Session`
per run for every block's Runner and native check.  Its circle spans, one
per (rank, policy, cache_dir), build each sector echelon once, at the
weight of the first difference part that meets it, and grow it when a
heavier part needs more, or to the window when a part's own weight does
not certify it; no later query of a run allows less than the window a span
holds.  Its one memo of Proved verdicts is keyed by statement kind: a
``zero_eval`` or ``rank`` statement Proved at one rank is Proved at every
rank that names its indices, so the rank-3 closing relations reuse the
rank-2 ones; an ``assert_eval`` is reused only at its own rank, and an
``assert_equiv`` only under its own span, cutoff and slack.

Some relations only exist at a minimal rank (four distinct indices for the
sign relations, three for the triple-index center relation); those blocks
run at max(config.rank, minimal rank) and say so in the statement text.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import script as dsl
from . import zhu
from .fock import FockVector, make_monomial
from .runner import Report, RunConfig, Runner, Session, StatementResult
from .tables import GOLDEN
from .toplevel import (FAMILIES, Matrix, _entries, disprove_equiv, evaluate,
                       evaluate_word)
from .zhu import GeneratorPolicy

SUITE_NAMES = ("tables", "circle_reductions", "matrix_units",
               "final_relations", "all")


def run_suite(name, config):
    """Run a named suite, or with 'all' every suite in turn, into one report.

    The report's header is ``rank=R``: the rank is all a suite reads, and
    each block sets its own cutoff and policy.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; pick one of {SUITE_NAMES}")
    # Looked up per call: the benchmark's tracer rebinds the suite functions.
    suites = {"tables": tables_suite,
              "circle_reductions": circle_reductions_suite,
              "matrix_units": matrix_units_suite,
              "final_relations": final_relations_suite}
    report = Report(config)
    report.header = f"rank={config.rank}"
    session = Session()
    for fn in suites.values() if name == "all" else [suites[name]]:
        fn(config, report, session)
    return report


def _run_block(config, report, session, lines, rank, **settings):
    """Run a block's script lines into report at its own rank and settings
    (max_weight, slack, policy) and the suite's ``cache_dir``, in the run's
    session."""
    block = RunConfig(rank=rank, cache_dir=config.cache_dir, **settings)
    stmts = dsl.parse_script("\n".join(lines), rank)
    Runner(block, session).run(stmts, report)


def _native(report, text, ok, detail=""):
    report.add(StatementResult(text, "Proved" if ok else "Disproved", detail))


# ---------------------------------------------------------------------------
# tables

def tables_suite(config, report, session):
    """Golden check of all three action tables, 40 entries."""
    lines = [f"assert_eval {label} on {fam} = {expected}"
             for elements in GOLDEN.values()
             for label, row in elements.items()
             for fam, expected in row.items()]
    _run_block(config, report, session, lines, max(2, config.rank))


# ---------------------------------------------------------------------------
# circle_reductions

def circle_reductions_suite(config, report, session):
    """The weight-reduction lemmas, certified against truncated circle spans."""
    # Four-index sign relations need four distinct generators.
    lines = []
    for (m, n, r, s) in [(2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1),
                         (1, 1, 1, 2), (2, 2, 1, 1), (3, 1, 1, 1),
                         (2, 1, 2, 1)]:
        sign = "" if (m + n + r + s) % 2 == 0 else "-"
        lines.append(
            f"assert_equiv h1(-{m})h2(-{n})h3(-{r})h4(-{s}) ~ "
            f"{sign}h1(-1)h2(-1)h3(-1)h4(-1)")
    _run_block(config, report, session, lines, max(4, config.rank),
               max_weight=7, slack=1,
               policy=GeneratorPolicy(pairs="quadratic"))

    # Quadratic weight-shift relations at two indices.
    lines = []
    for (m, n) in [(1, 1), (1, 2), (2, 1)]:
        lines.append(
            f"assert_equiv h1(-1)h1(-1)h1(-{m})h2(-{n}) ~ "
            f"2 S(1,{m};2,{n}) * w1 - {2 * m} S(1,{m + 2};2,{n}) "
            f"- {2 * m} S(1,{m + 1};2,{n})")
    for m in (1, 2):
        lines.append(
            f"assert_equiv (S(1,1;2,{m + 1}) + S(1,1;2,{m})) * w1 ~ "
            f"S(1,3;2,{m + 1}) + 3/{2 * m} S(1,4;2,{m}) "
            f"+ {m + 3}/{m} S(1,3;2,{m}) + S(1,2;2,{m + 1}) "
            f"+ {2 * m + 3}/{2 * m} S(1,2;2,{m})")
    # Quartic reduction into star polynomials.
    for m in (1,):
        lines.append(
            f"assert_equiv h1(-1)h1(-1)h1(-1)h1(-1)h1(-1)h2(-{m}) ~ "
            f"4 S(1,1;2,{m}) * w1^2 "
            f"- (16 S(1,3;2,{m}) + 4 S(1,2;2,{m}) - {4 * m} S(1,1;2,{m + 1}) "
            f"- {4 * (m + 3)} S(1,1;2,{m})) * w1 "
            f"+ 36 S(1,5;2,{m}) + 36 S(1,4;2,{m}) - {4 * m} S(1,3;2,{m + 1}) "
            f"- {4 * m} S(1,2;2,{m + 1}) - {4 * (m + 3)} S(1,3;2,{m}) "
            f"- {4 * (m + 3)} S(1,2;2,{m})")
    # Basis of the quadratic sector and the weight-7 relation behind it.
    lines.append("assert_rank [S(1,1;2,1), S(1,1;2,2), S(1,1;2,3), "
                 "S(1,1;2,4), S(1,1;2,5)] = 5")
    _run_block(config, report, session, lines, 2, max_weight=8, slack=2)

    # Mixed-index shift relations need three generators.
    lines = []
    for m in (1, 2):
        lines.append(
            f"assert_equiv w1 * (S(2,1;3,{m + 1}) + S(2,1;3,{m})) ~ "
            f"1/{2 * m} S(2,4;3,{m}) + 1/{m} S(2,3;3,{m}) "
            f"+ 1/{2 * m} S(2,2;3,{m})")
        lines.append(
            f"assert_equiv w1 * (S(2,1;2,{m + 1}) + S(2,1;2,{m})) ~ "
            f"1/2 (S(1,1;1,{m + 3}) + 2 S(1,1;1,{m + 2}) + S(1,1;1,{m + 1})) "
            f"+ 1/{2 * m} (S(2,4;2,{m}) + 2 S(2,3;2,{m}) + S(2,2;2,{m}))")
    _run_block(config, report, session, lines, 3, max_weight=7, slack=1,
               policy=GeneratorPolicy(pairs="quadratic"))

    _membership_and_leading_coefficient(report, session, config.cache_dir)


def _membership_and_leading_coefficient(report, session, cache_dir):
    """The six-step ladder: S(1,6) falls into the span of S(1,m), m <= 5.

    Two native checks: the reduced normal forms of S(1,1..6) modulo the full
    span at window 10 have rank 5, and the circle of the basic quadratic with
    h_1(-1)^4 reduces, modulo the omega-anchored span plus everything below
    weight 7, to exactly -64 times the reduced form of S(1,6).  The full
    span, the session's rank-2 default one, grows the quadratic shifts'
    echelon, held at their weight 6, to window 10 for the matrix-unit
    block; the omega-anchored one is made here, without a cache.
    """
    t0 = time.perf_counter()
    full = session.span(2, zhu.DEFAULT_POLICY, cache_dir)
    reduced = [full.reduce(zhu.s_pair(2, 1, 1, 2, m), 10) for m in range(1, 7)]
    rows = [r.integer_form()[1] for r in reduced]
    r5 = zhu.exact_rank(rows[:5])
    r6 = zhu.exact_rank(rows)
    _native(report,
            "S(1,1;2,6) lies in the span of S(1,1;2,m), m<=5, modulo circles",
            r5 == 5 and r6 == 5,
            f"reduced ranks {r5} and {r6} at cutoff 8+2; "
            f"{1000 * (time.perf_counter() - t0):.0f} ms")

    t0 = time.perf_counter()
    anchored = zhu.CircleSpan(2, GeneratorPolicy(pairs="omega"))
    circle = zhu.circ_n(zhu.s_pair(2, 1, 1, 2, 1),
                        FockVector.from_monomial(2, make_monomial(2, [(1, -1)] * 4)))
    nf = anchored.reduce(circle, 10, low=7)
    s16 = anchored.reduce(zhu.s_pair(2, 1, 1, 2, 6), 10, low=7)
    ok = (not s16.is_zero()) and nf == -64 * s16
    _native(report,
            "circ(S(1,1;2,1), h1(-1)^4) reduces to -64 * S(1,1;2,6) "
            "modulo anchored circles and weight < 7",
            ok, f"{1000 * (time.perf_counter() - t0):.0f} ms")


# ---------------------------------------------------------------------------
# matrix_units

def matrix_units_suite(config, report, session):
    """Two matrix-algebra copies: actions, products, mutual annihilation."""
    rank = max(3, config.rank)

    # Class equality of the two representatives (evaluation, all families).
    for a in range(1, rank + 1):
        for b in range(1, rank + 1):
            if a == b:
                continue
            for mk, mkbar, tag in ((zhu.e_u, zhu.e_u_bar, "Eu"),
                                   (zhu.e_t, zhu.e_t_bar, "Et")):
                w = disprove_equiv(mk(rank, a, b), mkbar(rank, a, b))
                _native(report,
                        f"[{tag}({a},{b})] = [{tag}bar({a},{b})] "
                        f"(no evaluation disproof, rank {rank})",
                        w is None, str(w) if w else "")
            w = disprove_equiv(zhu.lam(rank, a, b), zhu.lam(rank, b, a))
            _native(report,
                    f"[Lam({a},{b})] = [Lam({b},{a})] "
                    f"(no evaluation disproof, rank {rank})",
                    w is None, str(w) if w else "")

    # Conformal-vector action on the units (star vectors, all families).
    lines = []
    for a in (1, 2, 3):
        for (b, c) in ((1, 2), (2, 3), (3, 1)):
            du = "" if a != b else f" - Eu({b},{c})"
            lines.append(f"assert_zero_eval w{a} * Eu({b},{c}){du}")
            du = "" if a != c else f" - Eu({b},{c})"
            lines.append(f"assert_zero_eval Eu({b},{c}) * w{a}{du}")
            coeff = "1/16" if a != b else "9/16"
            lines.append(f"assert_zero_eval w{a} * Et({b},{c}) - {coeff} Et({b},{c})")
            coeff = "1/16" if a != c else "9/16"
            lines.append(f"assert_zero_eval Et({b},{c}) * w{a} - {coeff} Et({b},{c})")
    # Singlet action on units over a disjoint index (constant shifts).
    # The twisted constant is 3/128: the twisted-minus action of J_a is
    # (3/128) I - (3/8) E_aa, and the E_aa part dies on disjoint indices.
    lines.append("assert_zero_eval J1 * Eu(2,3)")
    lines.append("assert_zero_eval Eu(2,3) * J1")
    lines.append("assert_zero_eval J1 * Et(2,3) - 3/128 Et(2,3)")
    lines.append("assert_zero_eval Et(2,3) * J1 - 3/128 Et(2,3)")
    _run_block(config, report, session, lines, rank)

    _multiplication_tables(report, rank)

    # Reduction-certified samples at rank 2 (one identity per shape).
    lines = [
        "assert_equiv w1 * Eu(1,2) ~ Eu(1,2)",
        "assert_equiv Eu(1,2) * w2 ~ Eu(1,2)",
        "assert_equiv w2 * Et(1,2) ~ 1/16 Et(1,2)",
        "assert_equiv w1 * Et(1,2) ~ 9/16 Et(1,2)",
        "assert_equiv J1 * Eu(1,2) ~ -6 Eu(1,2)",
        "assert_equiv Eu(2,1) ~ Eubar(2,1)",
        "assert_equiv Et(2,1) ~ Etbar(2,1)",
        "assert_equiv Lam(1,2) ~ Lam(2,1)",
    ]
    _run_block(config, report, session, lines, 2, max_weight=10, slack=0)


def _unit_words(rank):
    """Evaluation-level diagonal units E*_aa as words in the off-diagonals."""
    units = {}
    for kind, mk in (("u", zhu.e_u), ("t", zhu.e_t)):
        for a in range(1, rank + 1):
            b = 1 if a != 1 else 2
            units[kind, a, a] = [mk(rank, a, b), mk(rank, b, a)]
            for c in range(1, rank + 1):
                if c != a:
                    units[kind, a, c] = [mk(rank, a, c)]
    return units


def _multiplication_tables(report, rank):
    """Full product tables of the two unit families, under evaluation.

    One walk over the ordered pairs (x, y) of unit keys (kind, a, b) checks
    E*(a,b) E*(c,d) = delta(b,c) E*(a,d) when x and y share a family and
    E*(a,b) E*'(c,d) = 0 when not: each of the r^2 keys per family gives
    2 r^4 products per table, each formed from its factors' nonzero cells.
    """
    units = _unit_words(rank)
    # Each unit word is evaluated once per family and kept as its nonzero
    # cells {(row, col): value}; a scalar or LPoly action is the cell (1, 1).
    acts = {(key, fam): evaluate_word(word, fam)
            for key, word in units.items() for fam in FAMILIES}
    cells = {k: {e: v for e, v in _entries(act) if v} if isinstance(act, Matrix)
             else {(1, 1): act} if act else {} for k, act in acts.items()}
    products, annihilation = [], []  # failures (x, y, family)
    for x in units:
        for y in units:
            same = x[0] == y[0]
            z = (x[0], x[1], y[2]) if same and x[2] == y[1] else None
            for fam in FAMILIES:
                got = {}  # one multiplication per pair of cells that meet
                for (i, k), u in cells[x, fam].items():
                    for (k2, j), v in cells[y, fam].items():
                        if k == k2:
                            got[i, j] = got.get((i, j), 0) + u * v
                if {c: v for c, v in got.items() if v} != cells.get((z, fam), {}):
                    (products if same else annihilation).append((x, y, fam))
    checks = 2 * rank ** 4
    _native(report,
            f"unit products E*(a,b) E*(c,d) = delta(b,c) E*(a,d) in both "
            f"families, rank {rank} ({checks} products x 5 families)",
            not products, f"failures: {products[:3]}" if products else "")
    _native(report,
            f"mutual annihilation of the two unit families, rank {rank} "
            f"({checks} products x 5 families)",
            not annihilation,
            f"failures: {annihilation[:3]}" if annihilation else "")

    # E*(a,a) is the detour through the least b != a: check the other b.
    bad = list(dict.fromkeys(x for x, y, _ in products
                             if x[1] != x[2] and y == (x[0], x[2], x[1])))
    _native(report,
            f"diagonal units independent of the detour index, rank {rank}",
            not bad, f"failures: {bad}" if bad else "")


# ---------------------------------------------------------------------------
# final_relations

SPOT_TERMS = (Fraction(630, 128), Fraction(594, 128),
              Fraction(-4680, 128), Fraction(3456, 128))


def final_relations_suite(config, report, session):
    """The closing polynomial relations among w_a, H_a, units and Lam."""
    ranks = sorted({max(2, config.rank), 2, 3})
    for rank in ranks:
        lines = []
        pairs = [(a, b) for a in range(1, rank + 1)
                 for b in range(1, rank + 1) if a != b]
        for a in range(1, rank + 1):
            lines.append(f"assert_zero_eval (70 H{a} + 1188 w{a}^2 - 585 w{a} "
                         f"+ 27) * H{a}")
            lines.append(f"assert_zero_eval (w{a} - 1) * (w{a} - 1/16) * "
                         f"(w{a} - 9/16) * H{a}")
        for a, b in pairs:
            lines.append(
                f"assert_zero_eval -2/9 H{a} + 2/9 H{b} "
                f"- 2 Eu({a},{b})*Eu({b},{a}) + 2 Eu({b},{a})*Eu({a},{b}) "
                f"- 1/4 Et({a},{b})*Et({b},{a}) + 1/4 Et({b},{a})*Et({a},{b})")
            lines.append(
                f"assert_zero_eval -4/135 (2 w{a} + 13) * H{a} "
                f"+ 4/135 (2 w{b} + 13) * H{b} "
                f"- 4 Eu({a},{b})*Eu({b},{a}) + 4 Eu({b},{a})*Eu({a},{b}) "
                f"- 15/32 Et({a},{b})*Et({b},{a}) "
                f"+ 15/32 Et({b},{a})*Et({a},{b})")
            lines.append(
                f"assert_zero_eval w{b} * H{a} + 2/15 (w{a} - 1) * H{a} "
                f"- 1/15 (w{b} - 1) * H{b}")
            lines.append(
                f"assert_zero_eval Lam({a},{b})^2 - 4 w{a} * w{b} "
                f"+ 1/9 (H{a} + H{b}) "
                f"+ Eu({a},{b})*Eu({b},{a}) + Eu({b},{a})*Eu({a},{b}) "
                f"+ 1/4 Et({a},{b})*Et({b},{a}) + 1/4 Et({b},{a})*Et({a},{b})")
        if rank >= 3:
            for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
                lines.append(f"assert_zero_eval Lam({a},{b}) * Lam({b},{c}) "
                             f"- 2 w{b} * Lam({a},{c})")
        lines.append("assert_eval H1 on Hminus = -9 E(1,1)")
        _run_block(config, report, session, lines, rank)

    # Analytic spot values on the twisted vacuum for the quartic relation.
    rank = 2
    h1 = zhu.hgen(rank, 1)
    w1 = zhu.omega(rank, 1)
    parts = [70 * h1,
             1188 * zhu.star(w1, w1),
             -585 * w1,
             27 * FockVector.vacuum(rank)]
    got = [evaluate(p, "Tplus") for p in parts]
    ok = got == list(SPOT_TERMS) and sum(got) == 0
    _native(report,
            "quartic-relation factor on the twisted vacuum decomposes as "
            "630/128 + 594/128 - 4680/128 + 3456/128 = 0",
            ok, "got " + " + ".join(f"{v * 128}/128" for v in got))

    # Reduction-certified instances of the two single-index relations.
    _run_block(config, report, session,
               ["assert_equiv (70 H1 + 1188 w1^2 - 585 w1 + 27) * H1 ~ 0"],
               1, max_weight=8, slack=2)
    _run_block(config, report, session,
               ["assert_equiv (w1 - 1) * (w1 - 1/16) * (w1 - 9/16) * H1 ~ 0"],
               1, max_weight=10, slack=2)

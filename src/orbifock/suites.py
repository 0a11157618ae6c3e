"""Built-in verification suites.

Each suite assembles statements (mostly in the script language, a few
native checks that the language cannot express) and runs them through the
standard runner, so reports look the same everywhere.  Cutoffs and
generator policies are the shipped defaults that make every certificate
fire; all are overridable through the CLI configuration.

Some relations only exist at a minimal rank (four distinct indices for the
sign relations, three for the triple-index center relation); those blocks
run at max(config.rank, minimal rank) and say so in the statement text.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import script as dsl
from . import zhu
from .fock import FockVector, basis, make_monomial
from .runner import Report, RunConfig, Runner, StatementResult
from .tables import GOLDEN
from .toplevel import (FAMILIES, _fraction_rank, disprove_equiv, evaluate,
                       evaluate_word)
from .zhu import GeneratorPolicy

SUITE_NAMES = ("tables", "circle_reductions", "matrix_units",
               "final_relations", "all")


def run_suite(name, config):
    """Run a named suite; 'all' chains every suite into one report."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; pick one of {SUITE_NAMES}")
    if name == "all":
        report = Report(config)
        for sub in ("tables", "circle_reductions", "matrix_units",
                    "final_relations"):
            part = run_suite(sub, config)
            report.results.extend(part.results)
            report.cache_hits += part.cache_hits
        return report
    return {"tables": tables_suite,
            "circle_reductions": circle_reductions_suite,
            "matrix_units": matrix_units_suite,
            "final_relations": final_relations_suite}[name](config)


def _run_lines(lines, config, report):
    stmts = dsl.parse_script("\n".join(lines), config.rank)
    Runner(config).run(stmts, report)
    return report


def _native(report, text, ok, detail=""):
    report.add(StatementResult(text, "Proved" if ok else "Disproved", detail))


# ---------------------------------------------------------------------------
# tables

def tables_suite(config):
    """Golden check of all three action tables, 40 entries."""
    rank = max(2, config.rank)
    cfg = RunConfig(rank=rank, max_weight=config.max_weight,
                    slack=config.slack, cache_dir=config.cache_dir)
    report = Report(cfg)
    lines = [f"assert_eval {label} on {fam} = {expected}"
             for elements in GOLDEN.values()
             for label, row in elements.items()
             for fam, expected in row.items()]
    return _run_lines(lines, cfg, report)


# ---------------------------------------------------------------------------
# circle_reductions

def circle_reductions_suite(config):
    """The weight-reduction lemmas, certified against truncated circle spans."""
    report = Report(config)

    # Four-index sign relations need four distinct generators.
    r4 = max(4, config.rank)
    cfg4 = RunConfig(rank=r4, max_weight=7, slack=1,
                     policy=GeneratorPolicy(pairs="quadratic"),
                     cache_dir=config.cache_dir)
    lines = []
    for (m, n, r, s) in [(2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1),
                         (1, 1, 1, 2), (2, 2, 1, 1), (3, 1, 1, 1),
                         (2, 1, 2, 1)]:
        sign = "" if (m + n + r + s) % 2 == 0 else "-"
        lines.append(
            f"assert_equiv h1(-{m})h2(-{n})h3(-{r})h4(-{s}) ~ "
            f"{sign}h1(-1)h2(-1)h3(-1)h4(-1)")
    _run_lines(lines, cfg4, report)

    # Quadratic weight-shift relations at two indices.
    cfg2 = RunConfig(rank=2, max_weight=8, slack=2, cache_dir=config.cache_dir)
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
    _run_lines(lines, cfg2, report)

    # Mixed-index shift relations need three generators.
    cfg3 = RunConfig(rank=3, max_weight=7, slack=1,
                     policy=GeneratorPolicy(pairs="quadratic"),
                     cache_dir=config.cache_dir)
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
    _run_lines(lines, cfg3, report)

    _membership_and_leading_coefficient(report, config)
    return report


def _membership_and_leading_coefficient(report, config):
    """The six-step ladder: S(1,6) falls into the span of S(1,m), m <= 5.

    Two native checks: the reduced normal forms of S(1,1..6) modulo the full
    truncated span have rank 5, and the circle of the basic quadratic with
    h_1(-1)^4 reduces, modulo the omega-anchored span plus everything below
    weight 7, to exactly -64 times the reduced form of S(1,6).
    """
    t0 = time.perf_counter()
    full = zhu.build_ospan(2, 8, 2, cache_dir=config.cache_dir)
    reduced = [full.reduce(zhu.s_pair(2, 1, 1, 2, m)) for m in range(1, 7)]
    monos = sorted({mn for r in reduced for mn in r.terms})
    rows = [[r.terms.get(mn, 0) for mn in monos] for r in reduced]
    r5 = _fraction_rank(rows[:5])
    r6 = _fraction_rank(rows)
    _native(report,
            "S(1,1;2,6) lies in the span of S(1,1;2,m), m<=5, modulo circles",
            r5 == 5 and r6 == 5,
            f"reduced ranks {r5} and {r6} at cutoff 8+2; "
            f"{1000 * (time.perf_counter() - t0):.0f} ms")

    t0 = time.perf_counter()
    blanket = []
    for w2 in range(0, 13):
        for mn in basis(2, False, Fraction(w2, 2), "even"):
            blanket.append(FockVector.from_monomial(2, False, mn))
    anchored = zhu.build_ospan(2, 8, 2, extra_generators=blanket,
                               policy=GeneratorPolicy(pairs="omega"),
                               extra_in_span=False)
    circle = zhu.circ_n(zhu.s_pair(2, 1, 1, 2, 1),
                        FockVector.from_monomial(
                            2, False, make_monomial(2, False, [(1, -1)] * 4)))
    nf = anchored.reduce(circle)
    s16 = anchored.reduce(zhu.s_pair(2, 1, 1, 2, 6))
    ok = (not s16.is_zero()) and nf == -64 * s16
    _native(report,
            "circ(S(1,1;2,1), h1(-1)^4) reduces to -64 * S(1,1;2,6) "
            "modulo anchored circles and weight < 7",
            ok, f"{1000 * (time.perf_counter() - t0):.0f} ms")


# ---------------------------------------------------------------------------
# matrix_units

def matrix_units_suite(config):
    """Two matrix-algebra copies: actions, products, mutual annihilation."""
    rank = max(3, config.rank)
    report = Report(config)

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
    cfg = RunConfig(rank=rank, max_weight=config.max_weight,
                    slack=config.slack, cache_dir=config.cache_dir)
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
    _run_lines(lines, cfg, report)

    _multiplication_tables(report, rank)

    # Reduction-certified samples at rank 2 (one identity per shape).
    cfg2 = RunConfig(rank=2, max_weight=10, slack=0, cache_dir=config.cache_dir)
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
    _run_lines(lines, cfg2, report)
    return report


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
    """Full product tables of the two unit families, under evaluation."""
    units = _unit_words(rank)
    fams = FAMILIES
    bad = []
    checks = 0
    for kind in ("u", "t"):
        for a in range(1, rank + 1):
            for b in range(1, rank + 1):
                for c in range(1, rank + 1):
                    for d in range(1, rank + 1):
                        word = units[kind, a, b] + units[kind, c, d]
                        checks += 1
                        for fam in fams:
                            got = evaluate_word(word, fam)
                            if b == c:
                                want = evaluate_word(units[kind, a, d], fam)
                            else:
                                want = got.zero(fam, rank)
                            if got != want:
                                bad.append((kind, a, b, c, d, fam))
    _native(report,
            f"unit products E*(a,b) E*(c,d) = delta(b,c) E*(a,d) in both "
            f"families, rank {rank} ({checks} products x 5 families)",
            not bad, f"failures: {bad[:3]}" if bad else "")

    bad = []
    checks = 0
    for a in range(1, rank + 1):
        for b in range(1, rank + 1):
            for c in range(1, rank + 1):
                for d in range(1, rank + 1):
                    for word in (units["u", a, b] + units["t", c, d],
                                 units["t", c, d] + units["u", a, b]):
                        checks += 1
                        for fam in fams:
                            if not evaluate_word(word, fam).is_zero():
                                bad.append((a, b, c, d, fam))
    _native(report,
            f"mutual annihilation of the two unit families, rank {rank} "
            f"({checks} products x 5 families)",
            not bad, f"failures: {bad[:3]}" if bad else "")

    # The diagonal unit must not depend on the detour index.
    bad = []
    for kind, mk in (("u", zhu.e_u), ("t", zhu.e_t)):
        for a in range(1, rank + 1):
            others = [b for b in range(1, rank + 1) if b != a]
            base = None
            for b in others:
                cur = [evaluate_word([mk(rank, a, b), mk(rank, b, a)], fam)
                       for fam in fams]
                if base is None:
                    base = cur
                elif cur != base:
                    bad.append((kind, a, b))
    _native(report,
            f"diagonal units independent of the detour index, rank {rank}",
            not bad, f"failures: {bad}" if bad else "")


# ---------------------------------------------------------------------------
# final_relations

SPOT_TERMS = (Fraction(630, 128), Fraction(594, 128),
              Fraction(-4680, 128), Fraction(3456, 128))


def final_relations_suite(config):
    """The closing polynomial relations among w_a, H_a, units and Lam."""
    report = Report(config)
    ranks = sorted({max(2, config.rank), 2, 3})
    for rank in ranks:
        cfg = RunConfig(rank=rank, max_weight=config.max_weight,
                        slack=config.slack, cache_dir=config.cache_dir)
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
        _run_lines(lines, cfg, report)

    # Analytic spot values on the twisted vacuum for the quartic relation.
    rank = 2
    h1 = zhu.hgen(rank, 1)
    w1 = zhu.omega(rank, 1)
    parts = [70 * h1,
             1188 * zhu.star(w1, w1),
             -585 * w1,
             27 * FockVector.vacuum(rank)]
    got = [evaluate(p, "Tplus").data for p in parts]
    ok = got == list(SPOT_TERMS) and sum(got) == 0
    _native(report,
            "quartic-relation factor on the twisted vacuum decomposes as "
            "630/128 + 594/128 - 4680/128 + 3456/128 = 0",
            ok, "got " + " + ".join(f"{v * 128}/128" for v in got))

    # Reduction-certified instances of the two single-index relations.
    cfg1a = RunConfig(rank=1, max_weight=8, slack=2, cache_dir=config.cache_dir)
    _run_lines(["assert_equiv (70 H1 + 1188 w1^2 - 585 w1 + 27) * H1 ~ 0"],
               cfg1a, report)
    cfg1b = RunConfig(rank=1, max_weight=10, slack=2, cache_dir=config.cache_dir)
    _run_lines(["assert_equiv (w1 - 1) * (w1 - 1/16) * (w1 - 9/16) * H1 ~ 0"],
               cfg1b, report)
    return report

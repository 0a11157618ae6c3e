"""Runner semantics, report determinism, and the command-line interface."""

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from orbifock.cli import main
from orbifock.runner import Report, RunConfig, Runner, Session
from orbifock.script import ScriptError, parse_script
from orbifock.suites import run_suite
from orbifock import suites, vertex, zhu
from orbifock.toplevel import Matrix
from orbifock.zhu import DEFAULT_POLICY, MAX_WEIGHT_CAP, GeneratorPolicy


def cfg(rank=2, max_weight=6, slack=2, cache_dir=None):
    return RunConfig(rank=rank, max_weight=max_weight, slack=slack,
                     cache_dir=cache_dir)


def run_text(text, config):
    """Parse and run a script given as text, as the verify command does."""
    return Runner(config).run(parse_script(text, config.rank))


def test_equiv_statuses(ospan_cache):
    report = run_text(
        # the shift identity star(S, w1) ~ (L1(-2) + L1(-1)) S, certifiable
        "assert_equiv S(1,1;2,1) * w1 ~ h1(-2)h2(-1) + h1(-3)h2(-1) + "
        "1/2 h1(-1)h1(-1)h1(-1)h2(-1)\n"
        "assert_equiv w1 ~ 0\n"        # disprovable on the odd module
        "assert_equiv w1 ~ w1 + circ(w1, J1)\n",  # needs weight 9 > cutoff
        cfg(cache_dir=ospan_cache))
    statuses = [r.status for r in report.results]
    assert statuses == ["Proved", "Disproved", "Unknown"]
    assert "Hminus" in report.results[1].detail
    assert not report.passed()


def test_exact_equality_shortcut():
    report = run_text("assert_equiv h1(-1)h1(-3) ~ h1(-3)h1(-1)", cfg())
    assert report.results[0].status == "Proved"
    assert report.results[0].detail == "exact equality"


def test_eval_and_rank_and_zero_eval():
    report = run_text(
        "assert_eval S(1,1;2,4) on Tminus = -35/32 E(1,2) - 5/32 E(2,1)\n"
        "assert_eval w1 on Tplus = 1/16\n"
        "assert_eval w1 on Tplus = 1/8\n"
        "assert_rank [S(1,1;2,1), S(1,1;2,2), S(1,1;2,3), S(1,1;2,4), "
        "S(1,1;2,5), S(1,1;2,6)] = 5\n"
        "assert_zero_eval circn(w1, S(1,1;2,1), 1)\n",
        cfg())
    statuses = [r.status for r in report.results]
    assert statuses == ["Proved", "Proved", "Disproved", "Proved", "Proved"]


def test_error_status_for_bad_realization():
    # Twisted-module modes do not act on the vacuum module, and h(0) kills
    # it: a mode depth is a positive integer, checked when parsing.
    with pytest.raises(ScriptError, match="expected '\\)', found '/'"):
        parse_script("assert_zero_eval h1(-1/2)h1(-1/2)", 2)
    with pytest.raises(ScriptError, match="expected a positive mode depth"):
        parse_script("assert_zero_eval h1(-0)h1(-1)", 2)


def test_out_of_range_matrix_unit_is_an_error():
    # Read as the zero matrix, E(3,3) at rank 2 would prove this false claim.
    with pytest.raises(ValueError, match="out of range"):
        Matrix.unit(2, 1, 3)
    # Parsed at rank 3 and run at rank 2, so E(3,3) fails at run time.
    report = Runner(RunConfig(rank=2)).run(parse_script(
        "assert_eval Eu(1,2) on Hminus = E(1,2) + E(3,3)", 3))
    assert report.results[0].status == "Error"


def test_runner_never_both_proved_and_disproved(ospan_cache):
    text = ("assert_equiv w1 ~ 0\n"
            "assert_equiv w1 ~ w1\n"
            "assert_equiv Lam(1,2) ~ Lam(2,1)\n")
    report = run_text(text, cfg(max_weight=8, cache_dir=ospan_cache))
    for r in report.results:
        assert r.status in ("Proved", "Disproved", "Unknown")


def test_resource_guard_reports_unknown():
    # The echelon refuses a window above the cap, whoever asks for it.
    report = run_text("assert_equiv circn(w1, J1, 9) ~ 0",
                      cfg(max_weight=MAX_WEIGHT_CAP + 2, slack=0))
    assert report.results[0].status == "Unknown"
    assert report.results[0].detail == (
        "resource guard: echelon window 18 exceeds the weight cap 16")
    report = run_text("assert_equiv circn(w1, J1, 9) ~ 0",
                      cfg(max_weight=MAX_WEIGHT_CAP, slack=1))
    assert report.results[0].line() == (
        "[UNKNOWN  ] assert_equiv circn(w1, J1, 9) ~ 0  (resource guard: "
        "echelon window 17 exceeds the weight cap 16)")


@pytest.mark.parametrize("expr", ["circ(" * 5 + "w1" + ", w1)" * 5, "w1^9",
                                  "S(1,200;2,200)", "h1(-17)h1(-1)",
                                  "(1/2)^" + "9" * 4300, "w1^" + "9" * 4300,
                                  "circn(w1, w1, " + "9" * 4300 + ")"],
                         ids=["circle-weight-17", "power-weight-18",
                              "pair-weight-400", "monomial-weight-18",
                              "scalar-power-4300-digits",
                              "power-weight-4301-digits",
                              "circle-weight-4301-digits"])
def test_realize_resource_guard_reports_unknown(expr):
    t0 = time.perf_counter()
    report = run_text(f"assert_zero_eval {expr}", cfg())
    assert time.perf_counter() - t0 < 0.5
    assert report.results[0].status == "Unknown"
    assert report.results[0].detail.startswith("resource guard: ")


def test_oversized_echelon_reports_unknown():
    # verify --rank 8 --max-weight 14 asks for window 16: 54,406,122 columns.
    t0 = time.perf_counter()
    report = run_text("assert_equiv w1 * Eu(1,2) ~ Eu(1,2)",
                      cfg(rank=8, max_weight=14))
    assert time.perf_counter() - t0 < 1
    assert report.results[0].status == "Unknown"
    assert report.results[0].detail.startswith("resource guard: ")


def test_missing_certificate_stays_unknown():
    # Without the seed h_1(-2)^2 the rank-1 span at window 10 misses this
    # circle, and the runner never upgrades the Unknown; under "all" it is
    # Proved.
    text = "assert_equiv circ(J1, h1(-4)h1(-1)) ~ 0"
    lines = {}
    for pairs in ("omega", "all"):
        config = RunConfig(rank=1, max_weight=10, slack=0,
                           policy=GeneratorPolicy(pairs=pairs))
        lines[pairs] = run_text(text, config).results[0].line()
    assert lines["omega"] == (
        "[UNKNOWN  ] assert_equiv circ(J1, h1(-4)h1(-1)) ~ 0  (no certificate "
        "at cutoff 10 (slack 0); no disproof found)")
    assert lines["all"] == (
        "[PROVED   ] assert_equiv circ(J1, h1(-4)h1(-1)) ~ 0  "
        "(circle-span certificate at cutoff 10)")


def test_realize_resource_guard_admits_weight_15():
    report = run_text("assert_zero_eval circn(Eu(1,2), Eu(1,2), 2)", cfg())
    assert report.results[0].status == "Proved"


# Two coprime 4,000-digit literals: each prints, but their product, and
# the denominator of the sum of their inverses, do not.
A, B = "1" + "0" * 3998 + "1", "1" + "0" * 3998 + "3"


@pytest.mark.parametrize("text", [
    "assert_zero_eval (1/2)^14000 * (1/2)^14000",
    f"assert_zero_eval 1/{A} + 1/{B}",
    f"assert_zero_eval {A} * {B}",
    f"assert_zero_eval {A} ({B} w1)",
    f"assert_eval one on Hplus = {A} * {B}",
    f"assert_eval one on Hplus = 1/{A} + 1/{B}",
    f"assert_equiv {A} * {B} one ~ 0",
], ids=["scalar-powers-product", "zero-eval-inverse-sum", "zero-eval-product",
        "zero-eval-nested-scale", "expected-product", "expected-inverse-sum",
        "equiv-witness"])
def test_unprintable_values_report_unknown(text):
    t0 = time.perf_counter()
    report = run_text(text, cfg())
    assert time.perf_counter() - t0 < 0.5
    assert report.results[0].status == "Unknown"
    assert report.results[0].detail.startswith("resource guard: ")


def test_unprinted_large_values_keep_their_verdict():
    # Intermediates beyond 4300 digits that no report line prints do not
    # turn a verdict into a resource guard.
    report = run_text("assert_zero_eval (1/2)^14000 * (1/2)^14000 * "
                      "circ(w1, one)\n"
                      f"assert_zero_eval (1/{A}) * ({A} one)\n", cfg())
    proved, disproved = report.results
    assert proved.status == "Proved"
    assert disproved.status == "Disproved"
    assert disproved.detail == "Hplus: 1 vs 0"


def test_powers_of_a_weight_zero_base():
    # A power of c|0> is c^k|0>: no products, whatever the exponent, and a
    # resource guard once c^k has more digits than Python prints.
    t0 = time.perf_counter()
    report = run_text("assert_zero_eval one^1000000000\n"
                      "assert_zero_eval (1/2)^100000\n"
                      "assert_zero_eval (2 one)^3\n"
                      "assert_zero_eval (1/2)^10000\n", cfg())
    assert time.perf_counter() - t0 < 1
    one, huge, two, half = report.results
    assert one.line() == ("[DISPROVED] assert_zero_eval one^1000000000  "
                          "(Hplus: 1 vs 0)")
    assert huge.status == "Unknown"
    assert huge.detail.startswith("resource guard: ")
    assert two.line() == "[DISPROVED] assert_zero_eval (2 one)^3  (Hplus: 8 vs 0)"
    assert half.line() == ("[DISPROVED] assert_zero_eval (1/2)^10000  "
                           f"(Hplus: {Fraction(1, 2 ** 10000)} vs 0)")


def test_powers_of_unit_scalars_beyond_a_float():
    # 0, 1 and -1 never grow, so their powers need no digit guard, even
    # with an exponent too large to convert to a float.
    big = "9" * 400
    report = run_text(f"assert_zero_eval one^{big}\n"
                      f"assert_zero_eval (-1)^{big}\n"
                      f"assert_zero_eval (0)^{big}\n"
                      f"assert_eval one on Hminus = I^{big}\n", cfg())
    one, minus, zero, identity = report.results
    assert one.line() == (f"[DISPROVED] assert_zero_eval one^{big}  "
                          "(Hplus: 1 vs 0)")
    assert minus.line() == (f"[DISPROVED] assert_zero_eval (-1)^{big}  "
                            "(Hplus: -1 vs 0)")
    assert zero.line() == f"[PROVED   ] assert_zero_eval (0)^{big}"
    assert identity.line() == f"[PROVED   ] assert_eval one on Hminus = I^{big}"


SUM8 = "(" + " + ".join(f"l{i}" for i in range(1, 9)) + ")"


@pytest.mark.parametrize("expected", ["l1^10 * l1^10", SUM8 + "^10",
                                      SUM8 + "^16"],
                         ids=["product-degree-20", "sum-power-10",
                              "sum-power-16"])
def test_polynomial_product_guards(expected):
    # A polynomial product above the weight cap in degree, or of more term
    # pairs than the pair bound, is refused before it is multiplied out.
    t0 = time.perf_counter()
    report = run_text(f"assert_eval one on Mlambda = {expected}", cfg(rank=8))
    assert time.perf_counter() - t0 < 1
    assert report.results[0].status == "Unknown"
    assert report.results[0].detail.startswith("resource guard: ")


def test_polynomial_products_within_the_guards():
    # Degree 16 and a largest product of 11,880 term pairs still run.
    report = run_text("assert_eval one on Mlambda = l1^8 * l1^8\n"
                      f"assert_eval one on Mlambda = {SUM8}^6\n", cfg(rank=8))
    square, sixth = report.results
    assert square.detail == "Mlambda: got 1, expected l1^16"
    assert sixth.status == "Disproved"
    assert sixth.detail.startswith("Mlambda: got 1, expected l8^6 + 6*l7*l8^5")
    assert sixth.detail.endswith(" + 6*l1^5*l2 + l1^6")


def test_powers_in_expected_values():
    # Every base is raised by repeated squaring under the digit guard, and
    # squaring stops once the base is idempotent: 0, -1 I, I, a nilpotent
    # unit (its square is 0) and E(1,1) + c E(1,2) finish at once.
    huge = "9" * 4300
    t0 = time.perf_counter()
    report = run_text("assert_eval one on Hminus = I^100000\n"
                      "assert_eval one on Hplus = (1/2)^100000\n"
                      "assert_eval w1 on Hminus = E(1,1)^1000000000\n"
                      "assert_eval one on Hminus = (E(1,1) + 2 E(2,2))^20000\n"
                      "assert_eval one on Mlambda = (l1 + l2)^17\n"
                      f"assert_eval one on Hminus = (-1 I)^{huge}\n"
                      f"assert_eval one on Hminus = E(1,2)^{huge}\n"
                      "assert_eval one on Mlambda = (0 l1)^5\n", cfg())
    assert time.perf_counter() - t0 < 1
    identity, half, unit, growing, poly, minus, nilpotent, zero = report.results
    assert identity.line() == "[PROVED   ] assert_eval one on Hminus = I^100000"
    assert half.status == "Unknown"
    assert half.detail == "resource guard: value exceeds 4300 digits"
    assert unit.status == "Proved"
    for result in (growing, poly):
        assert result.status == "Unknown"
        assert result.detail.startswith("resource guard: ")
    assert minus.detail == "Hminus: got [1,0;0,1], expected [-1,0;0,-1]"
    assert nilpotent.detail == "Hminus: got [1,0;0,1], expected [0,0;0,0]"
    assert zero.line() == ("[DISPROVED] assert_eval one on Mlambda = (0 l1)^5  "
                           "(Mlambda: got 1, expected 0)")
    # (E(1,1) + c E(1,2))^2 is itself, so rank 8 finishes at once as well.
    t0 = time.perf_counter()
    idempotent, = run_text("assert_eval one on Hminus = "
                           f"(E(1,1) + {A} E(1,2))^{huge}\n",
                           cfg(rank=8)).results
    assert time.perf_counter() - t0 < 0.5
    assert idempotent.status == "Disproved"
    assert idempotent.detail.endswith(f"expected [1,{A},0,0,0,0,0,0;"
                                      + ";".join(["0,0,0,0,0,0,0,0"] * 7) + "]")


def test_power_digit_guard_reads_entries_in_lowest_terms():
    # The largest entry, 3^9000, prints in 4,294 digits, under the guard's
    # 4300.  Over the shared denominator 2^9000 its numerator is 6^9000, of
    # about 7,000 digits, which the guard must not read.
    report = run_text("assert_eval one on Hminus = "
                      "(1/2 E(1,1) + 3 E(2,2))^9000\n", cfg())
    result, = report.results
    assert result.status == "Disproved"
    assert result.detail.startswith("Hminus: got [1,0;0,1], expected [1/")
    assert result.detail.endswith(f",0;0,{3 ** 9000}]")


def test_report_determinism_modulo_timing():
    text = ("assert_eval w1 on Hminus = E(1,1)\n"
            "assert_equiv w1 ~ 0\n")
    a = run_text(text, cfg())
    b = run_text(text, cfg())
    assert a.to_text() == b.to_text()
    ja, jb = json.loads(a.to_json()), json.loads(b.to_json())
    for row in ja["results"] + jb["results"]:
        row.pop("ms")
    assert ja == jb


def test_report_unknown_blocks_pass_only_when_expected():
    report = run_text("assert_equiv w1 ~ w1 + circ(w1, J1)", cfg())
    assert report.results[0].status == "Unknown"
    assert not report.passed()


def test_negative_slack_is_an_error():
    config = RunConfig(rank=1, max_weight=4, slack=-1)
    report = Runner(config).run(parse_script("assert_equiv circ(w1, one) ~ 0", 1))
    assert report.results[0].status == "Error"
    assert "nonnegative" in report.results[0].detail


def test_negative_cutoff_is_an_error():
    # The sign check comes before the weight check, so a difference above a
    # negative cutoff is an Error, not Unknown.
    config = RunConfig(rank=1, max_weight=-1, slack=2)
    report = Runner(config).run(parse_script("assert_equiv circ(w1, one) ~ 0", 1))
    assert report.results[0].status == "Error"
    assert "nonnegative" in report.results[0].detail


def test_blocked_cache_write_still_proves(tmp_path):
    # A directory in the way of the rank-2 window-8 cache file of the
    # statement's sector, as a full disk would, makes the write fail: the
    # built echelon is used, and no temporary file is left behind.
    key = zhu.cache_key(2, 8, DEFAULT_POLICY, 0b11)
    (tmp_path / "cache" / f"ospan-{key}.txt" / "x").mkdir(parents=True)
    report = run_text("assert_equiv w1 * Eu(1,2) ~ Eu(1,2)\n",
                      RunConfig(rank=2, cache_dir=str(tmp_path / "cache")))
    assert [r.line() for r in report.results] == [
        "[PROVED   ] assert_equiv w1 * Eu(1,2) ~ Eu(1,2)  "
        "(circle-span certificate at cutoff 8)"]
    assert os.listdir(tmp_path / "cache") == [f"ospan-{key}.txt"]


def test_cache_hits_counted(tmp_path):
    config = RunConfig(rank=1, max_weight=4, slack=2, cache_dir=str(tmp_path))
    stmts = parse_script("assert_equiv circ(w1, one) ~ 0", 1)
    first, second = Runner(config), Runner(config)
    first.run(stmts)
    second.run(stmts)
    assert not first.span.echelons[0].cache_hit
    assert second.span.echelons[0].cache_hit
    # The same window, the circle's weight 3, at another slack reads the same
    # echelon.
    same_window = Runner(RunConfig(rank=1, max_weight=4, slack=0,
                                   cache_dir=str(tmp_path)))
    same_window.run(stmts)
    assert same_window.span.echelons[0].cache_hit
    assert same_window.span.echelons[0].window == 3


def test_cache_hit_counted_once_per_echelon(tmp_path, file_reads):
    # One statement per run call on one Runner reads the cached echelon
    # once.
    config = RunConfig(rank=1, max_weight=4, slack=2, cache_dir=str(tmp_path))
    stmts = parse_script("assert_equiv circ(w1, one) ~ 0\n" * 4, 1)
    Runner(config).run(stmts)
    assert file_reads == []
    runner, report = Runner(config), Report(config)
    for stmt in stmts:
        runner.run([stmt], report)
    assert [r.status for r in report.results] == ["Proved"] * 4
    assert file_reads == [(1, 3, 0)]


# The mixed-index shift relations of the circle_reductions suite at m = 1:
# the first lies in the sector of h2 h3, the second in the even sector.
MIXED_SHIFTS = (
    "assert_equiv w1 * (S(2,1;3,2) + S(2,1;3,1)) ~ "
    "1/2 S(2,4;3,1) + 1/1 S(2,3;3,1) + 1/2 S(2,2;3,1)\n"
    "assert_equiv w1 * (S(2,1;2,2) + S(2,1;2,1)) ~ "
    "1/2 (S(1,1;1,4) + 2 S(1,1;1,3) + S(1,1;1,2)) "
    "+ 1/2 (S(2,4;2,1) + 2 S(2,3;2,1) + S(2,2;2,1))\n")


def test_two_sector_block_counts_one_cache_hit(tmp_path, file_reads):
    # The block reads two sector echelons from a warm cache in one run
    # call, each once.
    config = RunConfig(rank=3, max_weight=7, slack=1,
                       policy=GeneratorPolicy("quadratic"),
                       cache_dir=str(tmp_path))
    stmts = parse_script(MIXED_SHIFTS, 3)
    Runner(config).run(stmts)
    assert file_reads == []
    assert len(os.listdir(tmp_path)) == 2
    runner = Runner(config)
    report = runner.run(stmts)
    assert report.passed(), report.to_text()
    assert sorted(file_reads) == [(3, 5, 0), (3, 5, 0b110)]
    assert {s: e.cache_hit for s, e in runner.span.echelons.items()} == {
        0: True, 0b110: True}


def test_difference_certified_per_sector():
    # w1 * Eu(1,2) - Eu(1,2) lies in the sector of h1 h2 and is certified
    # there; J1 * Eu(1,2) + 6 Eu(1,2) lies there too but is not, at this
    # cutoff and policy.  The circle and the H1 relation lie in the even
    # sector, where only the circle is certified.  Each part is reduced on
    # its own sector's echelon, and a difference is Proved only when every
    # part reduces to zero.
    config = RunConfig(rank=2, max_weight=10, slack=0,
                       policy=GeneratorPolicy("quadratic"))
    circle = "circ(h1(-1)h1(-1), h2(-1)h2(-1))"
    relation = "(70 H1 + 1188 w1^2 - 585 w1 + 27) * H1"
    runner = Runner(config)
    report = runner.run(parse_script(
        f"assert_equiv w1 * Eu(1,2) + {circle} ~ Eu(1,2)\n"
        f"assert_equiv w1 * Eu(1,2) + {relation} ~ Eu(1,2)\n"
        f"assert_equiv J1 * Eu(1,2) + {circle} ~ -6 Eu(1,2)\n", 2))
    unknown = ("Unknown", "no certificate at cutoff 10 (slack 0); "
                          "no disproof found")
    assert [(r.status, r.detail) for r in report.results] == [
        ("Proved", "circle-span certificate at cutoff 10"), unknown, unknown]
    assert sorted(runner.span.echelons) == [0, 0b11]


def test_first_uncertified_sector_ends_the_check():
    # The even-sector part, the H1 relation, does not reduce to zero at this
    # cutoff and policy, so the check stops there and never builds the
    # echelon of the h1 h2 sector, where J1 * Eu(1,2) + 6 Eu(1,2) lies.
    config = RunConfig(rank=2, max_weight=10, slack=0,
                       policy=GeneratorPolicy("quadratic"))
    runner = Runner(config)
    report = runner.run(parse_script(
        "assert_equiv J1 * Eu(1,2) + (70 H1 + 1188 w1^2 - 585 w1 + 27) * H1 "
        "~ -6 Eu(1,2)", 2))
    assert [(r.status, r.detail) for r in report.results] == [
        ("Unknown", "no certificate at cutoff 10 (slack 0); no disproof found")]
    assert sorted(runner.span.echelons) == [0]


@pytest.fixture
def builds(monkeypatch):
    """(window, sector, base window or None) of every build_ospan call."""
    calls = []
    real = zhu.build_ospan

    def spy(rank, window, *args, sector, base=None, **kwargs):
        calls.append((window, sector, base and base.window))
        return real(rank, window, *args, sector=sector, base=base, **kwargs)

    monkeypatch.setattr(zhu, "build_ospan", spy)
    return calls


def test_statement_proved_at_the_cutoff_builds_nothing_above_it(builds):
    runner = Runner(RunConfig(rank=2, max_weight=8, slack=2))
    report = runner.run(parse_script(
        "assert_equiv w1 * Eu(1,2) ~ Eu(1,2)\n"
        "assert_equiv w1^2 * H1 ~ H1 * w1^2\n", 2))
    assert [(r.status, r.detail) for r in report.results] == [
        ("Proved", "circle-span certificate at cutoff 8")] * 2
    assert builds == [(8, 0b11, None), (8, 0, None)]


def test_unknown_grows_each_failing_sector_once(builds):
    # The circle, in the even sector, is certified at its own weight, 5;
    # the J1 * Eu(1,2) part, of weight 10 in the sector of h1 h2, is not,
    # even at the window, so that sector's echelon is grown from the
    # cutoff's, never built afresh, and a second run builds nothing.
    config = RunConfig(rank=2, max_weight=10, slack=2,
                       policy=GeneratorPolicy("quadratic"))
    runner = Runner(config)
    stmts = parse_script("assert_equiv J1 * Eu(1,2) + "
                         "circ(h1(-1)h1(-1), h2(-1)h2(-1)) ~ -6 Eu(1,2)", 2)
    line = ("[UNKNOWN  ] assert_equiv J1 * Eu(1,2) + circ(h1(-1)h1(-1), "
            "h2(-1)h2(-1)) ~ -6 Eu(1,2)  (no certificate at cutoff 10 "
            "(slack 2); no disproof found)")
    for _ in range(2):
        assert runner.run(stmts).results[0].line() == line
    assert builds == [(5, 0, None), (10, 0b11, None), (12, 0b11, 10)]
    assert {s: e.window for s, e in runner.span.echelons.items()} == {
        0: 5, 0b11: 12}


def test_rank_1_omega_circle_stays_unknown(builds):
    runner = Runner(RunConfig(rank=1, max_weight=10, slack=2,
                              policy=GeneratorPolicy("omega")))
    report = runner.run(parse_script("assert_equiv circ(J1, h1(-4)h1(-1)) ~ 0",
                                     1))
    assert [(r.status, r.detail) for r in report.results] == [
        ("Unknown", "no certificate at cutoff 10 (slack 2); no disproof found")]
    assert builds == [(10, 0, None), (12, 0, 10)]


def test_part_lighter_than_its_cutoff_grows_straight_to_the_window(builds):
    # The circle, of weight 10, is not certified at its own weight at
    # cutoff 12, so its echelon is grown to the window 14, with no step at
    # the cutoff; the line is the one a step at 12 gave.
    runner = Runner(RunConfig(rank=1, max_weight=12, slack=2,
                              policy=GeneratorPolicy("omega")))
    report = runner.run(parse_script("assert_equiv circ(J1, h1(-4)h1(-1)) ~ 0",
                                     1))
    assert [r.line() for r in report.results] == [
        "[UNKNOWN  ] assert_equiv circ(J1, h1(-4)h1(-1)) ~ 0  (no certificate "
        "at cutoff 12 (slack 2); no disproof found)"]
    assert builds == [(10, 0, None), (14, 0, 10)]


def test_cutoff_read_before_growth_counts_a_hit(tmp_path, file_reads):
    # A run call that reads the cutoff's echelon from the cache and then
    # grows it reads the window's file too, or builds the window from the
    # cutoff's echelon when that file is gone.
    config = RunConfig(rank=1, max_weight=10, slack=2,
                       policy=GeneratorPolicy("omega"), cache_dir=str(tmp_path))
    stmts = parse_script("assert_equiv circ(J1, h1(-4)h1(-1)) ~ 0", 1)
    Runner(config).run(stmts)
    assert file_reads == []
    window = zhu.cache_key(1, 12, config.policy, 0)
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"ospan-{zhu.cache_key(1, w, config.policy, 0)}.txt"
        for w in (10, 12))
    Runner(config).run(stmts)
    assert file_reads == [(1, 10, 0), (1, 12, 0)]
    os.remove(tmp_path / f"ospan-{window}.txt")
    file_reads.clear()
    runner = Runner(config)
    runner.run(stmts)
    assert file_reads == [(1, 10, 0)]
    assert not runner.span.echelons[0].cache_hit


def test_suite_all_builds_each_echelon_once(monkeypatch):
    # One run_suite call holds one span per (rank, policy): the S(1,1;2,6)
    # ladder grows the quadratic shifts' echelon of the h1 h2 sector, held
    # at window 6, the weight of their differences, to window 10, which the
    # matrix-unit block then reads, and the second rank-1 block grows the
    # first one's window-8 echelon.  Only the omega-anchored span of the
    # ladder is made apart.
    calls = []
    real = zhu.build_ospan

    def spy(rank, window, policy=DEFAULT_POLICY, *args, sector, base=None,
            **kwargs):
        calls.append((rank, window, policy.pairs, sector,
                      base and base.window))
        return real(rank, window, policy, *args, sector=sector, base=base,
                    **kwargs)

    monkeypatch.setattr(zhu, "build_ospan", spy)
    report = run_suite("all", RunConfig(rank=2))
    assert report.passed()
    assert len(calls) == 13
    assert [c for c in calls if c[:4] == (2, 10, "all", 0b11)] == [
        (2, 10, "all", 0b11, 6)]
    assert [c for c in calls if c[:4] == (1, 10, "all", 0)] == [
        (1, 10, "all", 0, 8)]
    # Every (rank, policy, sector) is built afresh once, then only grown.
    fresh = [(r, pairs, s) for r, _, pairs, s, base in calls if base is None]
    assert sorted(fresh) == sorted({(r, pairs, s)
                                    for r, _, pairs, s, _ in calls})


def test_suite_all_certifies_each_part_on_one_echelon_query(monkeypatch):
    # Every sector part of every assert_equiv difference in suite all at
    # rank 2 is certified by the echelon held at its own weight or above,
    # so each part makes one echelon query and none reaches the window.
    counts = []  # (sector parts, echelon queries) per contains call
    active = []
    real_contains = zhu.CircleSpan.contains
    real_echelon = zhu.CircleSpan._echelon

    def contains(self, vec, window):
        active.append(0)
        try:
            return real_contains(self, vec, window)
        finally:
            counts.append((len(list(self._parts(vec))), active.pop()))

    def echelon(self, *args):
        if active:
            active[-1] += 1
        return real_echelon(self, *args)

    monkeypatch.setattr(zhu.CircleSpan, "contains", contains)
    monkeypatch.setattr(zhu.CircleSpan, "_echelon", echelon)
    report = run_suite("all", RunConfig(rank=2))
    assert report.passed()
    assert [queries for _, queries in counts] == [parts for parts, _ in counts]
    assert (len(counts), sum(parts for parts, _ in counts)) == (27, 27)


def test_suite_blocks_sharing_spans_give_the_lines_of_fresh_runners(
        workloads):
    # certify-cold's six blocks, in plan order, through one session and
    # through Runners with a fresh session each (session=None): a block
    # that meets an echelon a former block built or grew reads it, and
    # says what its own would.
    def lines(session):
        out = []
        for block in workloads.certify_cold_plan(seed=1):
            config = RunConfig(rank=block.rank, max_weight=block.max_weight,
                               slack=block.slack,
                               policy=GeneratorPolicy(block.pairs))
            stmts = parse_script(
                "\n".join(text for text, _ in block.statements), block.rank)
            out += [r.line()
                    for r in Runner(config, session).run(stmts).results]
        return out

    session = Session()
    shared = lines(session)
    assert len(shared) == 28
    assert shared == lines(None)
    assert sorted((k[0], k[1].pairs) for k in session.spans) == [
        (1, "all"), (2, "all"), (3, "quadratic"), (4, "quadratic")]


def masked(report):
    """A report's text without the ms a native check's detail gives."""
    return re.sub(r"\d+ ms\b", "", report.to_text())


def test_suite_runs_in_one_process_give_one_text(monkeypatch):
    config = RunConfig(rank=2)
    first = run_suite("all", config)
    assert masked(run_suite("all", config)) == masked(first)

    def failing(config, report, session):
        raise RuntimeError("suite failed")

    monkeypatch.setattr(suites, "tables_suite", failing)
    with pytest.raises(RuntimeError):
        run_suite("tables", config)


def test_suite_text_does_not_depend_on_what_ran_before():
    # The rank-4 W10 {} build evicts from both bounded caches of the walk
    # (it meets 983 creation keys), so the second run starts from caches
    # the first did not leave.
    config = RunConfig(rank=3)
    first = masked(run_suite("all", config))
    zhu.build_ospan(4, 10, sector=0)
    assert masked(run_suite("all", config)) == first


def test_walk_caches_are_bounded():
    caches = [f for f in vars(vertex).values() if hasattr(f, "cache_info")]
    assert {vertex._contractions, vertex._creations} <= set(caches)
    assert {f.cache_info().maxsize for f in caches} == {vertex.CACHE_SIZE}
    echelon = zhu.build_ospan(4, 10, sector=0)
    assert vertex._creations.cache_info().currsize == vertex.CACHE_SIZE
    assert len(echelon.rows) == 1685


def test_cli_verify_prints_a_bare_runners_report(tmp_path, capsys):
    text = "assert_equiv w1 * Eu(1,2) ~ Eu(1,2)\n"
    script = tmp_path / "s.txt"
    script.write_text(text)
    assert main(["verify", "--rank", "2", str(script)]) == 0
    bare = run_text(text, RunConfig(rank=2))
    assert capsys.readouterr().out == bare.to_text()


def test_cache_dir_under_a_file_builds_uncached(tmp_path):
    # A cache directory that cannot be made is neither read nor written.
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache_dir = str(blocker / "cache")
    report = run_text("assert_equiv w1 * Eu(1,2) ~ Eu(1,2)",
                      RunConfig(rank=2, cache_dir=cache_dir))
    assert [r.status for r in report.results] == ["Proved"]
    report = run_suite("circle_reductions", RunConfig(rank=2, cache_dir=cache_dir))
    assert report.passed(), report.to_text()
    assert os.listdir(tmp_path) == ["file"]


def test_cache_dir_is_only_an_argument(tmp_path, monkeypatch):
    # The environment names no cache: without a cache_dir, a Runner neither
    # reads nor writes the variable's directory.
    env_cache = tmp_path / "env-cache"
    monkeypatch.setenv("ORBIFOCK_CACHE_DIR", str(env_cache))
    config = RunConfig(rank=1)
    assert config.cache_dir is None
    runner = Runner(config)
    report = runner.run(parse_script("assert_equiv circ(w1, w1) ~ 0", 1))
    assert [r.status for r in report.results] == ["Proved"]
    assert runner.span.echelons
    assert not env_cache.exists()


def test_report_counts_no_cache_reads():
    # The summary line counts verdicts only, and the JSON report holds the
    # configuration, the results, their counts and the verdict.
    report = run_text("assert_eval J1 on Tplus = 3/128", RunConfig(rank=2))
    assert report.to_text().splitlines()[-2:] == [
        "# proved=1 disproved=0 unknown=0 error=0", "PASS"]
    assert list(json.loads(report.to_json())) == [
        "config", "results", "counts", "pass"]


RUN_API = ["GeneratorPolicy", "Report", "RunConfig", "Runner", "__version__",
           "parse_script", "run_suite"]


def test_package_exports_only_the_run_api():
    import orbifock

    assert sorted(orbifock.__all__) == RUN_API
    assert all(hasattr(orbifock, name) for name in RUN_API)
    assert not hasattr(orbifock, "evaluate")
    assert callable(orbifock.toplevel.evaluate)
    # Importing the package loads every engine module but the CLI.
    probe = ("import sys, orbifock; print(' '.join(sorted("
             "m for m in sys.modules if m.startswith('orbifock'))))")
    src = os.path.dirname(os.path.dirname(orbifock.__file__))
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["orbifock"] + [
        f"orbifock.{name}" for name in (
            "coeffs", "fock", "runner", "script", "suites", "tables",
            "toplevel", "twisted", "vertex", "zhu")]


def test_cli_verify_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("assert_eval J1 on Tplus = 3/128\n")
    assert main(["verify", str(good), "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "[PROVED" in out

    bad = tmp_path / "bad.txt"
    bad.write_text("assert_equiv w1 ~ 0\n")
    assert main(["verify", str(bad), "--rank", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out

    ugly = tmp_path / "ugly.txt"
    ugly.write_text("assert_equiv w1 ~ (\n")
    assert main(["verify", str(ugly), "--rank", "2"]) == 2
    assert "syntax error" in capsys.readouterr().err


@pytest.mark.parametrize("text, col", [
    ("assert_equiv 1/0 ~ 0", 16),
    ("assert_zero_eval " + "9" * 5000 + " w1", 18),
    ("assert_zero_eval w" + "1" * 5000, 18),
], ids=["zero-denominator", "long-scalar", "long-glued-index"])
def test_cli_zero_denominator_exit_2(tmp_path, capsys, text, col):
    script = tmp_path / "zero.txt"
    script.write_text(text + "\n")
    assert main(["verify", str(script), "--rank", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert f"syntax error: line 1, col {col}:" in captured.err


@pytest.mark.parametrize("argv, names", [
    (["verify", "{missing}"], "cannot read script"),
    (["delta-table", "--degree", "1"], "--degree"),
    (["delta-table", "--degree", "17"], "--degree"),
    (["tables", "--rank", "1"], "rank"),
    (["verify", "{script}", "--rank", "0"], "--rank"),
    (["verify", "{script}", "--rank", "9"], "--rank"),
    (["suite", "tables", "--rank", "9"], "--rank"),
    (["tables", "--rank", "9"], "--rank"),
    (["verify", "{script}", "--slack", "-3"], "--slack"),
    (["verify", "{script}", "--slack", "1"], "--slack"),
    (["verify", "{script}", "--pairs", "omega"], "--pairs"),
    (["verify", "{script}", "--max-weight", "-1"], "--max-weight"),
    (["verify", "{script}", "--max-weight", "15"], "--max-weight"),
    (["suite", "tables", "--pairs", "omega"], "--pairs"),
    (["verify", "{script}", "--cache-dir", "{cache}"], "--cache-dir"),
    (["suite", "all", "--cache-dir", "{cache}"], "--cache-dir"),
    (["verify", "{half}"], "expected ')', found '/'"),
    (["verify", "{zero}"], "expected a positive mode depth"),
    (["verify", "{lam}"], "col 27: l1 only makes sense on Mlambda"),
    (["verify", "{unit}"],
     "col 29: matrix units only make sense on Hminus/Tminus"),
], ids=["missing-script", "degree-1", "degree-17", "tables-rank-1", "rank-0",
        "verify-rank-9", "suite-rank-9", "tables-rank-9",
        "unknown-negative-slack", "verify-slack", "verify-pairs",
        "negative-max-weight", "max-weight-above-cap", "suite-pairs",
        "verify-cache-dir", "suite-cache-dir",
        "half-integer-mode", "zero-mode", "lambda-off-Mlambda",
        "matrix-unit-on-Mlambda"])
def test_cli_user_errors_exit_2(argv, names, tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("assert_eval w1 on Tplus = 1/16\n")
    half = tmp_path / "half.txt"
    half.write_text("assert_zero_eval h1(-1/2)h1(-1)\n")
    zero = tmp_path / "zero.txt"
    zero.write_text("assert_zero_eval h1(-0)h1(-1)\n")
    lam = tmp_path / "lam.txt"
    lam.write_text("assert_eval w1 on Hplus = l1\n")
    unit = tmp_path / "unit.txt"
    unit.write_text("assert_eval w1 on Mlambda = E(1,1)\n")
    argv = [a.format(script=script, missing=tmp_path / "missing.txt",
                     half=half, zero=zero, lam=lam, unit=unit,
                     cache=tmp_path / "cache")
            for a in argv]
    # Usage errors exit from the argument parser; script errors return 2.
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert names in captured.err
    # No command takes a cache directory, and a refused one makes nothing.
    assert sorted(os.listdir(tmp_path)) == [
        "half.txt", "lam.txt", "s.txt", "unit.txt", "zero.txt"]


@pytest.mark.parametrize("expr", [
    "(" * 250 + "w1" + ")" * 250,
    "-" * 3000 + "w1",
    "+".join(["w1"] * 1000),
], ids=["250-parentheses", "3000-minus-signs", "1000-term-sum"])
def test_cli_deep_expression_exit_2(expr, tmp_path, capsys):
    script = tmp_path / "deep.txt"
    script.write_text(f"assert_equiv {expr} ~ w1\n")
    assert main(["verify", str(script), "--rank", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("syntax error: line 1, col ")
    assert "nested more than" in captured.err


def test_cli_nested_expressions_within_bound(tmp_path, capsys):
    script = tmp_path / "nested.txt"
    script.write_text("assert_equiv " + "+".join(["w1"] * 100) + " ~ 100 w1\n"
                      "assert_equiv " + "(" * 50 + "w1" + ")" * 50 + " ~ w1\n")
    assert main(["verify", str(script), "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PROVED   ]") == 2


def test_cli_json_format(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("assert_eval w1 on Tplus = 1/16\n")
    assert main(["verify", str(script), "--rank", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert payload["results"][0]["status"] == "Proved"


def test_cli_tables_and_delta(capsys):
    assert main(["tables", "--rank", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "-35/32" in out and "-5/32" in out
    assert main(["delta-table", "--degree", "6"]) == 0
    out = capsys.readouterr().out
    assert "1 1 1/16" in out


def test_cli_delta_table_text(capsys):
    assert main(["delta-table", "--degree", "4"]) == 0
    assert capsys.readouterr().out == (
        "# delta table, degree 4\n1 1 1/16\n1 2 -1/32\n1 3 5/256\n"
        "2 1 -1/32\n2 2 9/512\n3 1 5/256\n")
    assert main(["delta-table", "--degree", "16"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ("671f36fa12299f864392467070733e703a3ce4952005954ce6fe7"
                      "ced2bedcb77")


def test_cli_timing_lines(tmp_path, capsys):
    script = tmp_path / "s.txt"
    script.write_text("assert_eval w1 on Tplus = 1/16\nassert_equiv w1 ~ 0\n")
    assert main(["verify", str(script), "--rank", "1", "--timing"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"\[PROVED   \] assert_eval w1 on Tplus = 1/16"
                        r"  \[\d+ ms\]", lines[1])
    assert re.fullmatch(r"\[DISPROVED\] assert_equiv w1 ~ 0  \(.+\)"
                        r"  \[\d+ ms\]", lines[2])


def test_cli_suite_smoke(capsys):
    assert main(["suite", "tables", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")


def test_cli_suite_header_names_rank_only(tmp_path, capsys):
    # A suite reads only the rank; verify describes its whole configuration.
    assert main(["suite", "tables", "--rank", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "# config: rank=3"
    assert main(["suite", "tables", "--rank", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == "rank=3"
    script = tmp_path / "s.txt"
    script.write_text("assert_eval w1 on Tplus = 1/16\n")
    assert main(["verify", str(script), "--rank", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "# config: rank=1 max_weight=8 slack=2 policy[pairs=all]")

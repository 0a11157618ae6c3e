"""The assertion language: grammar, round-trips, realization, errors."""

from fractions import Fraction

import pytest

from orbifock.fock import FockVector, single
from orbifock.script import (MAX_NESTING, ScriptError, format_expr,
                             format_statement, parse_expr, parse_script,
                             realize, realize_expected)
from orbifock.toplevel import evaluate
from orbifock.zhu import circ_n, e_u, hgen, jgen, lam, omega, s_pair, star

F = Fraction

CORPUS = """
# paired actions
assert_equiv w1 * Eu(2,3) ~ 0
assert_eval Lam(1,2) on Mlambda = l1*l2
assert_rank [S(1,1;2,1), S(1,1;2,2), S(1,1;2,3), S(1,1;2,4), S(1,1;2,5)] = 5
assert_zero_eval circn(w1, J1, 2)
assert_eval J1 on Mlambda = l1^4 - 1/2 l1^2
assert_eval S(1,1;2,4) on Tminus = -35/32 E(1,2) - 5/32 E(2,1)
assert_equiv 45 S(1,1;2,2) + 190 S(1,1;2,3) + 240 S(1,1;2,4) + 96 S(1,1;2,5) ~ Lam(1,2)
assert_equiv h1(-3)h1(-1) ~ h1(-1)h1(-3)
assert_zero_eval (70 H1 + 1188 w1^2 - 585 w1 + 27) * H1
assert_equiv circ(S(1,1;2,1), h1(-1)h1(-1)h1(-1)h1(-1)) ~ 0
assert_eval Etbar(2,1) on Tminus = E(2,1)
assert_equiv -3 w1 - -2 J1 ~ Eubar(1,2) * Eubar(2,1)
"""


def test_parse_statement_kinds():
    stmts = parse_script(CORPUS, rank=3)
    kinds = [s.kind for s in stmts]
    assert kinds == ["equiv", "eval", "rank", "zero_eval", "eval", "eval",
                     "equiv", "equiv", "zero_eval", "equiv", "eval", "equiv"]
    assert stmts[0].line == 3


def test_pretty_print_round_trip():
    for stmt in parse_script(CORPUS, rank=3):
        text = format_statement(stmt)
        again = parse_script(text, rank=3)
        assert len(again) == 1
        assert (again[0].kind, again[0].payload) == (stmt.kind, stmt.payload)
        assert format_statement(again[0]) == text


NEGATIONS = {"two": ("-(-w1)", "--w1"),
             "sum": ("-(-(w1 + J1))", "--(w1 + J1)"),
             "99": ("-" * (MAX_NESTING - 1) + "w1", "-" * (MAX_NESTING - 1) + "w1")}


@pytest.mark.parametrize("text, printed", NEGATIONS.values(), ids=NEGATIONS.keys())
def test_nested_negation_round_trip(text, printed):
    # A negated negation prints without parentheses, so its printed form is
    # no deeper than the parsed one.
    expr = parse_expr(text, 2)
    assert format_expr(expr) == printed
    assert parse_expr(printed, 2) == expr


def test_realize_named_atoms():
    assert realize(parse_expr("w2", 2), 2) == omega(2, 2)
    assert realize(parse_expr("J1", 2), 2) == jgen(2, 1)
    assert realize(parse_expr("H1", 2), 2) == hgen(2, 1)
    assert realize(parse_expr("S(1,2;2,3)", 2), 2) == s_pair(2, 1, 2, 2, 3)
    assert realize(parse_expr("Eu(1,2)", 2), 2) == e_u(2, 1, 2)
    assert realize(parse_expr("one", 1), 1) == FockVector.vacuum(1)
    assert realize(parse_expr("5", 1), 1) == FockVector.vacuum(1, coeff=F(5))
    assert realize(parse_expr("h1(-3)h1(-1)", 1), 1) == single(
        1, False, [(1, -3), (1, -1)])


def test_realize_operators():
    w1 = omega(2, 1)
    J1 = jgen(2, 1)
    assert realize(parse_expr("w1 * J1", 2), 2) == star(w1, J1)
    assert realize(parse_expr("w1^3", 2), 2) == star(star(w1, w1), w1)
    assert realize(parse_expr("circ(w1, J1)", 2), 2) == circ_n(w1, J1, 0)
    assert realize(parse_expr("circn(w1, J1, 2)", 2), 2) == circ_n(w1, J1, 2)
    assert realize(parse_expr("1/2 w1 - J1", 2), 2) == F(1, 2) * w1 - J1
    assert realize(parse_expr("-w1 + 2", 2), 2) == -w1 + FockVector.vacuum(2, coeff=2)
    # scalar literals multiply like the unit's multiples
    assert realize(parse_expr("2 * w1", 2), 2) == 2 * w1


def test_realize_expected_values():
    exp = parse_script("assert_eval w1 on Tminus = 1/16 I + 1/2 E(1,1)",
                       rank=2)[0].payload[2]
    act = realize_expected(exp, "Tminus", 2)
    assert act == evaluate(omega(2, 1), "Tminus")
    exp = parse_script("assert_eval w1 on Tplus = 1/16", rank=2)[0].payload[2]
    assert realize_expected(exp, "Tplus", 2) == F(1, 16)
    exp = parse_script("assert_eval Lam(1,2) on Mlambda = l1*l2",
                       rank=2)[0].payload[2]
    assert realize_expected(exp, "Mlambda", 2) == evaluate(lam(2, 1, 2), "Mlambda")


def test_expected_value_family_guards():
    exp = parse_script("assert_eval w1 on Hplus = l1", rank=2)[0].payload[2]
    with pytest.raises(ValueError):
        realize_expected(exp, "Hplus", 2)
    exp = parse_script("assert_eval w1 on Mlambda = E(1,1)", rank=2)[0].payload[2]
    with pytest.raises(ValueError):
        realize_expected(exp, "Mlambda", 2)


def test_syntax_errors_carry_location():
    with pytest.raises(ScriptError) as err:
        parse_script("assert_equiv w1 * ( ~ 0")
    assert err.value.line == 1 and err.value.col >= 20
    with pytest.raises(ScriptError):
        parse_script("assert_equiv w1 ~")
    with pytest.raises(ScriptError):
        parse_script("frobnicate w1")
    with pytest.raises(ScriptError):
        parse_script("assert_eval w1 on Nowhere = 0")
    with pytest.raises(ScriptError):
        parse_script("assert_rank [w1] = x")


@pytest.mark.parametrize("text", [
    "assert_equiv 1/0 ~ 0",
    "assert_equiv h1(-1/0)h1(-1) ~ 0",
    "assert_eval w1 on Tplus = 1/0",
], ids=["scalar", "mode-index", "expected-value"])
def test_zero_denominator_is_a_syntax_error(text):
    with pytest.raises(ScriptError) as err:
        parse_script(text, rank=2)
    assert "zero denominator" in str(err.value)
    assert (err.value.line, err.value.col) == (1, text.index("/0") + 2)


def test_nesting_bound():
    # The top-level expression is one level; each parenthesis, circle or
    # unary minus opens another, and a sum of k terms is k levels deep.
    inside = MAX_NESTING - 1
    for ok, bad in (("(" * inside + "w1" + ")" * inside,
                     "(" * MAX_NESTING + "w1" + ")" * MAX_NESTING),
                    ("-" * inside + "w1", "-" * MAX_NESTING + "w1"),
                    ("circ(" * inside + "w1" + ", one)" * inside,
                     "circ(" * MAX_NESTING + "w1" + ", one)" * MAX_NESTING),
                    ("+".join(["w1"] * MAX_NESTING),
                     "+".join(["w1"] * (MAX_NESTING + 1))),
                    ("*".join(["w1"] * MAX_NESTING),
                     "*".join(["w1"] * (MAX_NESTING + 1)))):
        assert format_expr(parse_expr(ok, 2))
        with pytest.raises(ScriptError, match="nested more than"):
            parse_expr(bad, 2)
    with pytest.raises(ScriptError, match="nested more than") as err:
        parse_script("assert_eval w1 on Hminus = "
                     + "+".join(["I"] * (MAX_NESTING + 1)), 2)
    assert (err.value.line, err.value.col) == (1, 28)


def test_index_errors():
    with pytest.raises(ScriptError):
        parse_script("assert_equiv Eu(1,1) ~ 0", rank=3)
    with pytest.raises(ScriptError):
        parse_script("assert_equiv Lam(2,2) ~ 0", rank=3)
    with pytest.raises(ScriptError):
        parse_script("assert_equiv w7 ~ 0", rank=2)
    with pytest.raises(ScriptError):
        parse_script("assert_equiv S(1,0;2,1) ~ 0", rank=2)
    # Without a rank, only positivity is enforced at parse time.
    parse_script("assert_equiv w7 ~ 0")


def test_unexpected_trailing_tokens():
    with pytest.raises(ScriptError):
        parse_script("assert_zero_eval w1 w2")
    with pytest.raises(ScriptError):
        parse_expr("w1 )", 2)


def test_comments_and_blank_lines():
    stmts = parse_script("\n\n# nothing here\n  \nassert_zero_eval w1 - w1\n#tail\n")
    assert len(stmts) == 1

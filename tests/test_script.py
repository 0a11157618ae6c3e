"""The assertion language: grammar, round-trips, realization, errors."""

import random
from fractions import Fraction

import pytest

from orbifock.coeffs import LPoly
from orbifock.fock import FockVector, single
from orbifock.script import (_ATOMS, MAX_NESTING, Bin, Circ, Mono, Named, Neg,
                             Num, Pow, Scale, ScriptError, format_expr,
                             format_statement, parse_expr, parse_script,
                             realize, realize_expected)
from orbifock.toplevel import FAMILIES, Matrix, evaluate, identity
from orbifock.zhu import (circ_n, e_t, e_t_bar, e_u, e_u_bar, hgen, jgen, lam,
                          omega, s_pair, star)

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


def parse_expected(text, rank, family):
    return parse_script(f"assert_eval one on {family} = {text}",
                        rank)[0].payload[2]


# Each printed form parses back to the same tree.
PRINTED = {"scaled-power-base": "(2 w1)^2", "scaled-scale": "2 (3 w1)",
           "number-power-base": "(1/2)^2", "power-power-base": "(w1^2)^3"}


@pytest.mark.parametrize("text", PRINTED.values(), ids=PRINTED.keys())
def test_tight_operands_keep_their_parentheses(text):
    expr = parse_expr(text, 2)
    assert format_expr(expr) == text
    assert parse_expr(text, 2) == expr


def _fraction(rng):
    return Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3)))


def _random_atom(rng, family):
    """A random atom of a main expression (``family`` None) or of an
    expected value of ``family``."""
    if family is None and rng.random() < 0.2:
        return Mono(tuple((rng.randint(1, 3), Fraction(-rng.randint(1, 4)))
                          for _ in range(rng.randint(1, 3))))
    if family is None:
        kinds = [k for k, (_, fams) in _ATOMS.items() if fams is None]
    else:
        kinds = [k for k, (_, fams) in _ATOMS.items() if fams and family in fams]
    kind = rng.choice(kinds)
    shape = _ATOMS[kind][0]
    args = [rng.randint(1, 3) if ch in "ijab" else rng.randint(1, 5)
            for ch in shape if ch.isalpha()]
    if "a" in shape:
        args = rng.sample(range(1, 4), 2)
    return Named(kind, tuple(args))


def _random_expr(rng, depth, family):
    """A random tree over every node type the parser builds."""
    if depth == 0 or rng.random() < 0.25:
        return Num(_fraction(rng)) if rng.random() < 0.3 else _random_atom(rng, family)
    def sub():
        return _random_expr(rng, depth - 1, family)
    pick = rng.randrange(6 if family else 7)
    if pick == 0:
        return Neg(sub())
    if pick == 1:
        return Scale(_fraction(rng), sub())
    if pick == 2:
        return Pow(sub(), rng.randrange(4))
    if pick == 6:
        return Circ(sub(), sub(), rng.choice((0, 0, 1, 2)))
    return Bin("+-*"[pick - 3], sub(), sub())


@pytest.mark.parametrize("seed", range(8))
def test_printer_round_trip_fuzz(seed):
    # Every third tree is an expected value, its atoms drawn for one family.
    rng = random.Random(seed)
    seen = set()
    for i in range(300):
        family = rng.choice(FAMILIES) if i % 3 == 0 else None
        expr = _random_expr(rng, 5, family)
        text = format_expr(expr)
        again = (parse_expected(text, 3, family) if family
                 else parse_expr(text, 3))
        assert again == expr, text
        stack = [expr]
        while stack:
            node = stack.pop()
            seen.add(node.kind if isinstance(node, Named) else type(node))
            stack += [getattr(node, name) for name in
                      ("arg", "left", "right", "base") if hasattr(node, name)]
    assert seen == {*_ATOMS, Num, Mono, Neg, Scale, Pow, Circ, Bin}


# One printed atom per key of the atom table.
ATOM_TEXTS = {"one": "one", "I": "I", "w": "w2", "J": "J1", "H": "H2",
              "l": "l2", "Eu": "Eu(1,2)", "Eubar": "Eubar(2,1)",
              "Et": "Et(1,2)", "Etbar": "Etbar(2,1)", "Lam": "Lam(1,2)",
              "E": "E(2,1)", "S": "S(1,2;2,3)"}
STATE_BUILDERS = {"one": FockVector.vacuum, "w": omega, "J": jgen, "H": hgen,
                  "S": s_pair, "Eu": e_u, "Eubar": e_u_bar, "Et": e_t,
                  "Etbar": e_t_bar, "Lam": lam}
EXPECTED_ACTIONS = {"I": ("Tminus", identity("Tminus", 2)),
                    "l": ("Mlambda", LPoly.unit(2, 2)),
                    "E": ("Hminus", Matrix.unit(2, 2, 1))}


@pytest.mark.parametrize("kind", _ATOMS)
def test_atom_table_round_trip_and_realization(kind):
    text = ATOM_TEXTS[kind]
    if _ATOMS[kind][1]:
        fam, action = EXPECTED_ACTIONS[kind]
        expr = parse_expected(text, 2, fam)
        assert realize_expected(expr, fam, 2) == action
    else:
        expr = parse_expr(text, 2)
        assert realize(expr, 2) == STATE_BUILDERS[kind](2, *expr.args)
    assert expr.kind == kind
    assert format_expr(expr) == text


@pytest.mark.parametrize("text, col, message", [
    ("assert_equiv l1 ~ 0", 14, "unknown name 'l1'"),
    ("assert_equiv I ~ 0", 14, "unknown name 'I'"),
    ("assert_equiv E(1,2) ~ 0", 14, "unknown name 'E'"),
    ("assert_eval one on Hminus = w1", 29, "unknown name 'w1' in an expected value"),
    ("assert_eval one on Hminus = h1(-1)", 29,
     "unknown name 'h1' in an expected value"),
    ("assert_eval one on Hminus = circ(w1, w1)", 29,
     "unknown name 'circ' in an expected value"),
    ("assert_equiv Eu1 ~ 0", 14, "unknown name 'Eu1'"),
    ("assert_equiv S1 ~ 0", 14, "unknown name 'S1'"),
    ("assert_equiv x1y ~ 0", 14, "unknown name 'x1y'"),
    ("assert_equiv Eu(1,1) ~ 0", 14, "Eu needs two distinct indices"),
    ("assert_equiv 2 Eu1 ~ 0", 16, "expected '~', found 'Eu1'"),
    ("assert_eval one on Hminus = 2 w1", 31, "unexpected 'w1' after statement"),
])
def test_atom_errors_carry_location(text, col, message):
    with pytest.raises(ScriptError) as err:
        parse_script(text, rank=2)
    assert str(err.value) == f"line 1, col {col}: {message}"


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
        1, [(1, -3), (1, -1)])


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


FAMILY_GUARDS = [
    ("assert_eval w1 on Hplus = l1", 27, "l1 only makes sense on Mlambda"),
    ("assert_eval w1 on Tminus = 1/2 I + l2", 36,
     "l2 only makes sense on Mlambda"),
    ("assert_eval w1 on Mlambda = E(1,1)", 29,
     "matrix units only make sense on Hminus/Tminus"),
    ("assert_eval w1 on Tplus = (E(1,2))^2", 28,
     "matrix units only make sense on Hminus/Tminus"),
]


def test_expected_value_family_guards():
    # Checked at the atom when parsing, before anything is realized.
    for text, col, message in FAMILY_GUARDS:
        with pytest.raises(ScriptError) as err:
            parse_script(text, rank=2)
        assert str(err.value) == f"line 1, col {col}: {message}"


def test_syntax_errors_carry_location():
    with pytest.raises(ScriptError) as err:
        parse_script("assert_equiv w1 * ( ~ 0", 2)
    assert err.value.line == 1 and err.value.col >= 20
    with pytest.raises(ScriptError):
        parse_script("assert_equiv w1 ~", 2)
    with pytest.raises(ScriptError):
        parse_script("frobnicate w1", 2)
    with pytest.raises(ScriptError):
        parse_script("assert_eval w1 on Nowhere = 0", 2)
    with pytest.raises(ScriptError):
        parse_script("assert_rank [w1] = x", 2)


@pytest.mark.parametrize("text", [
    "assert_equiv 1/0 ~ 0",
    "assert_eval w1 on Tplus = 1/0",
], ids=["scalar", "expected-value"])
def test_zero_denominator_is_a_syntax_error(text):
    with pytest.raises(ScriptError) as err:
        parse_script(text, rank=2)
    assert "zero denominator" in str(err.value)
    assert (err.value.line, err.value.col) == (1, text.index("/0") + 2)


# Every integer position, with the text its error points at: a glued index
# is reported at its name.
LONG_LITERALS = {
    "rank": ("assert_rank [w1] = {N}", "{N}"),
    "scalar": ("assert_equiv {N} w1 ~ 0", "{N}"),
    "denominator": ("assert_equiv 1/{N} w1 ~ 0", "{N}"),
    "expected-scalar": ("assert_eval w1 on Tplus = {N}", "{N}"),
    "exponent": ("assert_equiv w1^{N} ~ 0", "{N}"),
    "circn": ("assert_equiv circn(w1, J1, {N}) ~ 0", "{N}"),
    "monomial-generator": ("assert_equiv h{N}(-1)h1(-1) ~ 0", "h{N}"),
    "mode-index": ("assert_equiv h1(-{N})h1(-1) ~ 0", "{N}"),
    "shape-index": ("assert_equiv Eu({N},2) ~ 0", "{N}"),
    "mode-depth": ("assert_equiv S(1,{N};2,1) ~ 0", "{N}"),
    "glued-w": ("assert_equiv w{N} ~ 0", "w{N}"),
    "glued-J": ("assert_equiv J{N} ~ 0", "J{N}"),
    "glued-H": ("assert_equiv H{N} ~ 0", "H{N}"),
    "glued-l": ("assert_eval w1 on Mlambda = l{N}", "l{N}"),
}


@pytest.mark.parametrize("template, at", LONG_LITERALS.values(),
                         ids=LONG_LITERALS.keys())
def test_long_integer_literals_are_syntax_errors(template, at):
    with pytest.raises(ScriptError, match="of at most 4300 digits") as err:
        parse_script(template.format(N="1" * 5000), rank=2)
    assert (err.value.line, err.value.col) == (1, template.index(at) + 1)


def test_longest_integer_literal_parses():
    stmt, = parse_script("assert_equiv " + "9" * 4300 + " w1 ~ 0", rank=2)
    assert stmt.payload[0] == Scale(F(10 ** 4300 - 1), Named("w", (1,)))


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


def test_unexpected_trailing_tokens():
    with pytest.raises(ScriptError):
        parse_script("assert_zero_eval w1 w2", 2)
    with pytest.raises(ScriptError):
        parse_expr("w1 )", 2)


def test_comments_and_blank_lines():
    stmts = parse_script("\n\n# nothing here\n  \nassert_zero_eval w1 - w1\n#tail\n",
                         2)
    assert len(stmts) == 1

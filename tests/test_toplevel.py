"""Evaluation on the five top levels: tables, words, witnesses, ranks."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from mode_oracle import FractionMatrix, fraction_rank, reference_reading
import orbifock.toplevel as toplevel
import orbifock.twisted as twisted
from orbifock.coeffs import LPoly, clear_denominators
from orbifock.fock import FockVector, single
from orbifock.toplevel import (FAMILIES, WITNESS_ORDER, Matrix, disprove_equiv,
                               evaluate, evaluate_word, identity,
                               independence_rank)
from orbifock.zhu import circ_n, e_t, e_u, hgen, jgen, lam, omega, s_pair, star

F = Fraction


def E(rank, a, b):
    return Matrix.unit(rank, a, b)


def test_quadratic_ladder_on_all_columns():
    acts = {
        1: (E(2, 1, 2) + E(2, 2, 1), "l1*l2",
            F(1, 2) * E(2, 1, 2) + F(1, 2) * E(2, 2, 1)),
        2: (-2 * E(2, 1, 2), "-l1*l2",
            F(-3, 4) * E(2, 1, 2) + F(-1, 4) * E(2, 2, 1)),
        3: (3 * E(2, 1, 2), "l1*l2",
            F(15, 16) * E(2, 1, 2) + F(3, 16) * E(2, 2, 1)),
        4: (-4 * E(2, 1, 2), "-l1*l2",
            F(-35, 32) * E(2, 1, 2) + F(-5, 32) * E(2, 2, 1)),
        5: (5 * E(2, 1, 2), "l1*l2",
            F(315, 256) * E(2, 1, 2) + F(35, 256) * E(2, 2, 1)),
    }
    for m, (hm, ml, tm) in acts.items():
        S = s_pair(2, 1, 1, 2, m)
        assert evaluate(S, "Hminus") == hm
        assert str(evaluate(S, "Mlambda")) == ml
        assert evaluate(S, "Tminus") == tm
        assert not evaluate(S, "Hplus")
        assert not evaluate(S, "Tplus")


def test_unit_and_center_rows():
    assert evaluate(e_u(2, 1, 2), "Hminus") == E(2, 1, 2)
    assert not evaluate(e_u(2, 1, 2), "Mlambda")
    assert not evaluate(e_u(2, 1, 2), "Tminus")
    assert evaluate(e_t(2, 1, 2), "Tminus") == E(2, 1, 2)
    assert not evaluate(e_t(2, 1, 2), "Hminus")
    assert str(evaluate(lam(2, 1, 2), "Mlambda")) == "l1*l2"
    assert not evaluate(lam(2, 1, 2), "Hminus")
    assert not evaluate(lam(2, 1, 2), "Tminus")


def test_singlet_rows():
    w1, J1 = omega(2, 1), jgen(2, 1)
    I = identity("Tminus", 2)
    assert evaluate(w1, "Hplus") == 0
    assert evaluate(w1, "Hminus") == E(2, 1, 1)
    assert str(evaluate(w1, "Mlambda")) == "1/2*l1^2"
    assert evaluate(w1, "Tplus") == F(1, 16)
    assert evaluate(w1, "Tminus") == F(1, 16) * I + F(1, 2) * E(2, 1, 1)
    assert evaluate(J1, "Hminus") == -6 * E(2, 1, 1)
    assert str(evaluate(J1, "Mlambda")) == "-1/2*l1^2 + l1^4"
    assert evaluate(J1, "Tplus") == F(3, 128)
    assert evaluate(J1, "Tminus") == F(3, 128) * I + F(-3, 8) * E(2, 1, 1)


def test_evaluate_rejects_odd_or_twisted():
    with pytest.raises(ValueError):
        evaluate(single(1, [(1, -1)]), "Hminus")


def test_word_products():
    assert evaluate_word([e_u(3, 1, 2), e_u(3, 2, 3)], "Hminus") == E(3, 1, 3)
    assert evaluate_word([hgen(2, 1)], "Hminus") == -9 * E(2, 1, 1)
    lhs = evaluate_word([lam(3, 1, 2), lam(3, 2, 3)], "Mlambda")
    rhs = (evaluate(2 * omega(3, 2), "Mlambda")
           * evaluate(lam(3, 1, 3), "Mlambda"))
    assert lhs == rhs
    assert str(lhs) == "l1*l2^2*l3"


def test_word_matches_star_fold():
    gens = [omega(2, 1), jgen(2, 2), s_pair(2, 1, 1, 2, 1), e_u(2, 1, 2)]
    fams = ("Hminus", "Mlambda", "Tminus", "Hplus", "Tplus")
    for u in gens:
        for v in gens:
            sv = star(u, v)
            for fam in fams:
                assert evaluate_word([u, v], fam) == evaluate(sv, fam)


def test_disprove_equiv_witnesses():
    w1 = omega(2, 1)
    w = disprove_equiv(w1, FockVector.zero(2))
    assert w is not None and w.family == "Hminus" and w.entry == (1, 1)
    assert (w.left, w.right) == (1, 0)
    w = disprove_equiv(s_pair(2, 1, 1, 2, 1), s_pair(2, 1, 1, 2, 3))
    assert w is not None and w.family == "Hminus"
    assert disprove_equiv(w1, w1) is None
    # Polynomial witness path.
    w = disprove_equiv(lam(2, 1, 2), FockVector.zero(2))
    assert w is not None and w.family == "Mlambda" and w.entry == (1, 1)


def test_disprove_equiv_evaluates_the_difference(monkeypatch):
    # Evaluation is linear: x - y once per family, and x and y only in the
    # witnessing family.
    real = toplevel.evaluate
    calls = []

    def counting(u, fam):
        calls.append(fam)
        return real(u, fam)

    monkeypatch.setattr(toplevel, "evaluate", counting)
    w1 = omega(2, 1)
    assert disprove_equiv(w1, w1 + circ_n(w1, jgen(2, 1), 0)) is None
    assert calls == list(toplevel.WITNESS_ORDER)
    calls.clear()
    w = disprove_equiv(jgen(2, 1), F(3, 128) * FockVector.vacuum(2))
    assert calls == ["Hminus"] * 3
    assert str(w) == "Hminus at (1, 1): -6 vs 3/128"


def test_independence_rank_examples():
    S = [s_pair(2, 1, 1, 2, m) for m in range(1, 6)]
    assert independence_rank(S) == 5
    assert independence_rank(S + [s_pair(2, 1, 1, 2, 6)]) == 5
    five = [e_u(2, 1, 2), e_u(2, 2, 1), e_t(2, 1, 2), e_t(2, 2, 1), lam(2, 1, 2)]
    assert independence_rank(five) == 5
    assert independence_rank([FockVector.zero(2)]) == 0
    assert independence_rank([]) == 0


def test_independence_rank_matches_dense_reference():
    # Dense rows: every matrix and scalar entry, then the Mlambda
    # coefficients over the union of the exponents.
    rng = random.Random(5064)
    gens = [omega(2, 1), omega(2, 2), jgen(2, 1), e_u(2, 1, 2), e_t(2, 2, 1),
            lam(2, 1, 2), s_pair(2, 1, 1, 2, 3), star(omega(2, 1), omega(2, 2))]
    ranks = set()
    for _ in range(20):
        pool = rng.sample(gens, rng.randint(2, 4))
        elements = [sum((rng.randint(-2, 2) * g for g in pool), FockVector.zero(2))
                    for _ in range(rng.randint(1, 6))]
        polys = [evaluate(u, "Mlambda") for u in elements]
        exps = sorted({e for p in polys for e in p.terms})
        dense = [[v for fam in ("Hminus", "Tminus", "Hplus", "Tplus")
                  for _, v in toplevel._entries(evaluate(u, fam))]
                 + [p.terms.get(e, 0) for e in exps]
                 for u, p in zip(elements, polys)]
        got = independence_rank(elements)
        assert got == fraction_rank(dense)
        ranks.add(len(elements) - got)
    assert len(ranks) > 2  # full-rank and deficient stacks


def test_rank_invariance_under_scaling_and_permutation():
    S = [s_pair(2, 1, 1, 2, m) for m in range(1, 5)]
    assert independence_rank(S) == independence_rank(list(reversed(S)))
    scaled = [F(3, 7) * S[0], -2 * S[1], S[2], F(1, 9) * S[3]]
    assert independence_rank(scaled) == independence_rank(S)


def _random_rational_matrix(rng, rank):
    """Entries over one of four denominator shapes, with zero rows."""
    shape = rng.choice(("int", "equal", "coprime", "large"))
    common = rng.randint(2, 40)

    def entry():
        if rng.random() < 0.3:
            return 0
        n = rng.randint(-50, 50)
        if shape == "int":
            return n
        if shape == "equal":
            return F(n, common)
        if shape == "coprime":
            return F(n, rng.choice((1, 2, 3, 5, 7, 11, 13)))
        return F(n * rng.randint(1, 10 ** 25), rng.randint(1, 10 ** 30))

    return [[0] * rank if rng.random() < 0.2 else [entry() for _ in range(rank)]
            for _ in range(rank)]


def _exact(rows):
    """The Matrix of rational rows, over the lcm of their denominators."""
    den = lcm(1, *(F(v).denominator for row in rows for v in row))
    return Matrix([[int(v * den) for v in row] for row in rows], den)


def _assert_canonical(m):
    assert m.den > 0
    assert gcd(m.den, *(v for row in m.num for v in row)) == 1
    if not any(any(row) for row in m.num):
        assert m.den == 1


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_matrix_matches_fraction_reference(rank):
    # Matrix holds integer numerators over one denominator; every operation
    # must print, read and compare as the entrywise Fraction reference.
    rng = random.Random(9905064 + rank)
    scalars = [3, -2, F(5, 6), 0, F(-7, 4), F(-1, 10 ** 20)]
    for _ in range(60):
        left, right = (_random_rational_matrix(rng, rank) for _ in range(2))
        a, b = _exact(left), _exact(right)
        fa, fb = FractionMatrix(left), FractionMatrix(right)
        k = rng.choice(scalars)
        pairs = [(a, fa), (b, fb), (a + b, fa + fb), (a - b, fa - fb),
                 (-a, -fa), (a * b, fa * fb), (b * a, fb * fa),
                 (a * k, fa * k), (k * b, k * fb), (a * 0, fa * 0),
                 (a * F(-3, 8), fa * F(-3, 8)), (a - a, fa - fa)]
        for m, f in pairs:
            _assert_canonical(m)
            assert str(m) == str(f)
            assert m.rows == f.rows
            assert bool(m) == bool(f)
            assert m == _exact(f.rows)
        for (m1, f1), (m2, f2) in zip(pairs, pairs[1:] + pairs[:1]):
            assert (m1 == m2) == (f1 == f2)
    assert _exact([[F(1, 2)]]) * 2 == Matrix([[1]])
    assert _exact([[F(1, 2)]]) * 2 != _exact([[F(1, 2)]])
    assert Matrix([[2, -4], [0, 6]], 6) == Matrix([[1, -2], [0, 3]], 3)
    assert Matrix([[0, 0], [0, 0]], 5).den == 1
    assert Matrix.__slots__ == ("num", "den")


def test_matrix_arithmetic_guards():
    with pytest.raises(TypeError):
        E(2, 1, 2) + F(1)
    with pytest.raises(TypeError):
        E(2, 1, 2) * LPoly.const(2, 1)


def test_tminus_expands_each_state_once(monkeypatch):
    real = twisted.apply_delta
    calls = []

    def counting(v):
        calls.append(v)
        return real(v)

    # toplevel binds the name itself, so both modules are patched.
    monkeypatch.setattr(twisted, "apply_delta", counting)
    monkeypatch.setattr(toplevel, "apply_delta", counting)
    for u in (jgen(3, 1), jgen(3, 1) + omega(3, 2)):
        calls.clear()
        evaluate(u, "Tminus")
        assert calls == [u]


def _random_generator_sum(rng, rank):
    """Two or three named generators at one rank with small rational
    coefficients; the pairs of two distinct indices only from rank 2."""
    pool = [f(rank, a) for f in (omega, jgen, hgen)
            for a in range(1, rank + 1)]
    pool += [s_pair(rank, a, 1, b, 2)
             for a in range(1, rank + 1) for b in range(1, rank + 1)]
    if rank > 1:
        pool += [e_u(rank, 1, 2), e_t(rank, 2, 1), lam(rank, 1, rank)]
    out = FockVector.vacuum(rank, F(rng.randint(-3, 3), rng.randint(1, 4)))
    for u in rng.sample(pool, rng.randint(2, 3)):
        out = out + F(rng.randint(-9, 9) or 1, rng.randint(1, 6)) * u
    return out


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_readings_do_not_depend_on_what_the_state_kept(rank):
    # A state keeps its integer form, its parity and its twisted sum once
    # made, so its readings are the same in any family order, on a second
    # reading and on a fresh equal state, and they still obey the laws no
    # kept form enters: the twisted readings of the operator form, the star
    # homomorphism and circles acting as zero.
    rng = random.Random(45 + rank)
    x, y = (_random_generator_sum(rng, rank) for _ in range(2))
    states = [x, y, star(x, y), circ_n(x, y, rng.randrange(3))]
    forward = [{fam: evaluate(u, fam) for fam in FAMILIES} for u in states]
    for u, reads in zip(reversed(states), reversed(forward)):
        assert {fam: evaluate(u, fam) for fam in WITNESS_ORDER} == reads
        fresh = FockVector(rank, dict(u.terms))
        assert {fam: evaluate(fresh, fam) for fam in WITNESS_ORDER} == reads
        assert u.integer_form() == clear_denominators(u.terms)
    for u, reads in zip(states[:2], forward):
        for fam in ("Tplus", "Tminus"):
            assert reads[fam] == reference_reading(u, fam), fam
    for fam in FAMILIES:
        assert forward[2][fam] == forward[0][fam] * forward[1][fam], fam
        assert not forward[3][fam], fam

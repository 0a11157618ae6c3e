"""Products, named generators, and the circle-span engine."""

import itertools
from fractions import Fraction

import pytest

from orbifock.fock import FockVector, basis, single
from orbifock.vertex import mode_operator, virasoro
from orbifock.zhu import (GeneratorPolicy, Verdict, build_ospan, circ_n, e_t,
                          e_t_bar, e_u, e_u_bar, hgen, jgen, lam, omega, s_alpha, s_pair, star, star_power)

F = Fraction


def naive_product(u, v, shift):
    """Direct transcription of the binomial-sum products, as an oracle."""
    from math import comb
    out = FockVector.zero(u.ell)
    for w2, comp in u.graded_components().items():
        w = w2 // 2
        for i in range(w + 1):
            out = out + comb(w, i) * mode_operator(comp, i - shift, v)
    return out


@pytest.fixture(scope="module")
def echelon1():
    return build_ospan(1, 4, 2)


def test_star_identity_element():
    one = FockVector.vacuum(1)
    v = single(1, False, [(1, -2), (1, -2)])
    assert star(one, v) == v
    assert star(v, one) == v


def test_star_of_conformal_vector_is_virasoro_sum():
    w1 = omega(2, 1)
    for w in (0, 1, 2, 3):
        for m in basis(2, False, w, "even"):
            u = FockVector.from_monomial(2, False, m)
            want = (virasoro(1, -2, u) + 2 * virasoro(1, -1, u)
                    + virasoro(1, 0, u))
            assert star(w1, u) == want


def test_star_of_disjoint_quadratics_is_juxtaposition():
    got = star(s_pair(4, 1, 1, 2, 1), s_pair(4, 3, 1, 4, 1))
    assert got == single(4, False, [(1, -1), (2, -1), (3, -1), (4, -1)])


def test_star_and_circ_against_naive_oracle():
    # Rank 1, weight <= 4 on both sides.
    states = []
    for w in (0, 2, 3, 4):
        states += [FockVector.from_monomial(1, False, m)
                   for m in basis(1, False, w, "even")]
    for u in states:
        for v in states:
            assert star(u, v) == naive_product(u, v, 1)
            assert circ_n(u, v, 0) == naive_product(u, v, 2)
            assert circ_n(u, v, 1) == naive_product(u, v, 3)


def test_circ_examples_and_guards():
    w1 = omega(1, 1)
    one = FockVector.vacuum(1)
    assert circ_n(w1, one, 0) == (single(1, False, [(1, -2), (1, -1)])
                                  + single(1, False, [(1, -1), (1, -1)]))
    for u in (w1, jgen(1, 1)):
        got = circ_n(w1, u, 1)
        want = (virasoro(1, -4, u) + 2 * virasoro(1, -3, u)
                + virasoro(1, -2, u))
        assert got == want
    with pytest.raises(ValueError):
        circ_n(w1, one, -1)
    with pytest.raises(ValueError):
        star(single(1, False, [(1, -1)]), one)


def test_parity_and_top_weight_laws():
    gens = [omega(2, 1), s_pair(2, 1, 1, 2, 1), jgen(2, 2), e_u(2, 1, 2)]
    for u in gens:
        for v in gens:
            p = star(u, v)
            assert p.is_even()
            assert p.max_weight2() <= u.max_weight2() + v.max_weight2()
            for n in (0, 1):
                c = circ_n(u, v, n)
                assert c.is_even()
                assert c.max_weight2() <= (u.max_weight2() + v.max_weight2()
                                           + 2 * n + 2)


def test_generator_formulas():
    lam12 = lam(2, 1, 2)
    want = (45 * s_pair(2, 1, 1, 2, 2) + 190 * s_pair(2, 1, 1, 2, 3)
            + 240 * s_pair(2, 1, 1, 2, 4) + 96 * s_pair(2, 1, 1, 2, 5))
    assert lam12 == want
    assert jgen(1, 1) == (single(1, False, [(1, -1)] * 4)
                          + single(1, False, [(1, -3), (1, -1)], -2)
                          + single(1, False, [(1, -2), (1, -2)], F(3, 2)))
    assert hgen(1, 1) == jgen(1, 1) + omega(1, 1) - 4 * star(omega(1, 1), omega(1, 1))
    assert star_power(omega(1, 1), 0) == FockVector.vacuum(1)
    with pytest.raises(ValueError):
        e_u(2, 1, 1)
    with pytest.raises(ValueError):
        lam(2, 3, 1)
    with pytest.raises(ValueError):
        s_alpha(4, [(1, 2), (2, 3)])


def test_s_alpha_is_star_chain():
    got = s_alpha(4, [(1, 2), (3, 4)])
    assert got == single(4, False, [(1, -1), (2, -1), (3, -1), (4, -1)])


def test_echelon_contains_shift_row(echelon1):
    row = single(1, False, [(1, -2), (1, -1)]) + single(1, False, [(1, -1), (1, -1)])
    assert echelon1.reduce(row).is_zero()


def test_translation_rows_reduce_to_zero(echelon1):
    one = FockVector.vacuum(1)
    for w in (2, 3):
        for m in basis(1, False, w, "even"):
            u = FockVector.from_monomial(1, False, m)
            assert echelon1.reduce(circ_n(u, one, 0)).is_zero()


def test_conformal_vector_survives_reduction(echelon1):
    w1 = omega(1, 1)
    assert echelon1.reduce(w1) == w1
    assert echelon1.is_equiv(w1, FockVector.zero(1)) is Verdict.UNKNOWN


def test_reduce_weight_guard(echelon1):
    heavy = single(1, False, [(1, -5)] * 2)
    with pytest.raises(ValueError):
        echelon1.reduce(heavy)
    with pytest.raises(ValueError):
        echelon1.reduce(single(1, False, [(1, -1)]))


def test_reduce_then_count_consistency():
    # The truncated quotient dimensions agree between two slack values.
    e_a = build_ospan(1, 4, 2)
    e_b = build_ospan(1, 4, 3)
    dims_a = sum(1 for w in (0, 2, 3, 4)
                 for m in basis(1, False, w, "even")
                 if not e_a.reduce(FockVector.from_monomial(1, False, m)).is_zero())
    dims_b = sum(1 for w in (0, 2, 3, 4)
                 for m in basis(1, False, w, "even")
                 if not e_b.reduce(FockVector.from_monomial(1, False, m)).is_zero())
    assert dims_a == dims_b


def test_is_equiv_examples():
    e = build_ospan(2, 6, 2)
    S = s_pair(2, 1, 1, 2, 1)
    lhs = star(S, omega(2, 1))
    rhs = virasoro(1, -2, S) + virasoro(1, -1, S)
    assert e.is_equiv(lhs, rhs) is Verdict.PROVED_EQUAL
    lhs = star(omega(2, 1), S) - star(S, omega(2, 1))
    rhs = virasoro(1, -1, S) + virasoro(1, 0, S)
    assert e.is_equiv(lhs, rhs) is Verdict.PROVED_EQUAL


def test_noncertifying_echelon_refuses_certificates():
    blanket = [FockVector.from_monomial(1, False, m)
               for w in (0, 2) for m in basis(1, False, w, "even")]
    e = build_ospan(1, 4, 0, extra_generators=blanket, extra_in_span=False)
    with pytest.raises(ValueError):
        e.is_equiv(omega(1, 1), FockVector.zero(1))
    assert e.reduce(FockVector.vacuum(1)).is_zero()


def test_policy_validation_and_keys():
    with pytest.raises(ValueError):
        GeneratorPolicy(pairs="bogus")
    assert GeneratorPolicy().key() != GeneratorPolicy(pairs="omega").key()


def test_echelon_cache_round_trip(tmp_path):
    e1 = build_ospan(1, 4, 2, cache_dir=str(tmp_path))
    assert not e1.cache_hit
    e2 = build_ospan(1, 4, 2, cache_dir=str(tmp_path))
    assert e2.cache_hit
    assert e1.rows == e2.rows
    w1 = omega(1, 1)
    assert e1.reduce(w1) == e2.reduce(w1)

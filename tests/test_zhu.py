"""Products, named generators, and the circle-span engine."""

import hashlib
import itertools
import os
from fractions import Fraction

import pytest

from orbifock.fock import FockVector, basis, single
from orbifock.vertex import mode_component, virasoro
from orbifock.zhu import (GeneratorPolicy, OSpanEchelon, Verdict, build_ospan, circ_n, e_t,
                          e_t_bar, e_u, e_u_bar, hgen, jgen, lam, omega, s_pair, star, star_power)

F = Fraction


def naive_product(u, v, shift):
    """Direct transcription of the binomial-sum products, as an oracle."""
    from math import comb
    out = FockVector.zero(u.ell)
    for w2, comp in u.graded_components().items():
        w = w2 // 2
        for i in range(w + 1):
            out = out + comb(w, i) * mode_component(comp, i - shift, v)
    return out


@pytest.fixture(scope="module")
def echelon1():
    return build_ospan(1, 6)


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
    # The truncated quotient dimensions agree between two windows.
    e_a = build_ospan(1, 6)
    e_b = build_ospan(1, 7)
    dims_a = sum(1 for w in (0, 2, 3, 4)
                 for m in basis(1, False, w, "even")
                 if not e_a.reduce(FockVector.from_monomial(1, False, m)).is_zero())
    dims_b = sum(1 for w in (0, 2, 3, 4)
                 for m in basis(1, False, w, "even")
                 if not e_b.reduce(FockVector.from_monomial(1, False, m)).is_zero())
    assert dims_a == dims_b


def test_is_equiv_examples():
    e = build_ospan(2, 8)
    S = s_pair(2, 1, 1, 2, 1)
    lhs = star(S, omega(2, 1))
    rhs = virasoro(1, -2, S) + virasoro(1, -1, S)
    assert e.is_equiv(lhs, rhs) is Verdict.PROVED_EQUAL
    lhs = star(omega(2, 1), S) - star(S, omega(2, 1))
    rhs = virasoro(1, -1, S) + virasoro(1, 0, S)
    assert e.is_equiv(lhs, rhs) is Verdict.PROVED_EQUAL


def test_policy_validation_and_keys():
    with pytest.raises(ValueError):
        GeneratorPolicy(pairs="bogus")
    assert GeneratorPolicy().key() != GeneratorPolicy(pairs="omega").key()


# SHA-256 of to_text() and the number of kept circles, recorded before the
# mode expansion and the elimination were rewritten for speed; any change to
# either that alters a stored row changes these.
ECHELON_GOLDENS = [
    ((1, 8), "all",
     "3dc727910a5c999c48308d4e2688fa352e866a8bf670d763c13c33fe6e674bc5", 26),
    ((2, 6), "omega",
     "dfca00e8217e84d18c03791bd18029ba6a4426db70d2b3ae6469ded912df9119", 45),
    ((3, 5), "quadratic",
     "3729d1d7a2e69ac6f6fb9a6bcb675ca47c7094a598513d5a9e396ec8156dfcb5", 60),
]


@pytest.mark.parametrize("args, pairs, digest, kept", ECHELON_GOLDENS,
                         ids=["r1w8-all", "r2w6-omega", "r3w5-quadratic"])
def test_echelon_golden(args, pairs, digest, kept):
    e = build_ospan(*args, policy=GeneratorPolicy(pairs))
    assert hashlib.sha256(e.to_text().encode()).hexdigest() == digest
    assert e.rank() == kept


def test_echelon_cache_round_trip(tmp_path):
    e1 = build_ospan(1, 6, cache_dir=str(tmp_path))
    assert not e1.cache_hit
    e2 = build_ospan(1, 6, cache_dir=str(tmp_path))
    assert e2.cache_hit
    assert e1.rows == e2.rows
    w1 = omega(1, 1)
    assert e1.reduce(w1) == e2.reduce(w1)
    assert not build_ospan(1, 7, cache_dir=str(tmp_path)).cache_hit


def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(OSpanEchelon, "to_text", interrupted)
    with pytest.raises(KeyboardInterrupt):
        build_ospan(1, 6, cache_dir=str(tmp_path))
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    assert not build_ospan(1, 6, cache_dir=str(tmp_path)).cache_hit
    assert build_ospan(1, 6, cache_dir=str(tmp_path)).cache_hit


# Corruptions of the rank-1 window-6 cache file, each of which load_rows
# must reject.  It has 15 columns; column 4 (h1(-2)^2) is a pivot, 9 and 14
# are not.  The first appended line would replace pivot 4 with a row reaching
# a weight-6 column through a negative index.
CORRUPTIONS = {
    "empty-file": lambda text: "",
    "appended-pivot-4": lambda text: text + "-3:5 4:1\n",
    "negative-column": lambda text: text + "-3:5 9:1\n",
    "column-past-end": lambda text: text + "1:1 15:1\n",
    "zero-entry": lambda text: text + "0:0 14:1\n",
    "duplicate-pivot": lambda text: text + "1:1 4:1\n",
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_malformed_cache_file_is_rebuilt(tmp_path, corrupt):
    fresh = build_ospan(1, 6, cache_dir=str(tmp_path))
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    path.write_text(corrupt(path.read_text()))
    again = build_ospan(1, 6, cache_dir=str(tmp_path))
    assert not again.cache_hit
    assert again.rows == fresh.rows
    h2 = single(1, False, [(1, -2), (1, -2)])
    assert again.reduce(h2) == (3 * single(1, False, [(1, -1), (1, -1)])
                                - 2 * single(1, False, [(1, -3), (1, -1)]))
    assert build_ospan(1, 6, cache_dir=str(tmp_path)).cache_hit

"""Cross-module properties over the named-generator family (rank 2).

These are the structural laws with no table constants in them: parity
closure, circle elements dying on every top level, the zero mode turning
the product into matrix composition, and certificate soundness against
evaluation.
"""

import itertools
import random
from fractions import Fraction

import pytest

from mode_oracle import WholeWindow, graded_parts, mode_component
from orbifock.fock import FockVector, basis
from orbifock.toplevel import FAMILIES, evaluate
from orbifock.zhu import (build_ospan, circ_n, e_t, e_u, hgen, jgen, lam,
                          omega, s_pair, star)

F = Fraction


@pytest.fixture(scope="module")
def gens():
    return {
        "one": FockVector.vacuum(2), "w1": omega(2, 1), "w2": omega(2, 2),
        "J1": jgen(2, 1), "J2": jgen(2, 2), "H1": hgen(2, 1), "H2": hgen(2, 2),
        "S11": s_pair(2, 1, 1, 2, 1), "Eu12": e_u(2, 1, 2),
        "Eu21": e_u(2, 2, 1), "Et12": e_t(2, 1, 2), "Et21": e_t(2, 2, 1),
        "Lam12": lam(2, 1, 2),
    }


@pytest.fixture(scope="module")
def star_table(gens):
    return {(nu, nv): star(u, v)
            for (nu, u), (nv, v) in itertools.product(gens.items(), repeat=2)}


def test_parity_closure(gens, star_table):
    for sv in star_table.values():
        assert sv.is_even()
    for (nu, u), (nv, v) in itertools.product(gens.items(), repeat=2):
        assert circ_n(u, v, 0).is_even()


def test_star_homomorphism_on_all_pairs(gens, star_table):
    for (nu, nv), sv in star_table.items():
        u, v = gens[nu], gens[nv]
        for fam in FAMILIES:
            assert evaluate(sv, fam) == evaluate(u, fam) * evaluate(v, fam), \
                (nu, nv, fam)


def test_circle_annihilation_on_all_pairs(gens):
    for (nu, u), (nv, v) in itertools.product(gens.items(), repeat=2):
        for n in (0, 1, 2):
            c = circ_n(u, v, n)
            for fam in FAMILIES:
                assert not evaluate(c, fam), (nu, nv, n, fam)


def test_certificate_soundness_against_evaluation():
    # Every certified pair over a sample set evaluates identically.
    e = WholeWindow(2, 8)
    sample = []
    for w in (0, 2, 3, 4):
        sample += [FockVector.from_monomial(2, m)
                   for m in basis(2, w, "even")]
    pairs = 0
    for u in sample:
        for v in sample:
            if u.max_weight() > 6 or v.max_weight() > 6:
                continue
            if e.reduce(u - v).is_zero():
                pairs += 1
                for fam in FAMILIES:
                    assert evaluate(u, fam) == evaluate(v, fam)
    assert pairs > 0  # the sample does contain equivalent distinct states


def _seeded_even_states(rank, count, seed):
    """``count`` fixed combinations of three even monomials of weight <= 3."""
    rng = random.Random(seed)
    monos = [m for w in range(4) for m in basis(rank, w, "even")]
    return [sum((rng.choice((-2, -1, 1, 3))
                 * FockVector.from_monomial(rank, m)
                 for m in rng.sample(monos, 3)), FockVector.zero(rank))
            for _ in range(count)]


def _assert_associative_mod_circles(e, states):
    """(u * v) * w - u * (v * w) reduces to zero for every triple that the
    echelon's window holds."""
    checked = 0
    for u, v, w in itertools.product(states, repeat=3):
        if u.max_weight() + v.max_weight() + w.max_weight() > e.window:
            continue
        left = star(star(u, v), w)
        right = star(u, star(v, w))
        assert e.reduce(left - right).is_zero(), (u, v, w)
        checked += 1
    return checked


def test_associativity_modulo_circles():
    e1 = build_ospan(1, 10, sector=0)
    gens1 = [omega(1, 1), jgen(1, 1), FockVector.vacuum(1)]
    assert _assert_associative_mod_circles(e1, gens1) == 26
    e2 = WholeWindow(2, 10)
    states2 = ([FockVector.vacuum(2), omega(2, 1), omega(2, 2),
                s_pair(2, 1, 1, 2, 1)] + _seeded_even_states(2, 3, seed=5))
    assert _assert_associative_mod_circles(e2, states2) == 7 ** 3


def test_central_element_commutes_under_evaluation(gens):
    lam12 = gens["Lam12"]
    for name, u in gens.items():
        for fam in FAMILIES:
            ab = evaluate(star(lam12, u), fam)
            ba = evaluate(star(u, lam12), fam)
            assert ab == ba, (name, fam)


def test_mode_weight_law_on_products(gens):
    # The zero mode of a product never raises top-level weight: products of
    # named generators stay finite and their components respect the grading.
    u, v = gens["Eu12"], gens["Et21"]
    sv = star(u, v)
    for w, comp in graded_parts(sv).items():
        t = FockVector.vacuum(2)
        out = mode_component(comp, w - 1, t)
        if out:
            assert out.max_weight() == 0

"""Mode components and top-level closed forms against the desk oracle."""

import hashlib
import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from mode_oracle import (SYMBOLIC, _component, apply_mode, delta_terms,
                         graded_parts, mode_component, reference_delta,
                         reference_product, symbolic_vector, virasoro)
from orbifock import vertex
from orbifock.coeffs import LPoly, clear_denominators
from orbifock.fock import FockVector, basis, mono_weight, single
from orbifock.toplevel import (FAMILIES, WITNESS_ORDER, Matrix, _entries,
                               disprove_equiv, evaluate, first_nonzero)
from orbifock.twisted import apply_delta, delta_coefficients
from orbifock.vertex import d_coeff
from orbifock.zhu import CircleSpan, circ_n, hgen, jgen, omega, star

F = Fraction


def oracle_d(k, n):
    # C(-k-1, n-1) via a falling factorial, written independently.
    top = F(-k) - 1
    val = F(1)
    for j in range(n - 1):
        val *= (top - j) / (j + 1)
    return val


def oracle_mode_operator(v, m, target, hw=None, box=9, twisted=False):
    """Brute-force expansion: box enumeration plus one-at-a-time modes.

    Modes run over the integers on a target of the vacuum module, and over
    the half-integers on a target of the twisted module (``twisted``), whose
    states hold Fraction indices.  Zero modes act through ``apply_mode``
    with ``hw`` (zero on the vacuum module when ``hw`` is None).
    """
    if twisted:
        modes = [k + F(1, 2) for k in range(-box, box)]
    else:
        modes = list(range(-box, box + 1))
    out = FockVector.zero(v.ell)
    for mono, c in v.terms.items():
        facs = [(g, -n) for g, n in mono]
        total = m + 1 - sum(n for _, n in facs)
        for ks in itertools.product(modes, repeat=len(facs)):
            if sum(ks) != total:
                continue
            coeff = F(c)
            for k, (_, n) in zip(ks, facs):
                coeff *= oracle_d(k, n)
                if not coeff:
                    break
            if not coeff:
                continue
            w = target
            for k, (g, _) in sorted(zip(ks, facs)):
                if k >= 0:
                    w = apply_mode(g, k, w, hw)
                    if not w:
                        break
            if not w:
                continue
            for k, (g, _) in zip(ks, facs):
                if k < 0:
                    w = apply_mode(g, k, w)
            out = out + coeff * w
    return out


def test_d_coefficients():
    assert d_coeff(0, 3) == 1  # C(-1, 2)
    assert d_coeff(1, 2) == -2  # C(-2, 1)
    assert d_coeff(-1, 2) == 0  # the vanishing window
    assert d_coeff(-2, 2) == 1  # C(1, 1)
    assert d_coeff(F(1, 2), 2) == F(-3, 2)  # C(-3/2, 1)
    assert d_coeff(F(-3, 2), 4) == F(1, 16)  # C(1/2, 3)


def test_d_coefficients_against_oracle():
    # Integer modes give ints; half-integer modes, read on the twisted
    # top level, give Fractions of the same value as the oracle's.
    ks = list(range(-8, 9)) + [F(j, 2) for j in range(-15, 16, 2)]
    for k in ks:
        for n in range(1, 10):
            got = d_coeff(k, n)
            assert got == oracle_d(k, n), (k, n)
            if isinstance(k, int):
                assert type(got) is int, (k, n)


def test_one_pass_wick_walk_against_the_recursion():
    # States of zero, two, three and four factors and weight <= 5, and
    # h1(-1)^6, against every target of weight <= 4 at rank 2; shifts 1-4
    # need m_q t for -4 <= q < wt m.  Three or more factors may contract
    # several factors of one target.
    targets = [t for w in range(5) for t in basis(2, w, "all")]
    states = ([()] + [m for w in range(2, 6) for m in basis(2, w, "all")
                      if len(m) in (2, 3, 4)] + [((1, -1),) * 6])
    assert (len(targets), len(states)) == (38, 59)
    memo = {}
    for m in states:
        w = mono_weight(m)
        u = FockVector.from_monomial(2, m)
        for t in targets:
            parts = {q: _component(m, q, t, memo) for q in range(-4, w)}
            v = FockVector.from_monomial(2, t)
            for shift in range(1, 5):
                want = {}
                for i in range(w + 1):
                    for mono, x in parts[i - shift].items():
                        want[mono] = want.get(mono, 0) + comb(w, i) * x
                want = {mono: x for mono, x in want.items() if x}
                got = vertex.mode_component(u, v, shift).terms
                assert got == want, (m, t, shift)


def _seeded_states(rng, ell, count):
    # Even states of two to three monomials of weight <= 3, at least one
    # with a repeated factor, and unlike Fraction coefficients.
    monos = [m for w in range(4) for m in basis(ell, w, "even")]
    repeated = [m for m in monos if len(set(m)) < len(m)]
    return [FockVector(ell, {m: rng.choice(MIXED_COEFFS)
                             for m in [rng.choice(repeated)]
                             + rng.sample(monos, rng.randint(1, 2))})
            for _ in range(count)]


def test_products_born_as_integers_against_recursion():
    rng = random.Random(5)
    states = _seeded_states(rng, 1, 8) + _seeded_states(rng, 2, 8)
    dens = set()
    for u in states:
        for v in states:
            if u.ell != v.ell:
                continue
            for shift in range(1, 5):
                got = vertex.mode_component(u, v, shift)
                form = got.integer_form()
                assert got == reference_product(u, v, shift), (u, v, shift)
                assert form == clear_denominators(dict(got.terms))
                dens.add(form[0])
    assert max(dens) > 1


def test_readings_leave_a_products_fraction_view_unbuilt(monkeypatch):
    # Every reading, and a difference taken for a disproof or a membership
    # check, works on the integer form: no one reads the Fraction view.
    reads = []
    view = FockVector.terms.fget
    monkeypatch.setattr(FockVector, "terms",
                        property(lambda vec: reads.append(vec) or view(vec)))
    u = F(1, 3) * jgen(2, 1) + F(-5, 16) * hgen(2, 2)
    span = CircleSpan(2)
    for v in (omega(2, 1), single(2, [(1, -1), (2, -2)], F(7, 2))):
        product = star(u, v)
        assert product.integer_form()[0] > 1
        apply_delta(product)
        found = [first_nonzero(product, order)
                 for order in (FAMILIES, WITNESS_ORDER)]
        for fam in FAMILIES:
            evaluate(product, fam)
        assert disprove_equiv(product, u) is not None
        assert not span.contains(product - u, 10)
        assert not reads
        copy = FockVector(2, dict(product.terms))
        reads.clear()
        for fam, entry, value in found:
            assert type(value) is F
            assert dict(_entries(evaluate(copy, fam)))[entry] == value


def test_single_mode_state_is_the_current():
    # The state h_a(-1)|0> expands to the plain current: v_n = h_a(n).
    v = single(2, [(1, -1)])
    targets = [FockVector.vacuum(2)]
    for w in (1, 2):
        targets += [FockVector.from_monomial(2, m)
                    for m in basis(2, w, "all")]
    for t in targets:
        for n in range(-3, 4):
            assert mode_component(v, n, t) == apply_mode(1, n, t)


@pytest.mark.parametrize("ell", [1, 2])
def test_mode_operator_against_oracle(ell):
    states = []
    for w in (1, 2, 3):
        states += [FockVector.from_monomial(ell, m)
                   for m in basis(ell, w, "all")]
    targets = [FockVector.vacuum(ell)]
    for w in (1, 2):
        targets += [FockVector.from_monomial(ell, m)
                    for m in basis(ell, w, "all")]
    for v in states:
        for m in range(-3, 4):
            for t in targets:
                assert mode_component(v, m, t) == oracle_mode_operator(v, m, t)


def _states(ell, weights):
    return [FockVector.from_monomial(ell, m)
            for w in weights for m in basis(ell, w, "all")]


# Targets whose contractions the grouped expansion prunes on: repeated
# modes, several generators, and several terms.
PRUNED_TARGETS = {
    "h1(-1)^3": single(2, [(1, -1)] * 3),
    "h1(-1)^2 h2(-2)": single(2, [(1, -1), (1, -1), (2, -2)]),
    "h1(-1)^2 + h1(-2)": (single(2, [(1, -1), (1, -1)])
                          + single(2, [(1, -2)])),
}


@pytest.mark.parametrize("name", sorted(PRUNED_TARGETS))
def test_pruned_targets_against_oracle(name):
    target = PRUNED_TARGETS[name]
    states = _states(2, (1, 2, 3)) + [single(2, [(1, -1)] * 4)]
    for v in states:
        for m in range(-3, 5):
            assert mode_component(v, m, target) == oracle_mode_operator(v, m, target)


def oracle_top_level(u, fam, box=1, hw=SYMBOLIC):
    """o(u) on the family's top level, as the oracle's image vectors.

    One vector per top-level basis vector: the brute-force grade-preserving
    component of each graded piece, after exp(Delta_z) in operator form
    (:func:`mode_oracle.reference_delta`) on the twisted families.  On a
    top level every surviving mode lies in [-1, 1].
    ``hw`` is the highest weight of Mlambda.
    """
    rank = u.ell
    if fam in ("Hplus", "Mlambda", "Hminus"):
        hw = hw if fam == "Mlambda" else None
        tops = ([FockVector.vacuum(rank)] if fam != "Hminus" else
                [single(rank, [(j, -1)]) for j in range(1, rank + 1)])
        return [sum((oracle_mode_operator(comp, w - 1, t, hw, box)
                     for w, comp in graded_parts(u).items()),
                    FockVector.zero(rank)) for t in tops]
    # |0>_tw and the h_j(-1/2)|0>_tw, the latter as monomials of the
    # Fraction index -1/2.
    tops = ([FockVector.vacuum(rank)] if fam == "Tplus" else
            [FockVector.from_monomial(rank, ((j, F(-1, 2)),))
             for j in range(1, rank + 1)])
    table = delta_coefficients(max(2, u.max_weight()))
    outs = []
    for t in tops:
        out = FockVector.zero(rank)
        for wt, comp in graded_parts(u).items():
            for shift, w in reference_delta(comp, table).items():
                out = out + oracle_mode_operator(w, wt - 1 + shift, t,
                                                 box=box, twisted=True)
        outs.append(out)
    return outs


def action_images(act, fam, rank):
    """The closed-form action as image vectors, in the oracle's layout."""
    if isinstance(act, LPoly):
        return [symbolic_vector(act)]
    if not isinstance(act, Matrix):
        return [FockVector.vacuum(rank, coeff=act)]
    n = F(-1, 2) if fam in ("Tplus", "Tminus") else -1
    return [sum((FockVector.from_monomial(rank, ((i + 1, n),), act.rows[i][j])
                 for i in range(rank)), FockVector.zero(rank))
            for j in range(rank)]


def _even_states(ell, max_weight):
    return [FockVector.from_monomial(ell, m)
            for w in range(max_weight + 1) for m in basis(ell, w, "even")]


ORACLE_STATES = (_even_states(1, 8) + _even_states(2, 6) + _even_states(3, 4)
                 + [gen(ell, a) for ell in (1, 2, 3) for gen in (jgen, hgen)
                    for a in range(1, ell + 1)])


@pytest.mark.parametrize("box", [1, 2])
def test_top_level_closed_forms_against_oracle(box):
    # Every family's closed form against the brute-force expansion.  Box 1
    # holds every mode that can act on a top level; box 2 (weight <= 4)
    # confirms that the wider modes add nothing.
    states = ORACLE_STATES if box == 1 else [
        u for u in ORACLE_STATES if u.max_weight() <= 4]
    for u in states:
        for fam in FAMILIES:
            got = action_images(evaluate(u, fam), fam, u.ell)
            assert got == oracle_top_level(u, fam, box), (u, fam)


# sha256 of the text of every action above, one per line: any change to a
# reading's value or to its printed form changes it.
READINGS_SHA256 = \
    "13fd0cc1d274dfc6d588fca81f6325f34b9997a139ac4eba9560f2bda4d5016b"


def test_top_level_readings_digest():
    digest = hashlib.sha256()
    for u in ORACLE_STATES:
        for fam in FAMILIES:
            digest.update(f"{evaluate(u, fam)}\n".encode())
    assert len(ORACLE_STATES) * len(FAMILIES) == 815
    assert digest.hexdigest() == READINGS_SHA256


# Coefficients with unlike denominators, so that the integer kernels must
# clear and restore them; the states above all have unit coefficients.
MIXED_COEFFS = (F(1, 3), F(-5, 16), F(7, 2), 2, -3, 1)


def _mixed(ell, monos, offset=0):
    return FockVector(ell, {
        m: MIXED_COEFFS[(i + offset) % len(MIXED_COEFFS)]
        for i, m in enumerate(monos)})


def _mixed_states():
    states = []
    for ell, top in ((1, 8), (2, 6), (3, 4)):
        by_weight = [basis(ell, w, "even") for w in range(top + 1)]
        states += [_mixed(ell, monos, w)
                   for w, monos in enumerate(by_weight) if monos]
        # One state across all weights, whose parts share the denominators.
        states.append(_mixed(ell, [m for monos in by_weight for m in monos]))
        states += [F(1, 3) * jgen(ell, a) + F(-5, 16) * hgen(ell, a)
                   for a in range(1, ell + 1)]
    return states


MIXED_STATES = _mixed_states()


def test_mixed_denominators_delta_against_oracle():
    table = delta_coefficients(8)
    for v in MIXED_STATES:
        full = sum(reference_delta(v, table).values(), FockVector.zero(v.ell))
        want = {m: c for m, c in full.terms.items() if len(m) <= 2}
        assert delta_terms(v) == want, v


def test_delta_expansion_is_int_numerators_over_one_denominator():
    for v in MIXED_STATES:
        den, terms = apply_delta(v)
        assert type(den) is int and den > 0, v
        assert all(type(c) is int and c for c in terms.values()), v


def test_mixed_denominators_products_against_recursion():
    # Pairs up to total weight 6 keep the recursion's reference affordable;
    # the same states also meet unit-coefficient partners.
    small = [u for u in MIXED_STATES if u.max_weight() <= 4]
    partners = small + [FockVector.from_monomial(u.ell, m)
                        for u in small for m in list(u.terms)[:1]]
    for u in small:
        for v in partners:
            if u.ell != v.ell or u.max_weight() + v.max_weight() > 6:
                continue
            assert star(u, v) == reference_product(u, v, 1), (u, v)
            assert star(v, u) == reference_product(v, u, 1), (v, u)
            for n in (0, 1):
                assert circ_n(u, v, n) == reference_product(u, v, n + 2), (u, v, n)


# The same digest over the mixed-coefficient states.
MIXED_READINGS_SHA256 = \
    "85f94c141c89d2c1f1938adf2e9c1b4dbac56ce940702072d89ea7aa6698fa94"


def test_mixed_readings_digest():
    digest = hashlib.sha256()
    for u in MIXED_STATES:
        for fam in FAMILIES:
            digest.update(f"{evaluate(u, fam)}\n".encode())
    assert len(MIXED_STATES) * len(FAMILIES) == 135
    assert digest.hexdigest() == MIXED_READINGS_SHA256


@pytest.mark.parametrize("hw", [(2, -3), (0, 5), SYMBOLIC])
def test_zero_modes_against_oracle(hw):
    # On a highest-weight top level every factor acts by its zero mode,
    # which multiplies by hw[g-1] (or l_g, a formal factor (g, 0)).  The
    # Mlambda polynomial, read at a numeric weight, must match the oracle's
    # numeric zero modes, and spelled in formal factors its symbolic ones.
    for u in _even_states(2, 6) + [jgen(2, 1), hgen(2, 2)]:
        poly = evaluate(u, "Mlambda")
        if hw == SYMBOLIC:
            got = symbolic_vector(poly)
        else:
            got = FockVector.vacuum(2, coeff=sum(
                (c * F(hw[0]) ** e[0] * F(hw[1]) ** e[1]
                 for e, c in poly.terms.items()), F(0)))
        want = oracle_top_level(u, "Mlambda", hw=hw)
        assert [got] == want, u


def gbinom(k, j):
    # C(k, j) for any integer k: a falling factorial over j!.
    num = 1
    for i in range(j):
        num *= k - i
    return num // factorial(j)


CASES = 1000


@pytest.mark.parametrize("ell", [1, 2])
def test_commutator_with_heisenberg_modes(ell):
    # [h_a(k), v_m] w = sum_{j>=1} C(k, j) (h_a(j) v)_{m+k-j} w for k of both
    # signs, on states and targets up to weight 6, beyond the oracle's box.
    rng = random.Random(ell)
    monos = [mono for wt in range(7) for mono in basis(ell, wt, "all")]
    nonzero = 0
    for _ in range(CASES):
        v = FockVector.from_monomial(ell, rng.choice(monos))
        w = FockVector.from_monomial(ell, rng.choice(monos))
        a = rng.randint(1, ell)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        m = rng.randint(-3, v.max_weight() + w.max_weight())
        lhs = (apply_mode(a, k, mode_component(v, m, w))
               - mode_component(v, m, apply_mode(a, k, w)))
        rhs = FockVector.zero(ell)
        for j in range(1, v.max_weight() + 1):
            rhs = rhs + gbinom(k, j) * mode_component(
                apply_mode(a, j, v), m + k - j, w)
        assert lhs == rhs, (v, w, a, k, m)
        nonzero += bool(lhs)
    assert nonzero > CASES // 3


def test_mode_weight_bookkeeping():
    v = single(1, [(1, -2), (1, -1)])
    t = single(1, [(1, -1), (1, -1)])
    for m in range(-3, 4):
        out = mode_component(v, m, t)
        if out:
            assert ({mono_weight(mono) for mono in out.terms}
                    == {v.max_weight() + t.max_weight() - m - 1})


def test_virasoro_grades_and_creates():
    # L_1(n) is the (n+1)-component of omega_1: L_1(-2)|0> = omega_1, and
    # L_1(0) counts the weight carried by generator 1.
    assert mode_component(omega(1, 1), -1, FockVector.vacuum(1)) == single(
        1, [(1, -1), (1, -1)], F(1, 2))
    for m in basis(2, 3, "all"):
        v = FockVector.from_monomial(2, m)
        w1 = -sum(n for g, n in m if g == 1)
        assert mode_component(omega(2, 1), 1, v) == w1 * v


def test_commuting_coordinate_virasoro():
    # Distinct coordinates commute on every graded piece up to weight 3.
    for w in (0, 1, 2, 3):
        for m in basis(2, w, "all"):
            v = FockVector.from_monomial(2, m)
            for p in (-2, -1, 0, 1):
                for q in (-1, 0, 1):
                    ab = virasoro(1, p, virasoro(2, q, v))
                    ba = virasoro(2, q, virasoro(1, p, v))
                    assert ab == ba


def test_translation_property_of_components():
    # (L(-1)v)_m = -m v_{m-1} over the enumerable range.
    t = single(1, [(1, -1), (1, -1)])
    for w in (1, 2, 3):
        for mono in basis(1, w, "all"):
            v = FockVector.from_monomial(1, mono)
            lv = virasoro(1, -1, v)
            for m in range(-2, 4):
                assert mode_component(lv, m, t) == (-m) * mode_component(v, m - 1, t)


def test_zero_mode_identity_and_rejections():
    v = FockVector.vacuum(2)
    t = single(2, [(1, -1)])
    assert mode_component(v, -1, t) == t
    with pytest.raises(ValueError, match="rank mismatch"):
        mode_component(v, -1, FockVector.vacuum(1))


def test_zero_mode_on_highest_weight_vectors():
    # Only fully balanced zero-mode tuples survive on a highest-weight line.
    J = (single(1, [(1, -1)] * 4)
         + single(1, [(1, -3), (1, -1)], -2)
         + single(1, [(1, -2), (1, -2)], F(3, 2)))
    assert str(evaluate(J, "Mlambda")) == "-1/2*l1^2 + l1^4"
    # S(1,1;2,1) swaps the two vectors of the Hminus top level.
    S11 = single(2, [(1, -1), (2, -1)])
    assert evaluate(S11, "Hminus") == Matrix([[0, 1], [1, 0]])

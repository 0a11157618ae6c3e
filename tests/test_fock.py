"""State representation: monomials, mode action, grading, bases, involution."""

import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from mode_oracle import apply_mode, delta_terms, symbolic_vector
from orbifock.coeffs import LPoly, format_sum
from orbifock.fock import (FockVector, basis, count_sector, format_monomial,
                          make_monomial, mono_key, sector, single)
from orbifock.zhu import omega

F = Fraction


def test_vacuum_monomial():
    assert make_monomial(1, []) == ()
    v = FockVector.vacuum(1)
    assert v.max_weight() == 0 and v.is_even()


def test_integer_form_is_canonical():
    # All-int terms are their own integer form; a rational vector holds int
    # numerators over the lcm of its denominators, in lowest terms, however
    # it was made.
    v = single(2, [(1, -1), (2, -3)], 4) + single(2, [(2, -2), (2, -2)], -6)
    assert v.integer_form() == (1, v.terms)
    assert v.integer_form()[1] is v.terms
    w = F(1, 6) * v + omega(2, 1)
    den, ints = w.integer_form()
    assert (den, ints) == (6, {m: int(6 * c) for m, c in w.terms.items()})
    assert gcd(den, *ints.values()) == 1 and all(ints.values())
    doubled = FockVector.from_integer(2, 2 * den,
                                      {m: 2 * c for m, c in ints.items()})
    for same in (doubled, FockVector(2, w.terms), w + w - w, -(-w)):
        assert same == w and same.integer_form() == (den, ints)
    assert (w - w).integer_form() == (1, {})
    assert w.is_even() and not (w + single(2, [(1, -2)])).is_even()


def test_canonical_order_of_commuting_creators():
    m1 = make_monomial(1, [(1, -1), (1, -3)])
    m2 = make_monomial(1, [(1, -3), (1, -1)])
    assert m1 == m2
    assert str(FockVector.from_monomial(1, m1)) == "h1(-3)h1(-1)"


def test_make_monomial_rejections():
    with pytest.raises(ValueError):
        make_monomial(1, [(1, 1)])  # annihilation index
    with pytest.raises(ValueError):
        make_monomial(1, [(2, -1)])  # generator out of range
    with pytest.raises(ValueError, match="not an integer"):
        make_monomial(1, [(1, F(-1, 2))])  # a twisted-module mode
    with pytest.raises(ValueError, match="mode index -1/3 is not an integer"):
        make_monomial(1, [(1, F(-1, 3))])
    with pytest.raises(ValueError):
        make_monomial(1, [(1, 0)])  # zero mode is not a creator


def test_monomials_hold_plain_mode_indices():
    # A monomial stores each mode h_g(n) as (g, n), in canonical order.
    assert make_monomial(2, [(2, -1), (1, -3)]) == ((1, -3), (2, -1))
    for rank in (1, 2, 3):
        for w in range(7):
            for mono in basis(rank, w, "all"):
                assert all(type(n) is int and n < 0 for _, n in mono)
                assert sum(n for _, n in mono) == -w
    v = single(2, [(1, -3), (2, -1)]) + single(2, [(1, -2), (2, -2)])
    assert type(v.max_weight()) is int and v.max_weight() == 4
    assert ((1, -1), (1, -1)) in delta_terms(omega(1, 1))


def test_apply_mode_commutator_single():
    v = single(1, [(1, -1)])
    assert apply_mode(1, 1, v) == FockVector.vacuum(1)


def test_apply_mode_zero_mode_symbolic():
    # At a symbolic highest weight h_1(0) inserts the formal factor (1, 0)
    # for l1, which no annihilator removes.
    out = apply_mode(1, 0, FockVector.vacuum(2), "symbolic")
    assert out == symbolic_vector(LPoly.unit(2, 1))
    assert str(out) == "h1(0)"
    assert apply_mode(1, 1, out).is_zero()
    out = apply_mode(2, 0, FockVector.vacuum(2), (F(3), F(5)))
    assert out == FockVector.vacuum(2, coeff=F(5))
    assert apply_mode(1, 0, FockVector.vacuum(2)).is_zero()


def test_apply_mode_no_match_gives_zero():
    v = single(2, [(1, -1), (2, -1)])
    assert apply_mode(1, 2, v).is_zero()


def test_heisenberg_relation_on_small_states():
    # [h_a(m), h_b(n)] = m delta_ab delta_{m+n,0} on everything enumerable.
    states = []
    for w in (0, 1, 2):
        states += [FockVector.from_monomial(2, m)
                   for m in basis(2, w, "all")]
    modes = [(a, n) for a in (1, 2) for n in (-2, -1, 1, 2)]
    for v in states:
        for a, m in modes:
            for b, n in modes:
                lhs = (apply_mode(a, m, apply_mode(b, n, v))
                       - apply_mode(b, n, apply_mode(a, m, v)))
                expect = m * v if (a == b and m + n == 0) else 0 * v
                assert lhs == expect


def test_weight_shift_under_modes():
    v = single(1, [(1, -2), (1, -1)])
    assert apply_mode(1, -3, v).max_weight() == v.max_weight() + 3
    assert apply_mode(1, 1, v).max_weight() == v.max_weight() - 1


def _partition_count(ell, weight, want_parity):
    # Independent counting oracle via the colored-partition generating
    # function, tracking part count parity with a second marker.
    counts = {(0, 0): 1}  # (weight, parts mod 2) -> count
    for p in range(1, weight + 1):
        for _ in range(ell):
            new = dict(counts)
            for (w, par), c in sorted(counts.items()):
                k = 1
                while w + k * p <= weight:
                    key = (w + k * p, (par + k) % 2)
                    new[key] = new.get(key, 0) + c
                    k += 1
            counts = new
    if want_parity == "all":
        return sum(c for (w, _), c in counts.items() if w == weight)
    want = 0 if want_parity == "even" else 1
    return sum(c for (w, par), c in counts.items() if w == weight and par == want)


@pytest.mark.parametrize("ell", [1, 2, 3, 4],
                         ids=["1-False", "2-False", "3-False", "4-False"])
def test_basis_counts_match_generating_function(ell):
    for weight in range(0, 11):
        for parity in ("even", "odd", "all"):
            monos = basis(ell, weight, parity)
            assert len(monos) == _partition_count(ell, weight, parity)
            assert len(set(monos)) == len(monos)
            assert all(m == make_monomial(ell, m) for m in monos)
            # The echelon's columns, and so its pivots, follow this order.
            assert monos == sorted(monos, key=mono_key)


def _count_even(ell, window):
    """How many even monomials weigh at most ``window``: the sectors with
    an even number of bits, where a sector's count depends only on that
    number."""
    return sum(comb(ell, k) * count_sector(ell, window, (1 << k) - 1)
               for k in range(0, ell + 1, 2))


def test_count_even_matches_basis():
    for ell in (1, 2, 3, 4):
        total = 0
        for window in range(0, 11):
            total += len(basis(ell, window, "even"))
            assert _count_even(ell, window) == total
    # Whole-window column counts at larger ranks and windows.
    assert [_count_even(4, w) for w in (10, 12, 16)] == [10098, 37595, 406826]
    assert [_count_even(5, w) for w in (10, 12, 16)] == [28917, 124182, 1744053]
    assert [_count_even(8, w) for w in (10, 12, 16)] == [340512, 2062718,
                                                         54406122]


def test_sector_counts_match_listing():
    # Each sector is grown, not filtered, so its listing is compared with
    # the filtered full listing, and its generating-function count with
    # the listing, at every window up to 10.
    for ell in (1, 2, 3, 4):
        totals = [0] * (1 << ell)
        for window in range(0, 11):
            full = basis(ell, window, "all")
            for s in range(1 << ell):
                monos = basis(ell, window, "all", sector=s)
                assert monos == [m for m in full if sector(m) == s]
                assert basis(ell, window, "even", sector=s) == (
                    monos if s.bit_count() % 2 == 0 else [])
                totals[s] += len(monos)
                assert count_sector(ell, window, s) == totals[s]
            assert _count_even(ell, window) == sum(
                totals[s] for s in range(1 << ell) if s.bit_count() % 2 == 0)


def test_basis_parity_partition():
    for w in (2, 3, 4):
        even = basis(2, w, "even")
        odd = basis(2, w, "odd")
        both = basis(2, w, "all")
        assert sorted(even + odd, key=mono_key) == both


def test_basis_examples():
    got = [str(FockVector.from_monomial(1, m))
           for m in basis(1, 4, "even")]
    assert set(got) == {"h1(-1)h1(-1)h1(-1)h1(-1)", "h1(-3)h1(-1)", "h1(-2)h1(-2)"}
    got = [str(FockVector.from_monomial(2, m))
           for m in basis(2, 2, "even")]
    assert set(got) == {"h1(-1)h1(-1)", "h1(-1)h2(-1)", "h2(-1)h2(-1)"}
    assert basis(3, 0, "even") == [()]
    assert basis(3, 0, "odd") == []


def test_basis_listing_is_shared_but_each_call_gets_its_own_list():
    first = basis(2, 6, "even", sector=3)
    second = basis(2, 6, "even", sector=3)
    assert type(first) is list and first == second
    assert first is not second
    first.append(((1, -9),))
    first[0] = ()
    again = basis(2, 6, "even", sector=3)
    assert again == second and again is not second
    assert ((1, -9),) not in again and () not in again
    with pytest.raises(ValueError, match="nonnegative"):
        basis(2, -1)


def test_vector_arithmetic_drops_zeros():
    v = single(1, [(1, -1)])
    assert (v - v).is_zero()
    assert not (v - v).terms
    assert (F(0) * v).is_zero()


def _fraction_sum(a, b, sign=1):
    # a + sign * b on plain {monomial: Fraction} dicts, zeros dropped.
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _assert_canonical(vec):
    den, ints = vec.integer_form()
    assert type(den) is int and den >= 1, vec
    assert all(type(c) is int and c for c in ints.values()), vec
    assert gcd(den, *ints.values()) == 1, vec


def test_vector_arithmetic_matches_fraction_dicts():
    # Random rational states at ranks 1-3, some coefficients zero, against
    # the same arithmetic on plain Fraction dicts; every result must be in
    # the one canonical form, however it was made.
    rng = random.Random(49)
    coeffs = [F(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4, 6, 12)]
    for rank in (1, 2, 3):
        monos = [m for w in range(5) for m in basis(rank, w)]

        def draw():
            return {m: rng.choice(coeffs)
                    for m in rng.sample(monos, rng.randint(0, 4))}

        for _ in range(60):
            a, b = draw(), draw()
            x, y = FockVector(rank, a), FockVector(rank, b)
            fa, fb = _fraction_sum({}, a), _fraction_sum({}, b)
            k = rng.choice([rng.randint(-5, 5), 0, F(0),
                            F(rng.randint(-5, 5), rng.randint(1, 6))])
            cases = [(x, fa), (y, fb), (x + y, _fraction_sum(fa, fb)),
                     (x - y, _fraction_sum(fa, fb, -1)),
                     (-x, {m: -c for m, c in fa.items()}),
                     (x.scale(k), {m: k * c for m, c in fa.items() if k}),
                     (k * y, {m: k * c for m, c in fb.items() if k})]
            for vec, want in cases:
                _assert_canonical(vec)
                assert vec.terms == want
                assert all(vec.coeff(m) == want.get(m, 0) for m in monos)
                assert vec == FockVector(rank, want)
                assert vec.is_even() == all(len(m) % 2 == 0 for m in want)
                assert str(vec) == format_sum(
                    [(str(F(want[m])), format_monomial(m) if m else "")
                     for m in sorted(want, key=mono_key)])
            assert (x == y) == (fa == fb)
            # From Fractions, from numerators over a multiple of the lcm,
            # and as a sum of one-term parts: one vector, one form.
            den = lcm(1, *(c.denominator for c in fa.values()))
            wide = den * rng.randint(1, 5)
            born = FockVector.from_integer(
                rank, wide, {m: (wide * c).numerator for m, c in a.items()})
            parts = sum((FockVector.from_monomial(rank, m, c)
                         for m, c in a.items()), FockVector.zero(rank))
            for vec in (born, parts):
                _assert_canonical(vec)
                assert vec == x and vec.integer_form() == x.integer_form()
            assert x.integer_form()[0] == den

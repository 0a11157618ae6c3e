"""State representation: monomials, mode action, grading, bases, involution."""

from fractions import Fraction

import pytest

from mode_oracle import apply_mode
from orbifock.fock import FockVector, basis, make_monomial, mono_key, single

F = Fraction


def test_vacuum_monomial():
    assert make_monomial(1, False, []) == ()
    v = FockVector.vacuum(1)
    assert v.weight() == 0 and v.is_even()


def test_canonical_order_of_commuting_creators():
    m1 = make_monomial(1, False, [(1, -1), (1, -3)])
    m2 = make_monomial(1, False, [(1, -3), (1, -1)])
    assert m1 == m2
    assert str(FockVector.from_monomial(1, False, m1)) == "h1(-3)h1(-1)"


def test_twisted_single_mode():
    m = make_monomial(2, True, [(2, F(-1, 2))])
    v = FockVector.from_monomial(2, True, m)
    assert v.weight() == F(1, 2)
    assert str(v) == "h2(-1/2)"


def test_make_monomial_rejections():
    with pytest.raises(ValueError):
        make_monomial(1, False, [(1, 1)])  # annihilation index
    with pytest.raises(ValueError):
        make_monomial(1, False, [(2, -1)])  # generator out of range
    with pytest.raises(ValueError):
        make_monomial(1, False, [(1, F(-1, 2))])  # wrong sector
    with pytest.raises(ValueError):
        make_monomial(1, True, [(1, -1)])  # wrong sector, twisted side
    with pytest.raises(ValueError):
        make_monomial(1, False, [(1, 0)])  # zero mode is not a creator


def test_apply_mode_commutator_single():
    v = single(1, False, [(1, -1)])
    assert apply_mode(1, 1, v) == FockVector.vacuum(1)


def test_apply_mode_zero_mode_symbolic():
    out = apply_mode(1, 0, FockVector.vacuum(2), "symbolic")
    assert str(out) == "l1"
    out = apply_mode(2, 0, FockVector.vacuum(2), (F(3), F(5)))
    assert out == FockVector.vacuum(2, coeff=F(5))
    assert apply_mode(1, 0, FockVector.vacuum(2)).is_zero()


def test_apply_mode_no_match_gives_zero():
    v = single(2, False, [(1, -1), (2, -1)])
    assert apply_mode(1, 2, v).is_zero()


def test_apply_mode_sector_mismatch():
    with pytest.raises(ValueError):
        apply_mode(1, F(1, 2), FockVector.vacuum(1))


def test_heisenberg_relation_on_small_states():
    # [h_a(m), h_b(n)] = m delta_ab delta_{m+n,0} on everything enumerable.
    states = []
    for w in (0, 1, 2):
        states += [FockVector.from_monomial(2, False, m)
                   for m in basis(2, False, w, "all")]
    modes = [(a, n) for a in (1, 2) for n in (-2, -1, 1, 2)]
    for v in states:
        for a, m in modes:
            for b, n in modes:
                lhs = (apply_mode(a, m, apply_mode(b, n, v))
                       - apply_mode(b, n, apply_mode(a, m, v)))
                expect = m * v if (a == b and m + n == 0) else 0 * v
                assert lhs == expect


def test_weight_shift_under_modes():
    v = single(1, False, [(1, -2), (1, -1)])
    assert apply_mode(1, -3, v).weight() == v.weight() + 3
    assert apply_mode(1, 1, v).weight() == v.weight() - 1


def test_weight_rejects_inhomogeneous():
    v = single(1, False, [(1, -1)]) + single(1, False, [(1, -2)])
    with pytest.raises(ValueError):
        v.weight()


def _partition_count(ell, twisted, w2, want_parity):
    # Independent counting oracle via the colored-partition generating
    # function, tracking part count parity with a second marker.
    parts = range(1, w2 + 1, 2) if twisted else range(2, w2 + 1, 2)
    counts = {(0, 0): 1}  # (weight2, parts mod 2) -> count
    for p in parts:
        for _ in range(ell):
            new = dict(counts)
            for (w, par), c in sorted(counts.items()):
                k = 1
                while w + k * p <= w2:
                    key = (w + k * p, (par + k) % 2)
                    new[key] = new.get(key, 0) + c
                    k += 1
            counts = new
    if want_parity == "all":
        return sum(c for (w, _), c in counts.items() if w == w2)
    want = 0 if want_parity == "even" else 1
    return sum(c for (w, par), c in counts.items() if w == w2 and par == want)


@pytest.mark.parametrize("ell,twisted", [(1, False), (2, False), (1, True), (2, True)])
def test_basis_counts_match_generating_function(ell, twisted):
    for w2 in range(0, 13):
        weight = F(w2, 2)
        if not twisted and w2 % 2:
            continue
        for parity in ("even", "odd", "all"):
            got = len(basis(ell, twisted, weight, parity))
            assert got == _partition_count(ell, twisted, w2, parity)


def test_basis_parity_partition():
    for w in (2, 3, 4):
        even = basis(2, False, w, "even")
        odd = basis(2, False, w, "odd")
        both = basis(2, False, w, "all")
        assert sorted(even + odd, key=mono_key) == both


def test_basis_examples():
    got = [str(FockVector.from_monomial(1, False, m))
           for m in basis(1, False, 4, "even")]
    assert set(got) == {"h1(-1)h1(-1)h1(-1)h1(-1)", "h1(-3)h1(-1)", "h1(-2)h1(-2)"}
    got = [str(FockVector.from_monomial(2, False, m))
           for m in basis(2, False, 2, "even")]
    assert set(got) == {"h1(-1)h1(-1)", "h1(-1)h2(-1)", "h2(-1)h2(-1)"}
    assert basis(3, True, 0, "even") == [()]
    assert basis(3, False, 0, "odd") == []


def test_vector_arithmetic_drops_zeros():
    v = single(1, False, [(1, -1)])
    assert (v - v).is_zero()
    assert not (v - v).terms
    assert (F(0) * v).is_zero()

"""Twisted sector: correction table, exponential buckets, corrected modes."""

from fractions import Fraction

import pytest

from orbifock.fock import FockVector, single
from orbifock.twisted import (DeltaTable, apply_delta, delta_coefficients,
                              delta_table, twisted_zero_mode)

F = Fraction


def hand_series_coefficients(deg):
    """Independent low-order expansion of -log((sqrt(1+x)+sqrt(1+y))/2).

    Composed by hand from sqrt(1+t) = 1 + t/2 - t^2/8 + t^3/16 - 5t^4/128
    and -log(1+u) = -u + u^2/2 - u^3/3 + u^4/4, truncated at total degree 4.
    """
    sq = [F(1), F(1, 2), F(-1, 8), F(1, 16), F(-5, 128)]
    u = {}
    for k in range(1, deg + 1):
        u[k, 0] = sq[k] / 2
        u[0, k] = sq[k] / 2

    def mul(p, q):
        out = {}
        for (a, b), c1 in p.items():
            for (c, d), c2 in q.items():
                if a + b + c + d <= deg:
                    out[a + c, b + d] = out.get((a + c, b + d), F(0)) + c1 * c2
        return out

    total = {}
    power = dict(u)
    sign = -1
    for j in range(1, deg + 1):
        for key, val in power.items():
            total[key] = total.get(key, F(0)) + F(sign, j) * val
        power = mul(power, u)
        sign = -sign
    return total


def test_coefficients_against_hand_expansion():
    table = delta_coefficients(4)
    hand = hand_series_coefficients(4)
    for m in range(1, 4):
        for n in range(1, 5 - m):
            assert table.entries.get((m, n), F(0)) == hand[m, n]
    assert table.entries[1, 1] == F(1, 16)
    assert table.entries[1, 3] == F(5, 256)
    assert table.entries[2, 2] == F(9, 512)


def test_symmetry_up_to_degree_16():
    table = delta_coefficients(16)
    for (m, n), c in table.entries.items():
        assert table.entries[n, m] == c


def test_degree_guard():
    with pytest.raises(ValueError):
        delta_coefficients(1)
    table = delta_coefficients(2)
    heavy = single(1, False, [(1, -2), (1, -1)])
    with pytest.raises(ValueError):
        apply_delta(heavy, table)


def test_asymmetric_table_rejected():
    with pytest.raises(ValueError):
        DeltaTable(3, {(1, 2): F(1), (2, 1): F(2)})


def test_apply_delta_examples():
    table = delta_coefficients(6)
    one = FockVector.vacuum(1)
    assert apply_delta(one, table) == {0: one}

    omega = single(1, False, [(1, -1), (1, -1)], F(1, 2))
    buckets = apply_delta(omega, table)
    assert set(buckets) == {0, -2}
    assert buckets[0] == omega
    assert buckets[-2] == FockVector.vacuum(1, coeff=F(1, 16))

    hv = single(1, False, [(1, -1)])
    assert apply_delta(hv, table) == {0: hv}


def test_bucket_weights():
    table = delta_coefficients(8)
    J = (single(1, False, [(1, -1)] * 4)
         + single(1, False, [(1, -3), (1, -1)], -2)
         + single(1, False, [(1, -2), (1, -2)], F(3, 2)))
    for shift, vec in apply_delta(J, table).items():
        if vec:
            assert vec.weight() == 4 + shift


def test_twisted_scalars():
    table = delta_coefficients(8)
    for ell in (1, 2, 3):
        vac = FockVector.vacuum(ell, twisted=True)
        omega = FockVector.zero(ell)
        for a in range(1, ell + 1):
            omega = omega + single(ell, False, [(a, -1), (a, -1)], F(1, 2))
        out = twisted_zero_mode(omega, vac, table)
        assert out == FockVector.vacuum(ell, twisted=True, coeff=F(ell, 16))
    J = (single(1, False, [(1, -1)] * 4)
         + single(1, False, [(1, -3), (1, -1)], -2)
         + single(1, False, [(1, -2), (1, -2)], F(3, 2)))
    out = twisted_zero_mode(J, FockVector.vacuum(1, twisted=True), table)
    assert out == FockVector.vacuum(1, twisted=True, coeff=F(3, 128))


def test_twisted_grading_preserved():
    table = delta_coefficients(8)
    omega = single(2, False, [(1, -1), (1, -1)], F(1, 2))
    tgt = single(2, True, [(1, F(-3, 2)), (2, F(-1, 2))])
    out = twisted_zero_mode(omega, tgt, table)
    assert out and out.weight() == tgt.weight()


def test_odd_parity_rejected():
    table = delta_coefficients(4)
    odd = single(1, False, [(1, -1)])
    with pytest.raises(ValueError):
        twisted_zero_mode(odd, FockVector.vacuum(1, twisted=True), table)


def test_matrix_action_on_twisted_top_level():
    table = delta_coefficients(8)
    S12 = single(2, False, [(1, -1), (2, -2)])
    t1 = single(2, True, [(1, F(-1, 2))])
    t2 = single(2, True, [(2, F(-1, 2))])
    assert twisted_zero_mode(S12, t1, table) == F(-1, 4) * t2
    assert twisted_zero_mode(S12, t2, table) == F(-3, 4) * t1


def test_shared_table_cache():
    # Without a table, the zero mode uses the shared cache.
    S12 = single(2, False, [(1, -1), (2, -2)])
    t1 = single(2, True, [(1, F(-1, 2))])
    assert twisted_zero_mode(S12, t1) == twisted_zero_mode(
        S12, t1, delta_coefficients(8))
    # The cache only grows: a smaller request returns the larger table.
    big = delta_table(12)
    assert big.max_degree >= 12
    assert delta_table(3) is big
    assert delta_table(12) is big

"""Products, named generators, and the circle-span engine."""

import hashlib
import os
import random
from fractions import Fraction
from itertools import chain, product
from math import gcd

import pytest

from mode_oracle import (WholeWindow, even_sectors, fraction_rank,
                         fraction_reduce, reference_product, virasoro)
from orbifock import vertex, zhu
from orbifock.coeffs import clear_denominators
from orbifock.fock import FockVector, basis, count_sector, mono_weight, single
from orbifock.zhu import (GeneratorPolicy, OSpanEchelon, build_ospan, circ_n,
                          e_t, e_t_bar, e_u, e_u_bar, exact_rank, hgen, jgen, lam,
                          omega, s_pair, star)
from orbifock.runner import RunConfig
from orbifock.script import parse_expr, realize
from orbifock.suites import run_suite
from orbifock.toplevel import FAMILIES, first_nonzero

F = Fraction


@pytest.fixture(scope="module")
def echelon1():
    return build_ospan(1, 6, sector=0)


def test_star_identity_element():
    one = FockVector.vacuum(1)
    v = single(1, [(1, -2), (1, -2)])
    assert star(one, v) == v
    assert star(v, one) == v


def test_star_of_conformal_vector_is_virasoro_sum():
    w1 = omega(2, 1)
    for w in (0, 1, 2, 3):
        for m in basis(2, w, "even"):
            u = FockVector.from_monomial(2, m)
            want = (virasoro(1, -2, u) + 2 * virasoro(1, -1, u)
                    + virasoro(1, 0, u))
            assert star(w1, u) == want


def test_star_of_disjoint_quadratics_is_juxtaposition():
    got = star(s_pair(4, 1, 1, 2, 1), s_pair(4, 3, 1, 4, 1))
    assert got == single(4, [(1, -1), (2, -1), (3, -1), (4, -1)])


def test_star_and_circ_against_naive_oracle():
    # Rank 1, weight <= 4 on both sides.
    states = []
    for w in (0, 2, 3, 4):
        states += [FockVector.from_monomial(1, m)
                   for m in basis(1, w, "even")]
    for u in states:
        for v in states:
            assert star(u, v) == reference_product(u, v, 1)
            assert circ_n(u, v, 0) == reference_product(u, v, 2)
            assert circ_n(u, v, 1) == reference_product(u, v, 3)


# The 13 rank-2 generators of the benchmark's circle sample.
BENCHMARK_GENERATORS = [
    FockVector.vacuum(2), omega(2, 1), omega(2, 2), jgen(2, 1), jgen(2, 2),
    hgen(2, 1), hgen(2, 2), s_pair(2, 1, 1, 2, 1), e_u(2, 1, 2), e_u(2, 2, 1),
    e_t(2, 1, 2), e_t(2, 2, 1), lam(2, 1, 2)]


def test_products_match_recursion_on_benchmark_generators():
    # circ_3 reaches the vacuum target at j = 4 - i, so j >= 2 is covered.
    for u in BENCHMARK_GENERATORS:
        for v in BENCHMARK_GENERATORS:
            assert star(u, v) == reference_product(u, v, 1), (u, v)
            for n in range(4):
                assert circ_n(u, v, n) == reference_product(u, v, n + 2), (u, v, n)


@pytest.mark.parametrize("ell, window, pairs", [(2, 10, "all"), (3, 8, "quadratic")],
                         ids=["r2w10-all", "r3w8-quadratic"])
def test_build_circles_match_recursion(ell, window, pairs):
    policy = GeneratorPolicy(pairs)
    for s in even_sectors(ell):
        for _, u, v in zhu._iter_circle_pairs(ell, window, policy, sector=s):
            assert circ_n(u, v) == reference_product(u, v, 2), (u, v)


def test_vacuum_circles_are_translations():
    # circ_0(m, |0>) = L(-1)m + wt(m) m and star(m, |0>) = m.
    one = FockVector.vacuum(2)
    for w in (2, 3, 4):
        for m in basis(2, w, "even"):
            u = FockVector.from_monomial(2, m)
            assert star(u, one) == u
            assert circ_n(u, one) == virasoro(1, -1, u) + virasoro(2, -1, u) + w * u


def test_build_walks_contract_at_most_two_factors(monkeypatch):
    # Every seed circle has the vacuum on the right or a two-factor left
    # factor, under every policy and at every rank, so no walk of a build
    # contracts a longer monomial; a script product of one still does.
    longer = []
    contractions = vertex._contractions

    def spy(mono, tmono):
        if len(mono) > 2 and tmono:
            longer.append((mono, tmono))
        return contractions(mono, tmono)

    monkeypatch.setattr(vertex, "_contractions", spy)
    for ell, window, pairs in [(2, 8, "all"), (1, 12, "all"),
                               (3, 8, "quadratic"), (2, 10, "omega")]:
        assert WholeWindow(ell, window, GeneratorPolicy(pairs)).rows
    assert longer == []
    assert star(jgen(2, 1), omega(2, 1)) == reference_product(jgen(2, 1), omega(2, 1), 1)
    assert longer


def test_circ_examples_and_guards():
    w1 = omega(1, 1)
    one = FockVector.vacuum(1)
    assert circ_n(w1, one, 0) == (single(1, [(1, -2), (1, -1)])
                                  + single(1, [(1, -1), (1, -1)]))
    for u in (w1, jgen(1, 1)):
        got = circ_n(w1, u, 1)
        want = (virasoro(1, -4, u) + 2 * virasoro(1, -3, u)
                + virasoro(1, -2, u))
        assert got == want
    with pytest.raises(ValueError):
        circ_n(w1, one, -1)
    with pytest.raises(ValueError):
        star(single(1, [(1, -1)]), one)


def test_parity_and_top_weight_laws():
    gens = [omega(2, 1), s_pair(2, 1, 1, 2, 1), jgen(2, 2), e_u(2, 1, 2),
            hgen(2, 1)]
    for u in gens:
        for v in gens:
            p = star(u, v)
            assert p.is_even()
            # The top part of star(u, v) is the product of the top parts, so
            # script.realize can refuse a whole power before computing it.
            assert p.max_weight() == u.max_weight() + v.max_weight()
            for n in (0, 1):
                c = circ_n(u, v, n)
                assert c.is_even()
                assert c.max_weight() <= (u.max_weight() + v.max_weight()
                                          + n + 1)


def test_generator_formulas():
    lam12 = lam(2, 1, 2)
    want = (45 * s_pair(2, 1, 1, 2, 2) + 190 * s_pair(2, 1, 1, 2, 3)
            + 240 * s_pair(2, 1, 1, 2, 4) + 96 * s_pair(2, 1, 1, 2, 5))
    assert lam12 == want
    assert jgen(1, 1) == (single(1, [(1, -1)] * 4)
                          + single(1, [(1, -3), (1, -1)], -2)
                          + single(1, [(1, -2), (1, -2)], F(3, 2)))
    for rank in (1, 2, 3):
        for a in range(1, rank + 1):
            w = omega(rank, a)
            assert hgen(rank, a) == jgen(rank, a) + w - 4 * star(w, w)
    assert realize(parse_expr("w1^0", 1), 1) == FockVector.vacuum(1)
    with pytest.raises(ValueError):
        e_u(2, 1, 1)
    with pytest.raises(ValueError):
        lam(2, 3, 1)


def test_echelon_contains_shift_row(echelon1):
    row = single(1, [(1, -2), (1, -1)]) + single(1, [(1, -1), (1, -1)])
    assert echelon1.reduce(row).is_zero()


def test_translation_rows_reduce_to_zero(echelon1):
    one = FockVector.vacuum(1)
    for w in (2, 3):
        for m in basis(1, w, "even"):
            u = FockVector.from_monomial(1, m)
            assert echelon1.reduce(circ_n(u, one, 0)).is_zero()


def test_conformal_vector_survives_reduction(echelon1):
    w1 = omega(1, 1)
    assert echelon1.reduce(w1) == w1
    assert not echelon1.reduce(w1 - FockVector.zero(1)).is_zero()


def test_reduce_weight_guard(echelon1):
    heavy = single(1, [(1, -5)] * 2)
    with pytest.raises(ValueError):
        echelon1.reduce(heavy)
    with pytest.raises(ValueError):
        echelon1.reduce(single(1, [(1, -1)]))


def test_window_guards():
    with pytest.raises(ValueError, match="window must be nonnegative"):
        build_ospan(1, -1, sector=0)
    small = OSpanEchelon(1, 4, GeneratorPolicy(), sector=0)
    with pytest.raises(ValueError, match="leaves the columns of sector 0 at "
                                         "window 4"):
        small.insert(small.row(single(1, [(1, -3)] * 2)))
    assert not small.rows


def test_oversized_echelon_refused_before_listing(monkeypatch):
    # Sector {} is the largest: at the default verify --rank 8 (window 10)
    # it fits, and at window 16 it would list 1,231,628 columns, and 669,006
    # at rank 7.  A window above the cap is refused at any rank, whoever
    # asks for it.
    def listed(*args):
        raise AssertionError("columns listed")

    assert count_sector(8, 10, 0) == 13643 <= zhu.MAX_COLUMNS
    monkeypatch.setattr(zhu, "basis", listed)
    with pytest.raises(ResourceWarning, match="1231628 columns"):
        OSpanEchelon(8, 16, GeneratorPolicy(), sector=0)
    with pytest.raises(ResourceWarning):
        OSpanEchelon(7, 16, GeneratorPolicy(), sector=0)
    with pytest.raises(ResourceWarning, match="echelon window 17 exceeds "
                                              "the weight cap 16"):
        build_ospan(1, zhu.MAX_WEIGHT_CAP + 1, sector=0)


def test_sector_echelon_columns_counted_before_listing(monkeypatch):
    # A sector's echelon counts, then lists, only that sector's columns: the
    # rank-8 window-10 echelon of h1 h2's sector has 5,958 of the window's
    # 340,512, and at window 16 its 728,958 are still refused unlisted.
    policy = GeneratorPolicy()
    assert len(OSpanEchelon(4, 8, policy, sector=0b1111).columns) == 144
    assert len(OSpanEchelon(2, 10, policy, sector=0b11).columns) == 296
    e = OSpanEchelon(8, 10, policy, sector=0b11)
    assert len(e.columns) == 5958
    assert all(zhu.sector(m) == 0b11 for m in e.columns)

    def listed(*args):
        raise AssertionError("columns listed")

    monkeypatch.setattr(zhu, "basis", listed)
    with pytest.raises(ResourceWarning, match="728958 columns"):
        OSpanEchelon(8, 16, policy, sector=0b11)


def test_sector_guards():
    policy = GeneratorPolicy()
    for bad in (0b1, 0b100, -1):  # odd, beyond rank 2, not a sector
        with pytest.raises(ValueError, match="holds no even monomial"):
            OSpanEchelon(2, 4, policy, sector=bad)
    e = build_ospan(2, 4, sector=0b11)
    assert e.reduce(s_pair(2, 1, 1, 2, 1)) == s_pair(2, 1, 1, 2, 1)
    with pytest.raises(ValueError, match="leaves the columns of sector 3 at "
                                         "window 4"):
        e.reduce(omega(2, 1))
    with pytest.raises(ValueError, match="leaves the columns of sector 3 at "
                                         "window 4"):
        e.insert(e.row(omega(2, 1)))


@pytest.mark.parametrize("bad", [
    single(2, [(1, -1)]),              # odd
    single(2, [(1, -3), (1, -2)]),     # weight 5, above the window
    s_pair(2, 1, 1, 2, 1)],            # sector {1,2}
    ids=["odd", "too-heavy", "other-sector"])
def test_row_guards(bad):
    # Every way a vector meets the columns refuses a monomial that is not a
    # column, naming the sector and the window, and changes no row.
    e = build_ospan(2, 4, sector=0)
    rows = {p: dict(row) for p, row in e.rows.items()}
    for meet in (e.row, lambda vec: e.insert(e.row(vec)), e.reduce):
        with pytest.raises(ValueError, match="leaves the columns of sector 0 "
                                             "at window 4"):
            meet(bad + omega(2, 1))
        assert e.rows == rows


def _monomial_rows(e):
    """The echelon's rows keyed and indexed by monomials, not columns."""
    return {e.columns[p]: {e.columns[c]: v for c, v in row.items()}
            for p, row in e.rows.items()}


@pytest.mark.parametrize("ell, window, pairs", [
    (1, 12, "all"), (2, 10, "all"), (2, 10, "omega"), (3, 8, "quadratic"),
    (4, 8, "quadratic")], ids=["r1w12-all", "r2w10-all", "r2w10-omega",
                               "r3w8-quadratic", "r4w8-quadratic"])
def test_sector_echelons_are_the_full_echelon(ell, window, pairs):
    # The fully reduced echelon of a direct sum over disjoint column sets is
    # the union of the blocks' echelons, row for row.  The reference
    # eliminates the same circles over the whole even window.
    policy = GeneratorPolicy(pairs)
    columns = [m for w in range(window + 1) for m in basis(ell, w, "even")]
    col_index = {m: i for i, m in enumerate(columns)}
    union, rows, holders = {}, {}, {}
    for s in even_sectors(ell):
        e = build_ospan(ell, window, policy, sector=s)
        assert e.sector == s and all(zhu.sector(m) == s for m in e.columns)
        union.update(_monomial_rows(e))
        for _, u, v in zhu._iter_circle_pairs(ell, window, policy, sector=s):
            terms = clear_denominators(circ_n(u, v).terms)[1]
            row = zhu._eliminate(rows, {col_index[m]: c for m, c in terms.items()})[1]
            if row:
                zhu._insert_row(rows, holders, row)
    assert union == {columns[p]: {columns[c]: v for c, v in row.items()}
                     for p, row in rows.items()}


def test_products_stay_in_the_xor_sector():
    rng = random.Random(30)
    monos = [FockVector.from_monomial(4, m)
             for w in range(0, 5) for m in basis(4, w, "even")]
    nonzero = 0
    for _ in range(150):
        u, v = rng.choice(monos), rng.choice(monos)
        (su,), (sv,) = ({zhu.sector(m) for m in x.terms} for x in (u, v))
        for got in (star(u, v), circ_n(u, v, rng.randrange(3))):
            assert {zhu.sector(m) for m in got.terms} <= {su ^ sv}
            nonzero += bool(got)
    assert nonzero > 200


def test_reduce_then_count_consistency():
    # The truncated quotient dimensions agree between two windows.
    e_a = build_ospan(1, 6, sector=0)
    e_b = build_ospan(1, 7, sector=0)
    dims_a = sum(1 for w in (0, 2, 3, 4)
                 for m in basis(1, w, "even")
                 if not e_a.reduce(FockVector.from_monomial(1, m)).is_zero())
    dims_b = sum(1 for w in (0, 2, 3, 4)
                 for m in basis(1, w, "even")
                 if not e_b.reduce(FockVector.from_monomial(1, m)).is_zero())
    assert dims_a == dims_b


def test_equivalence_by_reduction_examples():
    e = WholeWindow(2, 8)
    S = s_pair(2, 1, 1, 2, 1)
    lhs = star(S, omega(2, 1))
    rhs = virasoro(1, -2, S) + virasoro(1, -1, S)
    assert e.reduce(lhs - rhs).is_zero()
    lhs = star(omega(2, 1), S) - star(S, omega(2, 1))
    rhs = virasoro(1, -1, S) + virasoro(1, 0, S)
    assert e.reduce(lhs - rhs).is_zero()


def test_policy_validation_and_keys():
    with pytest.raises(ValueError):
        GeneratorPolicy(pairs="bogus")
    assert GeneratorPolicy().key() != GeneratorPolicy(pairs="omega").key()


# The full enumeration build_ospan once ran for the "all" policy: circ_n(u, v)
# over every ordered pair of even monomials and every n whose full circle
# fits.  It is kept here as the oracle for the generator-family spans.
def all_pairs_circles(ell, window):
    monos = [FockVector.from_monomial(ell, m)
             for w in range(window + 1)
             for m in basis(ell, w, "even")]
    for u in monos[1:]:  # u = |0> gives only zero circles
        for v in monos:
            for n in range(window - u.max_weight() - v.max_weight()):
                yield circ_n(u, v, n)


def omega_two_order_circles(ell, window):
    """The vacuum circles and circ_n(w_a, v), circ_n(v, w_a) in both orders."""
    monos = [FockVector.from_monomial(ell, m)
             for w in range(1, window + 1)
             for m in basis(ell, w, "even")]
    one = FockVector.vacuum(ell)
    for u in monos:
        for n in range(window - u.max_weight()):
            yield circ_n(u, one, n)
    for a in range(1, ell + 1):
        om = omega(ell, a)
        for v in monos:
            for n in range(window - v.max_weight() - 2):
                yield circ_n(om, v, n)
                yield circ_n(v, om, n)


def echelon_of(ell, window, circles):
    e = WholeWindow(ell, window, build=False)
    for vec in circles:
        if not vec.is_zero():
            e.insert(vec)
    return e


def canonical_rows(e):
    """Fully reduced rows: zero in every other pivot column, primitive, with
    a positive pivot.  They depend only on the span, not on the order of
    enumeration."""
    canon = {}
    for p in sorted(e.rows):
        row = {c: F(v, e.rows[p][p]) for c, v in e.rows[p].items()}
        for q in [c for c in row if c != p and c in canon]:
            f = row[q]
            for c, v in canon[q].items():
                s = row.get(c, 0) - f * v
                if s:
                    row[c] = s
                else:
                    del row[c]
        canon[p] = row
    out = {}
    for p, row in canon.items():
        den = 1
        for v in row.values():
            den = den * v.denominator // gcd(den, v.denominator)
        g = 0
        for v in row.values():
            g = gcd(g, int(v * den))
        out[p] = {c: int(v * den) // g for c, v in row.items()}
    return out


def canonical_digest(e):
    rows = canonical_rows(e)
    text = "".join(" ".join(f"{c}:{rows[p][c]}" for c in sorted(rows[p])) + "\n"
                   for p in sorted(rows))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("ell, window", [(1, 8), (1, 10), (1, 12), (2, 6), (2, 8),
                                         (3, 6), (4, 5)])
def test_generator_family_spans_all_pairs(ell, window):
    got = WholeWindow(ell, window)
    want = echelon_of(ell, window, all_pairs_circles(ell, window))
    assert canonical_rows(got) == canonical_rows(want)


@pytest.mark.parametrize("ell, window", [(1, 10), (2, 8)])
def test_omega_span_matches_both_orders(ell, window):
    got = WholeWindow(ell, window, GeneratorPolicy("omega"))
    want = echelon_of(ell, window, omega_two_order_circles(ell, window))
    assert canonical_rows(got) == canonical_rows(want)


# The enumeration build_ospan ran before it seeded circ_0 alone: each
# policy's circles circ_n over every n whose full circle fits, with J_a a
# left factor of "all" at every rank.  It is the oracle for the n = 0 seeds.
def all_n_generator_circles(ell, window, pairs):
    monos = [FockVector.from_monomial(ell, m)
             for w in range(1, window + 1)
             for m in basis(ell, w, "even")]
    if pairs == "quadratic":
        left = right = [v for v in monos if all(len(m) == 2 for m in v.terms)]
    else:
        gens = range(1, ell + 1)
        left = [omega(ell, a) for a in gens]
        if pairs == "all":
            left += [s_pair(ell, a, 1, b, 1) for a in gens for b in gens if a < b]
            left += [jgen(ell, a) for a in gens]
        right = monos
    one = FockVector.vacuum(ell)
    for u, v in chain(((m, one) for m in monos), product(left, right)):
        for n in range(window - u.max_weight() - v.max_weight()):
            yield circ_n(u, v, n)


def test_two_mode_seeds_span_the_singlet_seeds_at_rank_1():
    # The J_1-seeded circles that "all" once built at rank 1 span the same
    # rows as its two-mode seeds.
    for window in range(13):
        want = echelon_of(1, window, all_n_generator_circles(1, window, "all"))
        assert WholeWindow(1, window).rows == want.rows, window


@pytest.mark.parametrize("window, kept", [(10, (61, 60)), (12, (127, 125))],
                         ids=["w10", "w12"])
def test_rank_1_seed_beyond_omega(window, kept):
    # At rank 1 "all" is "omega" plus the seed h_1(-2)^2, which keeps one
    # more row than the conformal vector alone at window 10 and two more at
    # window 12.
    assert tuple(len(WholeWindow(1, window, GeneratorPolicy(pairs)).rows)
                 for pairs in ("all", "omega")) == kept


# The six echelons `orbifock suite all` builds: (rank, window, policy).
SUITE_ECHELONS = [(1, 10, "all"), (1, 12, "all"), (2, 10, "all"),
                  (2, 10, "omega"), (3, 8, "quadratic"), (4, 8, "quadratic")]


@pytest.mark.parametrize("ell, window, pairs", SUITE_ECHELONS,
                         ids=[f"r{r}w{w}-{p}" for r, w, p in SUITE_ECHELONS])
def test_circ0_seeds_span_all_n(ell, window, pairs):
    # The shipped rows lie in the all-n span and have its rank, so the two
    # spans are equal.
    got = WholeWindow(ell, window, GeneratorPolicy(pairs))
    want = echelon_of(ell, window, all_n_generator_circles(ell, window, pairs))
    assert len(got.rows) == len(want.rows)
    for row in got.rows.values():
        vec = FockVector(ell, {got.columns[c]: v for c, v in row.items()})
        assert want.reduce(vec).is_zero()


@pytest.mark.parametrize("ell, window, pairs", SUITE_ECHELONS,
                         ids=[f"r{r}w{w}-{p}" for r, w, p in SUITE_ECHELONS])
def test_rows_are_fully_reduced(ell, window, pairs):
    e = WholeWindow(ell, window, GeneratorPolicy(pairs))
    assert e.rows == canonical_rows(e)


def test_rows_do_not_depend_on_insertion_order():
    circles = [circ_n(u, v) for s in even_sectors(2) for _, u, v in
               zhu._iter_circle_pairs(2, 8, GeneratorPolicy(), sector=s)]
    want = WholeWindow(2, 8).rows
    for seed in (1, 2, 3):
        shuffled = list(circles)
        random.Random(seed).shuffle(shuffled)
        assert shuffled != circles
        assert echelon_of(2, 8, shuffled).rows == want


def reference_left_factors(ell, window, pairs):
    """The left factors of a policy as monomials, written out."""
    if pairs == "quadratic":
        return [m for w in range(1, window) for m in basis(ell, w, "even")
                if len(m) == 2]
    gens = range(1, ell + 1)
    left = [((a, -1), (b, -1)) for a in gens for b in gens
            if a == b or (a < b and pairs == "all")]
    if pairs == "all":
        left += [((a, -2), (a, -2)) for a in gens]
    return left


def reference_seed_pairs(ell, window, pairs, s):
    """The monomial pairs (u, v) of the seeds circ_0(u, v) in sector s,
    written out: the vacuum circles of weights 1..window-1, then every
    left x right pair of top weight wt u + wt v + 1 <= window."""
    monos = [m for w in range(1, window) for m in basis(ell, w, "even")]
    left = reference_left_factors(ell, window, pairs)
    right = left if pairs == "quadratic" else monos
    want = [(m, ()) for m in monos if zhu.sector(m) == s]
    want += [(u, v) for u in left for v in right
             if zhu.sector(u) ^ zhu.sector(v) == s
             and mono_weight(u) + mono_weight(v) < window]
    return want


@pytest.mark.parametrize("ell, window, pairs",
                         [(2, 10, "all"), (2, 10, "omega"), (3, 8, "quadratic")],
                         ids=["r2w10-all", "r2w10-omega", "r3w8-quadratic"])
def test_circle_pairs_come_in_top_weight_order(ell, window, pairs):
    for s in even_sectors(ell):
        got, tops = [], []
        for top, u, v in zhu._iter_circle_pairs(ell, window,
                                                GeneratorPolicy(pairs), sector=s):
            (mu, cu), = u.terms.items()
            (mv, cv), = v.terms.items()
            assert type(cu) is int and type(cv) is int, (u, v)
            assert cu == cv == 1, (u, v)
            assert top == mono_weight(mu) + mono_weight(mv) + 1, (u, v)
            got.append((mu, mv))
            tops.append(top)
        assert tops == sorted(tops), s
        assert sorted(got) == sorted(reference_seed_pairs(ell, window, pairs, s))


def test_build_inserts_each_top_weight_in_pivot_order(monkeypatch):
    calls = []
    real = OSpanEchelon.insert

    def spy(self, row):
        top = max(row)
        calls.append((self.columns[top], top))
        return real(self, row)

    monkeypatch.setattr(OSpanEchelon, "insert", spy)
    e = build_ospan(2, 10, sector=0b11)
    nonzero = [c for c in (circ_n(u, v) for _, u, v in zhu._iter_circle_pairs(
        2, 10, GeneratorPolicy(), sector=0b11)) if c]
    assert len(calls) == len(nonzero) > len(e.rows)
    # Columns run in weight order, so sorted pivots say: top weights in
    # ascending order, and within one top weight ascending pivot columns.
    by_weight = {}
    for mono, col in calls:
        by_weight.setdefault(mono_weight(mono), []).append(col)
    assert list(by_weight) == sorted(by_weight)
    for w, cols in by_weight.items():
        assert cols == sorted(cols), w


def test_build_seeds_circ0_without_singlets_above_rank_1(monkeypatch):
    calls = []
    real = zhu.circ_n

    def spy(u, v, n=0, **kwargs):
        calls.append((u, n))
        return real(u, v, n, **kwargs)

    monkeypatch.setattr(zhu, "circ_n", spy)
    WholeWindow(2, 8)
    singlets = [jgen(2, a) for a in (1, 2)]
    assert calls
    assert all(n == 0 for _, n in calls)
    assert not any(u in singlets for u, _ in calls)


def test_policies_nest_in_all():
    full = WholeWindow(3, 6)
    for pairs in ("omega", "quadratic"):
        e = WholeWindow(3, 6, GeneratorPolicy(pairs))
        for row in e.rows.values():
            vec = FockVector(3, {e.columns[c]: v for c, v in row.items()})
            assert full.reduce(vec).is_zero()


# SHA-256 of the canonical rows and the number of kept circles.  The digests
# were taken from the rows of the full pair enumeration, before build_ospan
# switched to the generator families, so they pin the span itself.
ECHELON_GOLDENS = [
    ((1, 8), "all",
     "9022655c342366f1707ddc4dcdf555365f353d914c42687f7b847d1e0b7aac0d", 26),
    ((2, 6), "omega",
     "d8ac2981c59879872c68c7442421bb58db96a144c9b5c2b5def655d8de2fbce6", 45),
    ((3, 5), "quadratic",
     "ec7941fb015603c0797d980d7369c271be7c8b3c4d7d0ed6bf5bfdf36830db2a", 60),
]


@pytest.mark.parametrize("args, pairs, digest, kept", ECHELON_GOLDENS,
                         ids=["r1w8-all", "r2w6-omega", "r3w5-quadratic"])
def test_echelon_golden(args, pairs, digest, kept):
    e = WholeWindow(*args, GeneratorPolicy(pairs))
    assert canonical_digest(e) == digest
    assert len(e.rows) == kept
    for sector_echelon in e.echelons.values():
        assert_rows_read_zero(sector_echelon)


def assert_rows_read_zero(e):
    """Zhu's theorem as an audit: every row of echelon ``e`` is a circle
    combination, so it acts as zero on every top level.  The readings share
    only ``vertex.d_coeff`` with the Wick walk that made the circles."""
    for p, row in e.rows.items():
        vec = FockVector.from_integer(e.ell, 1, {e.columns[c]: v
                                                 for c, v in row.items()})
        assert first_nonzero(vec, FAMILIES) is None, (e.sector, e.columns[p])


def test_suite_echelon_rows_read_zero(monkeypatch):
    # Every echelon one suite run builds or grows; a grown one's base is
    # left empty, so each row is read once.
    made = []
    real = zhu.build_ospan

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(zhu, "build_ospan", spy)
    assert run_suite("all", RunConfig(rank=2)).passed()
    held = [e for e in made if e.rows]
    assert (len(held), sum(len(e.rows) for e in held)) == (6, 703)
    for e in held:
        assert_rows_read_zero(e)


# (rank, base window, grown window, policy, sector): growth by the slack of
# the suites' certificate blocks, at the sectors their differences reach.
GROWTHS = [(2, 8, 10, "all", 0b11), (1, 10, 12, "all", 0),
           (3, 7, 8, "quadratic", 0), (3, 7, 8, "quadratic", 0b110)]


@pytest.mark.parametrize("ell, small, window, pairs, s", GROWTHS,
                         ids=["r2-8to10-all-12", "r1-10to12-all",
                              "r3-7to8-quadratic", "r3-7to8-quadratic-23"])
def test_grown_echelon_matches_fresh_build(ell, small, window, pairs, s,
                                           monkeypatch):
    policy = GeneratorPolicy(pairs)
    fresh = build_ospan(ell, window, policy, sector=s)
    base = build_ospan(ell, small, policy, sector=s)
    tops = []
    real = zhu.circ_n

    def spy(u, v, n=0):
        tops.append(u.max_weight() + v.max_weight() + 1)
        return real(u, v, n)

    monkeypatch.setattr(zhu, "circ_n", spy)
    grown = build_ospan(ell, window, policy, sector=s, base=base)
    assert grown.to_text() == fresh.to_text()
    assert grown.columns == fresh.columns
    # Only the circles above the base's window are made, and the base's
    # rows moved over.
    assert tops and min(tops) == small + 1 and max(tops) == window
    assert base.rows == {}


def test_circle_pairs_start_at_a_top_weight():
    def top(pair):
        _, u, v = pair
        return u.max_weight() + v.max_weight() + 1

    # The growth of the rank-2 {1,2} block, then the quadratic growth the
    # suites make, in every even sector.
    for ell, window, pairs, sectors, start in [
            (2, 10, "all", [0b11], 9),
            (3, 8, "quadratic", even_sectors(3), 6)]:
        policy = GeneratorPolicy(pairs)
        for s in sectors:
            every = list(zhu._iter_circle_pairs(ell, window, policy, sector=s))
            later = list(zhu._iter_circle_pairs(ell, window, policy, sector=s,
                                                start=start))
            assert later == [p for p in every if top(p) >= start], (pairs, s)
            assert {top(p) for p in later} == set(range(start, window + 1))


@pytest.mark.parametrize("ell, window, pairs, s, start",
                         [(3, 8, "all", 0, 2), (2, 10, "omega", 0, 2),
                          (3, 8, "quadratic", 0, 2), (2, 10, "all", 0b11, 9)],
                         ids=["r3w8-all", "r2w10-omega", "r3w8-quadratic",
                              "r2w10-all-12-from9"])
def test_circle_pairs_list_only_what_circles_use(ell, window, pairs, s, start,
                                                 monkeypatch):
    # A (sector, weight) is usable when some circle of top weight start to
    # window takes its monomials: as vacuum circles in the own sector, or
    # as right factors of a left factor u, in sector s XOR sector(u) and of
    # weight at least 1.
    policy = GeneratorPolicy(pairs)
    usable = {(s, w) for w in range(start - 1, window)}
    usable |= {(s ^ zhu.sector(u), w)
               for u in reference_left_factors(ell, window, pairs)
               for w in range(max(1, start - 1 - mono_weight(u)),
                              window - mono_weight(u))}
    asked = []
    real = zhu.basis

    def spy(ell, weight, parity="all", sector=None):
        asked.append((sector, weight))
        return real(ell, weight, parity, sector)

    monkeypatch.setattr(zhu, "basis", spy)
    got = list(zhu._iter_circle_pairs(ell, window, policy, sector=s,
                                      start=start))
    assert got and asked
    assert len(asked) == len(set(asked)), asked
    assert set(asked) <= usable, sorted(set(asked) - usable)


def test_base_must_be_a_smaller_window_of_the_same_echelon():
    base = build_ospan(2, 6, sector=0b11)
    for args, kwargs in [((2, 6), {"sector": 0b11}),
                         ((2, 5), {"sector": 0b11}),
                         ((2, 8), {"sector": 0}),
                         ((2, 8, GeneratorPolicy("omega")), {"sector": 0b11})]:
        with pytest.raises(ValueError, match="base echelon"):
            build_ospan(*args, **kwargs, base=base)
    assert build_ospan(2, 8, sector=0b11, base=base).window == 8


def test_growth_reads_and_writes_the_larger_window_file(tmp_path):
    cache = str(tmp_path)
    # A miss grows the base and writes the grown echelon's file.
    base = build_ospan(1, 10, cache_dir=cache, sector=0)
    grown = build_ospan(1, 12, cache_dir=cache, sector=0, base=base)
    assert not grown.cache_hit and base.rows == {}
    assert len(os.listdir(tmp_path)) == 2
    # A hit reads that file and leaves the base as it was.
    base = build_ospan(1, 10, cache_dir=cache, sector=0)
    rows = dict(base.rows)
    read = build_ospan(1, 12, cache_dir=cache, sector=0, base=base)
    assert read.cache_hit and read is not base
    assert read.to_text() == grown.to_text()
    assert base.rows == rows


def test_cutoff_first_span_answers_as_the_window():
    # Circles and monomials of weight at most 8, and sums of them, at rank
    # 1 and, sampled, at rank 2 in its sectors {} and {1,2}: a fresh span
    # says at window 10 what one span shared by every vector says.  It
    # holds each sector at its part's weight when that certifies the
    # vector, and grows the sector that ends the check to 10 when nothing
    # does.
    rng = random.Random(8)
    for rank, sample in ((1, None), (2, 24)):
        window = zhu.CircleSpan(rank)
        monos = [FockVector.from_monomial(rank, m)
                 for w in range(1, 8) for m in basis(rank, w, "even")]
        circles = [c for u in monos for v in monos
                   if u.max_weight() + v.max_weight() < 8
                   for c in [circ_n(u, v)] if c]
        if sample:
            monos = rng.sample(monos, sample)
            circles = rng.sample(circles, sample)
        vecs = circles + monos + [c + m for c, m in zip(circles, monos)]
        members = 0
        for vec in vecs:
            first = zhu.CircleSpan(rank)
            got = first.contains(vec, 10)
            assert got == window.contains(vec, 10)
            held = {s: e.window for s, e in first.echelons.items()}
            if got:
                assert held == {s: part.max_weight()
                                for s, part in first._parts(vec)}
            else:
                assert held[max(held)] == 10
            members += got
        assert members == len(circles)
        if rank == 2:
            assert {s for v in vecs for s, _ in window._parts(v)} == {0, 0b11}
        # reduce reads the window it is given, as the native checks expect.
        first = zhu.CircleSpan(rank)
        assert first.reduce(circles[0], 10).is_zero()
        assert {e.window for e in first.echelons.values()} == {10}


def test_span_never_answers_from_a_larger_window():
    # A larger window may certify more, so once the echelon is held at 12
    # a query that allows at most 10 is refused, and the echelon is kept.
    span = zhu.CircleSpan(1)
    v = omega(1, 1)
    assert span.reduce(v, 12) == v
    with pytest.raises(ValueError, match="held at window 12 > 10"):
        span.contains(v, 10)
    with pytest.raises(ValueError, match="held at window 12 > 10"):
        span.reduce(v, 10)
    assert span.echelons[0].window == 12
    assert not span.contains(v, 12)


def test_cache_key_needs_no_columns():
    # The module's cache_key counts the columns (count_sector) and hashes
    # the header that an echelon listing them writes.
    policy = zhu.DEFAULT_POLICY
    for ell in range(1, 5):
        for window in range(11):
            for s in even_sectors(ell):
                ech = OSpanEchelon(ell, window, policy, sector=s)
                header = ech.to_text().splitlines()[0]
                assert header.endswith(f" cols={len(ech.columns)}")
                digest = hashlib.sha256(header.encode()).hexdigest()[:24]
                assert zhu.cache_key(ell, window, policy, s) == digest


def test_span_reads_the_smallest_cached_window_it_allows(tmp_path,
                                                         monkeypatch):
    # A query that allows windows 5 to 10 reads the window-9 file rather
    # than build at 5, and never the window-12 file above what it allows.
    cache = str(tmp_path)
    for w in (9, 12):
        build_ospan(1, w, cache_dir=cache, sector=0)
    member = circ_n(omega(1, 1), omega(1, 1))
    assert member.max_weight() == 5
    reads = []
    real = zhu.build_ospan

    def spy(rank, window, *args, **kwargs):
        reads.append(window)
        return real(rank, window, *args, **kwargs)

    def no_circles(*args, **kwargs):
        raise AssertionError("a circle was made")

    monkeypatch.setattr(zhu, "build_ospan", spy)
    monkeypatch.setattr(zhu, "circ_n", no_circles)
    span = zhu.CircleSpan(1, cache_dir=cache)
    assert span.contains(member, 10)
    assert reads == [9] and span.echelons[0].cache_hit
    assert span.echelons[0].window == 9
    # With only the window-12 file, the span builds at the part's weight.
    monkeypatch.setattr(zhu, "circ_n", circ_n)
    key = zhu.cache_key(1, 9, zhu.DEFAULT_POLICY, 0)
    os.remove(os.path.join(cache, f"ospan-{key}.txt"))
    span = zhu.CircleSpan(1, cache_dir=cache)
    assert span.contains(member, 10)
    assert reads == [9, 5] and not span.echelons[0].cache_hit
    assert span.echelons[0].window == 5


def test_echelon_cache_round_trip(tmp_path):
    e1 = build_ospan(1, 6, cache_dir=str(tmp_path), sector=0)
    assert not e1.cache_hit
    e2 = build_ospan(1, 6, cache_dir=str(tmp_path), sector=0)
    assert e2.cache_hit
    assert e1.rows == e2.rows
    w1 = omega(1, 1)
    assert e1.reduce(w1) == e2.reduce(w1)
    assert not build_ospan(1, 7, cache_dir=str(tmp_path), sector=0).cache_hit


def test_interrupted_cache_write_leaves_no_file(tmp_path, monkeypatch):
    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(OSpanEchelon, "to_text", interrupted)
    with pytest.raises(KeyboardInterrupt):
        build_ospan(1, 6, cache_dir=str(tmp_path), sector=0)
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    assert not build_ospan(1, 6, cache_dir=str(tmp_path), sector=0).cache_hit
    assert build_ospan(1, 6, cache_dir=str(tmp_path), sector=0).cache_hit


def test_insert_after_load_matches_fresh_build(tmp_path):
    # Criterion 2's blanket of low-weight monomials, inserted into an echelon
    # read from a cache file, which has no column index until insert builds
    # one.  The fresh echelon keeps one index from its first circle on.
    policy = GeneratorPolicy("omega")
    WholeWindow(2, 10, policy, cache_dir=str(tmp_path))
    loaded = WholeWindow(2, 10, policy, cache_dir=str(tmp_path))
    assert all(e.cache_hit for e in loaded.echelons.values())
    blanket = [FockVector.from_monomial(2, m)
               for w in range(0, 7) for m in basis(2, w, "even")]
    assert len(blanket) == 71
    circles = [circ_n(u, v) for s in even_sectors(2) for _, u, v in
               zhu._iter_circle_pairs(2, 10, policy, sector=s)]
    fresh = echelon_of(2, 10, circles + blanket)
    for vec in blanket:
        loaded.insert(vec)
    assert loaded.rows == fresh.rows
    assert loaded.rows == canonical_rows(loaded)


# Corruptions of the rank-1 window-6 cache file, each of which load_rows
# must reject.  It has 15 columns; column 4 (h1(-2)^2) is a pivot, 0, 1, 9
# and 14 are not, and only 0 and 14 are in no row.  The first appended line
# would replace pivot 4 with a row reaching a weight-6 column through a
# negative index.  The last four lines are well formed but not fully
# reduced; "0:1 14:1" would still be accepted.
CORRUPTIONS = {
    "empty-file": lambda text: "",
    "format-v4": lambda text: text.replace("# ospan v5 ", "# ospan v4 ", 1),
    "appended-pivot-4": lambda text: text + "-3:5 4:1\n",
    "negative-column": lambda text: text + "-3:5 9:1\n",
    "column-past-end": lambda text: text + "1:1 15:1\n",
    "zero-entry": lambda text: text + "0:0 14:1\n",
    "duplicate-pivot": lambda text: text + "1:1 4:1\n",
    "negative-pivot": lambda text: text + "0:1 14:-1\n",
    "non-primitive": lambda text: text + "0:2 14:2\n",
    "entry-in-pivot-column": lambda text: text + "4:1 14:1\n",
    "pivot-column-held": lambda text: text + "1:1\n",
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_malformed_cache_file_is_rebuilt(tmp_path, corrupt):
    fresh = build_ospan(1, 6, cache_dir=str(tmp_path), sector=0)
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    path.write_text(corrupt(path.read_text()))
    again = build_ospan(1, 6, cache_dir=str(tmp_path), sector=0)
    assert not again.cache_hit
    assert again.rows == fresh.rows
    h2 = single(1, [(1, -2), (1, -2)])
    assert again.reduce(h2) == (3 * single(1, [(1, -1), (1, -1)])
                                - 2 * single(1, [(1, -3), (1, -1)]))
    assert build_ospan(1, 6, cache_dir=str(tmp_path), sector=0).cache_hit


# Keys of mixed shapes, as independence_rank's (family, entry) columns: a
# family name with an empty, a matrix or an exponent entry.
RANK_KEYS = ([("Hplus", ()), ("Tplus", ())]
             + [(fam, (i, j)) for fam in ("Hminus", "Tminus")
                for i in (1, 2) for j in (1, 2)]
             + [("Mlambda", e) for e in ((0, 0), (0, 2), (1, 1), (2, 0), (3, 1))])


def _random_rational(rng):
    return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 16, 35)))


def _random_rank_rows(rng):
    """Sparse rational rows with zero, repeated, scaled and dependent rows."""
    keys = rng.sample(RANK_KEYS, rng.randint(1, len(RANK_KEYS)))
    rows = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(dict(rng.choice(rows)))
        elif rows and kind < 0.3:
            f = rng.choice((F(-3, 7), 2, F(1, 16)))
            rows.append({k: f * v for k, v in rng.choice(rows).items()})
        elif len(rows) > 1 and kind < 0.5:
            a, b = rng.sample(rows, 2)
            fa, fb = _random_rational(rng), _random_rational(rng)
            rows.append({k: fa * a.get(k, 0) + fb * b.get(k, 0)
                         for k in set(a) | set(b)})
        elif kind < 0.6:
            rows.append(rng.choice(({}, {keys[0]: F(0)})))
        else:
            rows.append({k: rng.choice((_random_rational(rng), rng.randint(-5, 5), F(0)))
                         for k in rng.sample(keys, rng.randint(1, len(keys)))})
    return rows


def test_exact_rank_matches_fraction_rank():
    rng = random.Random(20261018)
    ranks = set()
    for _ in range(400):
        rows = _random_rank_rows(rng)
        cols = sorted({k for row in rows for k in row})
        dense = [[row.get(k, 0) for k in cols] for row in rows]
        want = fraction_rank(dense) if cols else 0
        got = exact_rank(rows)
        assert got == want, rows
        assert exact_rank(reversed(rows)) == want
        ranks.add((len(rows), got))
    # Both full-rank and rank-deficient stacks occur.
    assert any(n > r > 0 for n, r in ranks) and any(n == r > 1 for n, r in ranks)


def test_exact_rank_leaves_its_rows_alone():
    rows = [{1: 2, 2: 4}, {1: 1, 2: 3}, {2: 1}]
    copies = [dict(row) for row in rows]
    assert exact_rank(rows) == 2
    assert rows == copies


def test_reduce_matches_fraction_reference():
    e = WholeWindow(2, 8)
    rng = random.Random(9905064)
    for _ in range(200):
        vec = FockVector(2, {
            m: rng.choice((rng.randint(-6, 6), _random_rational(rng)))
            for m in rng.sample(e.columns, rng.randint(1, 12))})
        assert e.reduce(vec) == fraction_reduce(e, vec)
    assert e.reduce(FockVector.zero(2)).is_zero()
    # Criterion 2's blanket, plain and scaled, against both of its echelons.
    blanket = [FockVector.from_monomial(2, m)
               for w in range(0, 7) for m in basis(2, w, "even")]
    assert len(blanket) == 71
    for policy in (GeneratorPolicy(), GeneratorPolicy("omega")):
        e = WholeWindow(2, 10, policy)
        for vec in blanket:
            for v in (vec, F(-5, 12) * vec):
                assert e.reduce(v) == fraction_reduce(e, v)

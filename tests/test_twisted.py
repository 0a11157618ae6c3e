"""Twisted sector: correction table, the exp(Delta_z) expansion, corrected modes."""

import random
from fractions import Fraction

import pytest

import orbifock.twisted as twisted
from mode_oracle import (clear_twisted_caches, delta_terms, reference_delta,
                         reference_reading)
from orbifock.coeffs import LPoly
from orbifock.fock import FockVector, basis, make_monomial, mono_weight, single
from orbifock.script import parse_expr, realize
from orbifock.tables import GOLDEN
from orbifock.toplevel import Matrix, evaluate
from orbifock.twisted import apply_delta, delta_coefficients, twisted_zero_mode
from orbifock.zhu import MAX_WEIGHT_CAP, circ_n, hgen, jgen, omega

F = Fraction


def hand_series_coefficients(deg):
    """Series expansion of -log((sqrt(1+x)+sqrt(1+y))/2) to total degree deg.

    Composed from sqrt(1+t) = sum s_k t^k, with s_0 = 1 and
    s_k = s_(k-1) (3/2 - k) / k, and -log(1+u) = -u + u^2/2 - u^3/3 + ...,
    independently of the closed form the library uses.
    """
    sq = [F(1)]
    for k in range(1, deg + 1):
        sq.append(sq[-1] * (F(3, 2) - k) / k)
    assert sq[:5] == [F(1), F(1, 2), F(-1, 8), F(1, 16), F(-5, 128)]
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
    table = delta_coefficients(16)
    hand = hand_series_coefficients(16)
    expected = {(m, n): hand[m, n]
                for m in range(1, 16) for n in range(1, 17 - m)}
    assert len(expected) == 120
    assert table == expected
    assert table[1, 1] == F(1, 16)
    assert table[1, 3] == F(5, 256)
    assert table[2, 2] == F(9, 512)


def test_symmetry_up_to_degree_16():
    table = delta_coefficients(16)
    for (m, n), c in table.items():
        assert table[n, m] == c


def test_asymmetric_table_rejected():
    # No table is built below degree 2, the first with an entry.
    with pytest.raises(ValueError):
        delta_coefficients(1)


def test_apply_delta_examples():
    one = FockVector.vacuum(1)
    assert delta_terms(one) == {(): 1}

    omega = single(1, [(1, -1), (1, -1)], F(1, 2))
    assert delta_terms(omega) == {((1, -1), (1, -1)): F(1, 2), (): F(1, 16)}

    hv = single(1, [(1, -1)])
    assert delta_terms(hv) == {((1, -1),): 1}

    # h1(-1)^4 itself, of four factors, is cut.  Delta takes it to
    # 4 * 3 c_11 = 3/4 of h1(-1)^2, and Delta^2 / 2 to 3/4 * 2 c_11 / 2 of |0>.
    J = single(1, [(1, -1)] * 4)
    assert delta_terms(J) == {((1, -1), (1, -1)): F(3, 4), (): F(3, 64)}


def flat(buckets):
    """The operator form's buckets summed over z, as one term dict."""
    terms = {}
    for w in buckets.values():
        for mono, c in w.terms.items():
            terms[mono] = terms.get(mono, 0) + c
    return {mono: c for mono, c in terms.items() if c}


def test_matching_expansion_matches_operator_form():
    # apply_delta is the operator form cut at remainders of two factors.
    table = delta_coefficients(8)
    states = [FockVector.from_monomial(2, mono)
              for weight in range(9) for mono in basis(2, weight, "even")]
    # Repeated equal modes are where the pair multiplicities must agree.
    assert single(2, [(1, -1)] * 4) in states
    assert single(2, [(1, -2)] * 2) in states
    states += [gen(ell, a) for ell in (1, 3) for gen in (jgen, hgen)
               for a in range(1, ell + 1)]
    short = 0
    for v in states:
        full = flat(reference_delta(v, table))
        assert delta_terms(v) == {mono: c for mono, c in full.items()
                                  if len(mono) <= 2}, v
        short += any(len(mono) > 2 for mono in full)
    # The cut drops something in more than half of the states.
    assert short > len(states) // 2


def test_truncated_expansion_drops_only_long_remainders():
    # A run's matchings that keep at most `keep` factors are its full
    # matchings (keep = len(run)) restricted to remainders that short.
    runs = [mono for weight in range(1, 10) for mono in basis(1, weight)]
    short = 0
    for run in runs:
        full = twisted._matchings(run, len(run))
        for keep in (0, 2):
            keep = min(keep, len(run))
            want = {rem: w for rem, w in full.items() if len(rem) <= keep}
            assert twisted._matchings(run, keep) == want, (run, keep)
            short += any(len(rem) > keep for rem in full)
    # The truncation drops something in more than half of the cases.
    assert short > len(runs)


def test_bucket_weights():
    # Bucket s of a homogeneous state's operator form has weight wt v + s,
    # so the z-exponent of a remainder is fixed by its weight and summing
    # the buckets, as apply_delta does, loses nothing.
    table = delta_coefficients(8)
    J = (single(1, [(1, -1)] * 4)
         + single(1, [(1, -3), (1, -1)], -2)
         + single(1, [(1, -2), (1, -2)], F(3, 2)))
    buckets = reference_delta(J, table)
    assert len(buckets) > 1
    for shift, vec in buckets.items():
        assert {mono_weight(m) for m in vec.terms} == {4 + shift}


def test_twisted_scalars():
    for ell in (1, 2, 3):
        omega = FockVector.zero(ell)
        for a in range(1, ell + 1):
            omega = omega + single(ell, [(a, -1), (a, -1)], F(1, 2))
        assert twisted_zero_mode(omega) == F(ell, 16)
    J = (single(1, [(1, -1)] * 4)
         + single(1, [(1, -3), (1, -1)], -2)
         + single(1, [(1, -2), (1, -2)], F(3, 2)))
    out = twisted_zero_mode(J)
    assert type(out) is Fraction and out == F(3, 128)


def test_odd_parity_rejected():
    odd = single(1, [(1, -1)])
    with pytest.raises(ValueError):
        twisted_zero_mode(odd)


def test_matrix_action_on_twisted_top_level():
    # Column j is the image of h_j(-1/2)|0>_tw.
    S12 = single(2, [(1, -1), (2, -2)])
    assert evaluate(S12, "Tminus") == Matrix([[0, -3], [-1, 0]], 4)


# Unlike denominators, several generators per monomial and repeated modes.
LIGHT = (single(2, [(1, -1), (1, -1), (2, -1), (2, -1)])
         + single(2, [(1, -3), (2, -1)], F(1, 3))
         + single(2, [(2, -2), (2, -2)], F(-5, 16)))
MID = single(2, [(1, -1), (1, -2), (1, -2), (2, -3)], F(7, 2)) + jgen(2, 2)
HEAVY = (single(2, [(1, -1), (1, -1), (1, -5), (1, -7)])
         + single(2, [(1, -3), (1, -3), (2, -4), (2, -4)], F(-5, 16))
         + single(2, [(2, -6), (2, -8)], F(1, 3)))


HEAVIEST = (single(2, [(1, -1), (1, -15)])
            + single(2, [(1, -2), (1, -2), (2, -5), (2, -7)], F(-3, 4))
            + single(2, [(2, -8), (2, -8)], F(1, 3)))


def read(u):
    """The Tplus and Tminus readings of a fresh equal copy of u, which
    keeps no twisted sum yet, so they go through the expansion caches."""
    fresh = FockVector(u.ell, dict(u.terms))
    return evaluate(fresh, "Tplus"), evaluate(fresh, "Tminus")


def test_shared_table_cache(monkeypatch):
    # One delta table per process, of degree MAX_WEIGHT_CAP: the readings
    # of light and heavy states alike build it once and share it.
    calls = []
    built = twisted.delta_coefficients
    monkeypatch.setattr(twisted, "delta_coefficients",
                        lambda degree: calls.append(degree) or built(degree))
    states = (omega(2, 1), MID, HEAVIEST)
    assert [u.max_weight() for u in states] == [2, 8, 16]
    clear_twisted_caches()
    for u in states:
        read(u)
    assert calls == [MAX_WEIGHT_CAP]
    assert twisted._delta() is twisted._delta()
    scale, pairs = twisted._delta()
    assert max(m + n for m, n in pairs) == MAX_WEIGHT_CAP
    assert scale == 1 << 31


def test_readings_do_not_depend_on_evaluation_order():
    # The expansion tables fill as states come and nothing is dropped from
    # them: every reading equals the reference over the state's own-weight
    # table, whatever the order the states come in.
    order = [LIGHT, HEAVY, LIGHT, MID, HEAVIEST]
    assert [u.max_weight() for u in order] == [4, 14, 4, 8, 16]
    clear_twisted_caches()
    forward = [read(order[0])]
    light = twisted._expansion.cache_info().currsize
    assert light
    forward += [read(u) for u in order[1:]]
    assert twisted._expansion.cache_info().currsize > light
    assert forward == [(reference_reading(u, "Tplus"),
                        reference_reading(u, "Tminus")) for u in order]
    clear_twisted_caches()
    backward = [read(u) for u in reversed(order)]
    assert backward[::-1] == forward
    assert all(tplus for tplus, _ in forward)


def test_monomial_above_the_cap_is_refused():
    # A weight-17 monomial needs pairs the degree-16 table lacks, so every
    # twisted reading of it raises the cap guard, each time, since it is
    # never stored; the untwisted families read it without the table.
    u = single(1, [(1, -1), (1, -16)]) + omega(1, 1)
    assert u.max_weight() == MAX_WEIGHT_CAP + 1
    for _ in range(2):
        for read_twisted in (lambda: evaluate(u, "Tplus"),
                             lambda: evaluate(u, "Tminus"),
                             lambda: twisted_zero_mode(u),
                             lambda: apply_delta(u)):
            with pytest.raises(ResourceWarning, match="weight cap 16"):
                read_twisted()
    # No twisted sum is kept, so the next reading raises again.
    assert u._twisted is None
    assert evaluate(u, "Hplus") == 0
    # h1(-1) h1(-16) adds d(1, 16) d(-1, 1) = C(-2, 15) = -16; omega the 1.
    assert evaluate(u, "Hminus") == Matrix([[-15]], 1)
    # (-1)^0 (-1)^15 l1^2 + l1^2 / 2.
    assert evaluate(u, "Mlambda") == LPoly(1, {(2,): F(-1, 2)})



def test_one_expansion_per_monomial():
    # Tminus reads the sum the Tplus reading of the same state kept on it,
    # so it looks up no expansion and makes no run's matchings.
    clear_twisted_caches()
    u = LIGHT + MID
    evaluate(u, "Tplus")
    expansions = twisted._expansion.cache_info()
    runs = twisted._matchings.cache_info()
    evaluate(u, "Tminus")
    assert twisted._expansion.cache_info().misses == expansions.misses
    assert twisted._expansion.cache_info().hits == expansions.hits
    assert twisted._matchings.cache_info().misses == runs.misses
    # A fresh equal state keeps no sum, but reuses the process's expansions.
    copy = FockVector(u.ell, dict(u.terms))
    evaluate(copy, "Tminus")
    assert twisted._expansion.cache_info().misses == expansions.misses
    assert twisted._expansion.cache_info().hits == (expansions.hits
                                                    + len(u.terms))
    # keep is capped at len(run) before the lookup, so the run h1(-1)^4 at
    # keep 2 makes six entries: (h^4, 2), (h^3, 1), (h^2, 2), (h^2, 0),
    # (h, 1) and ((), 0).  Uncapped, ((), 2) would be a seventh.
    clear_twisted_caches()
    apply_delta(single(1, [(1, -1)] * 4))
    assert twisted._matchings.cache_info().currsize == 6
    # A monomial above the cap raises without entering the cache.
    evaluate(omega(1, 1), "Tplus")
    size = twisted._expansion.cache_info().currsize
    over = single(1, [(1, -1), (1, -16)]) + omega(1, 1)
    for fam in ("Tplus", "Tminus"):
        with pytest.raises(ResourceWarning, match="weight cap 16"):
            evaluate(over, fam)
    assert twisted._expansion.cache_info().currsize == size

def _random_even_state(rng, rank, weight):
    """1-3 random even monomials of weight at most ``weight`` (no even
    monomial weighs 1), one of them of exactly that weight, with small
    rational coefficients."""
    weights = [w for w in range(weight + 1) if w != 1]
    terms = {}
    for top in [weight] + rng.choices(weights, k=rng.randrange(3)):
        length = rng.choice([n for n in (2, 4, 6) if n <= top] or [0])
        cuts = ([0, *sorted(rng.sample(range(1, top), length - 1)), top]
                if length else [0])
        parts = [b - a for a, b in zip(cuts, cuts[1:])]
        mono = make_monomial(rank, [(rng.randint(1, rank), -p) for p in parts])
        terms[mono] = F(rng.randint(-9, 9) or 1, rng.randint(1, 6))
    return FockVector(rank, terms)


def test_readings_equal_the_own_degree_reference():
    # The one table at the weight cap reads every state as the table of the
    # state's own weight does, at ranks 1-3 and weights 0-16.
    rng = random.Random(35)
    states = [_random_even_state(rng, rank, weight)
              for rank in (1, 2, 3) for weight in range(17) if weight != 1
              for _ in range(3)]
    assert {u.max_weight() for u in states} == set(range(17)) - {1}
    readings = [read(u) for u in states]
    for u, reading in zip(states, readings):
        assert reading == (reference_reading(u, "Tplus"),
                           reference_reading(u, "Tminus")), u
    # Most states reach the empty remainder, so the readings are not all 0.
    assert sum(bool(tplus) for tplus, _ in readings) > len(states) // 2


def test_tplus_reads_the_reference_on_golden_states_and_circles():
    # The empty remainder of the expansion Tminus reads is the Tplus
    # reading of the operator form, on the golden states and a seeded
    # sample of circles between them.
    labels = [label for elements in GOLDEN.values() for label in elements]
    rank_2, rank_3 = ([realize(parse_expr(label, rank), rank)
                       for label in labels] for rank in (2, 3))
    golden = rank_2 + rank_3
    rng = random.Random(11)
    circles = [circ_n(rng.choice(rank_2), rng.choice(rank_2), rng.randrange(3))
               for _ in range(30)]
    for v in golden + circles:
        assert twisted_zero_mode(v) == reference_reading(v, "Tplus"), v
    assert sum(bool(twisted_zero_mode(v)) for v in golden) == 4

"""The twisted sector: the exponential correction table and its expansion.

The twisted module supports a plain normally ordered field over half-integer
modes, but the honest module action corrects the inserted state first:
``Y_tw(v, z) = W(exp(Delta_z) v, z)`` where

    Delta_z = sum_{m,n >= 1} c_mn sum_i h_i(m) h_i(n) z^(-m-n)

and the rationals ``c_mn`` are the coefficients of x^m y^n in

    f(x, y) = -log( (sqrt(1+x) + sqrt(1+y)) / 2 ).

They have the closed form ``c_mn = C(-1/2, m) C(-1/2, n) / (2(m+n))``.
Proof: put a = sqrt(1+x) and b = sqrt(1+y).  Then x da/dx = (a^2 - 1)/(2a),
likewise for b, so the Euler operator gives

    (x d/dx + y d/dy) f = -(a - 1/a + b - 1/b) / (2(a+b)) = (1/(ab) - 1)/2.

The Euler operator multiplies the x^m y^n coefficient by m+n, and
1/(ab) = sum C(-1/2, m) C(-1/2, n) x^m y^n; f has no constant term.

Rows/columns with m = 0 or n = 0 are dropped: the zero mode kills the vacuum
module, so those terms never act.  On a monomial, Delta_z contracts a pair
of equal-generator factors h_i(-p) h_i(-q) with weight ``2 c_pq p q`` (terms
(p, q) and (q, p)) at exponent -(p+q); Delta^k reaches k disjoint pairs in k!
orders, so exp(Delta_z) sums over the partial matchings of the factors.

Only the twisted top levels read the expansion, and they read little of it
(see :mod:`orbifock.toplevel`): |0>_tw reads the empty remainder alone and
the h_j(-1/2)|0>_tw read remainders of at most two factors.  So
:func:`apply_delta` can stop at remainders of ``keep`` factors, and
:func:`twisted_zero_mode`, the Tplus reading, keeps none.

The expansion runs in integers over one denominator.  One delta table is
built once per process at the weight cap ``zhu.MAX_WEIGHT_CAP``, past which
no realized state goes (:func:`_tables`).  It holds each pair weight as an
integer P_pq = D * 2 c_pq p q, where D, a power of two, is the lcm of the
weights' denominators.  A matching of k pairs then weighs
(product of its P) / D^k, and k = (len(mono) - len(remainder)) / 2 is
fixed by the remainder alone.  The state's coefficients are scaled by the
lcm d of their denominators and every product is lifted to the common power
D^top (top pairs at most), so each remainder's integer sum is its exact
coefficient times d * D^top.  The reading divides by that once per value.

Expansions are made once per process and kept in two tables beside the
delta table.  The per-generator table maps a run of one generator's factors
and ``keep`` (capped at the run's length) to its remainders and their
integer weights (:func:`_matchings`).  The per-monomial table maps
(monomial, min(keep, len(monomial))) to its remainders, weights and numbers
of pairs matched.  A monomial above the cap would need pairs the table
lacks, so it raises ResourceWarning instead of being expanded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import groupby
from math import lcm
from operator import itemgetter

from .coeffs import clear_denominators
from .fock import mono_weight
from .vertex import d_coeff
from .zhu import MAX_WEIGHT_CAP


def delta_coefficients(max_degree):
    """The correction table {(m, n): c_mn} for 1 <= m, n and
    m + n <= max_degree, from the closed form of ``c_mn``."""
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    binom = [d_coeff(Fraction(-1, 2), k + 1) for k in range(max_degree)]
    return {(m, n): binom[m] * binom[n] / (2 * (m + n))
            for m in range(1, max_degree) for n in range(1, max_degree + 1 - m)}


@cache
def _tables():
    """The delta table of degree ``MAX_WEIGHT_CAP`` and its two expansion
    tables, built once per process: ``((scale, pairs), runs, monos)``, with
    ``pairs[m, n] = scale * 2 c_mn m n`` and ``scale`` the lcm of their
    denominators (module docstring).
    """
    weights = {(m, n): Fraction(2 * c * m * n)
               for (m, n), c in delta_coefficients(MAX_WEIGHT_CAP).items()}
    scale = lcm(*(w.denominator for w in weights.values()))
    return (scale, {mn: int(w * scale) for mn, w in weights.items()}), {}, {}


def _matchings(run, pairs, keep, runs):
    """{remainder: integer weight} over the partial matchings of one
    generator's ``run`` of factors that leave at most ``keep`` unmatched.

    ``run`` holds one generator's factors, (gen, -n) for h(-n), in order,
    and so does each remainder.  The first factor stays, or pairs with each
    distinct later factor times its count.  ``pairs`` holds the table's
    integer pair weights, so a matching of k pairs weighs its value times
    the table's ``scale**k``.  ``runs``, the per-generator table, holds
    every (run, keep) met, with keep capped at len(run) (:func:`_tables`).
    """
    keep = min(keep, len(run))
    key = (run, keep)
    out = runs.get(key)
    if out is not None:
        return out
    if len(run) < 2:
        out = {run: 1} if len(run) <= keep else {}
    else:
        first, rest = run[0], run[1:]
        out = {(first,) + rem: w for rem, w in
               _matchings(rest, pairs, keep - 1, runs).items()} if keep else {}
        for j, second in enumerate(rest):
            pair = pairs.get((-first[1], -second[1]))
            if pair and not (j and rest[j - 1] == second):
                pair *= rest.count(second)
                for rem, w in _matchings(rest[:j] + rest[j + 1:], pairs,
                                         keep, runs).items():
                    out[rem] = out.get(rem, 0) + pair * w
    runs[key] = out
    return out


def _expansion(mono, keep, pairs, runs):
    """[(remainder, weight, pairs matched)] of one monomial's partial
    matchings that leave at most ``keep`` factors, across its generators,
    with each weight the product of its runs' (:func:`_matchings`)."""
    partial = {(): 1}
    for _, factors in groupby(mono, key=itemgetter(0)):
        matched = _matchings(tuple(factors), pairs, keep, runs)
        partial = {head + rem: w * coeff
                   for head, coeff in partial.items()
                   for rem, w in matched.items()
                   if len(head) + len(rem) <= keep}
    return [(rem, w, (len(mono) - len(rem)) // 2)
            for rem, w in partial.items()]


def apply_delta(v, keep):
    """exp(Delta_z) v summed over the powers of z, as a pair (den, terms).

    Each monomial expands into its partial matchings, one generator at a
    time, with the pair weights of the delta table (:func:`_tables`).  A
    matching that removes weight k carries z^(-k), so on a homogeneous
    state a remainder's weight fixes its exponent and the sum, which is all
    the top level reads, loses nothing.  A remainder of more than ``keep``
    factors is dropped, across the generators together, so a ``keep`` of at
    least the longest monomial's length gives the full expansion.  The sums
    run in integers over one positive int ``den`` (module docstring), and
    ``terms`` maps each remainder to its nonzero int numerator over ``den``.

    A monomial's expansion is read from the per-monomial table, keyed on
    (monomial, min(keep, len(monomial))), which :func:`_expansion` fills
    from the per-generator table.  All three tables are built once per
    process at the weight cap, so each expansion is made once per process.
    A monomial above the cap raises ResourceWarning when it misses the
    table, which is every time, since it is never stored.
    """
    (scale, pairs), runs, monos = _tables()
    den, scaled = clear_denominators(v.terms)
    top = max(map(len, v.terms), default=0) // 2
    # lift[k]: a matching of k pairs, lifted to the common power scale**top.
    lift = [scale ** (top - k) for k in range(top + 1)]
    terms = {}
    for mono, c in scaled.items():
        key = (mono, min(keep, len(mono)))
        expansion = monos.get(key)
        if expansion is None:
            weight = mono_weight(mono)
            if weight > MAX_WEIGHT_CAP:
                raise ResourceWarning(f"twisted correction at weight {weight} "
                                      f"exceeds the weight cap {MAX_WEIGHT_CAP}")
            expansion = monos[key] = _expansion(*key, pairs, runs)
        for rem, w, k in expansion:
            terms[rem] = terms.get(rem, 0) + c * w * lift[k]
    return den * scale ** top, {rem: c for rem, c in terms.items() if c}


def twisted_zero_mode(v):
    """o(v) on |0>_tw, the Tplus top level, as a scalar.

    |0>_tw reads only the empty remainder of exp(Delta_z) v, so the
    expansion keeps the perfect matchings alone.  ``v`` must have even
    parity: only those states have integral components on the twisted
    module.
    """
    if not v.is_even():
        raise ValueError("twisted components need an even-parity state")
    den, terms = apply_delta(v, keep=0)
    return Fraction(terms.get((), 0), den)

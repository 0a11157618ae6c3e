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
(see :mod:`orbifock.toplevel`): the h_j(-1/2)|0>_tw read remainders of at
most two factors and |0>_tw the empty remainder alone.  So
:func:`apply_delta` stops at remainders of two factors, and
:func:`twisted_zero_mode`, the Tplus reading, takes the empty remainder of
that same expansion.

The expansion runs in integers over one denominator.  One delta table is
built once per process at the weight cap ``zhu.MAX_WEIGHT_CAP``, past which
no realized state goes (:func:`_delta`).  It holds each pair weight as an
integer P_pq = D * 2 c_pq p q, where D, a power of two, is the lcm of the
weights' denominators.  A matching of k pairs then weighs
(product of its P) / D^k, and k = (len(mono) - len(remainder)) / 2 is
fixed by the remainder alone.  The state's coefficients are scaled by the
lcm d of their denominators and every product is lifted to the common power
D^top (top pairs at most), so each remainder's integer sum is its exact
coefficient times d * D^top.  The reading divides by that once per value.

Expansions are made once per process and kept in two function caches
beside the delta table: one per run of one generator's factors and the
number of factors it may keep (:func:`_matchings`), and one per monomial
(:func:`_expansion`), which both twisted families read.  Each state sums
its expansion once: :func:`apply_delta` keeps the sum on the state, and the
Tplus and Tminus readings of that state share it.  A monomial above the cap
would need pairs the table lacks, so it raises ResourceWarning instead of
being expanded, and the state keeps no sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import groupby
from math import lcm
from operator import itemgetter

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
def _delta():
    """The delta table of degree ``MAX_WEIGHT_CAP``, built once per
    process: ``(scale, pairs)``, with ``pairs[m, n] = scale * 2 c_mn m n``
    and ``scale`` the lcm of their denominators (module docstring).
    """
    weights = {(m, n): Fraction(2 * c * m * n)
               for (m, n), c in delta_coefficients(MAX_WEIGHT_CAP).items()}
    scale = lcm(*(w.denominator for w in weights.values()))
    return scale, {mn: int(w * scale) for mn, w in weights.items()}


@cache
def _matchings(run, keep):
    """{remainder: integer weight} over the partial matchings of one
    generator's ``run`` of factors that leave at most ``keep`` unmatched.

    ``run`` holds one generator's factors, (gen, -n) for h(-n), in order,
    and so does each remainder.  The first factor stays, or pairs with each
    distinct later factor times its count.  The pair weights are the delta
    table's integers, so a matching of k pairs weighs its value times the
    table's ``scale**k``.  Callers cap ``keep`` at ``len(run)``, so each
    (run, keep) is one cache entry.
    """
    if len(run) < 2:
        return {run: 1} if len(run) == keep else {}
    pairs = _delta()[1]
    first, rest = run[0], run[1:]
    out = {(first,) + rem: w
           for rem, w in _matchings(rest, keep - 1).items()} if keep else {}
    for j, second in enumerate(rest):
        pair = pairs.get((-first[1], -second[1]))
        if pair and not (j and rest[j - 1] == second):
            pair *= rest.count(second)
            others = rest[:j] + rest[j + 1:]
            for rem, w in _matchings(others, min(keep, len(others))).items():
                out[rem] = out.get(rem, 0) + pair * w
    return out


@cache
def _expansion(mono):
    """((remainder, weight, pairs matched), ...) of one monomial's partial
    matchings that leave at most two factors, across its generators, with
    each weight the product of its runs' (:func:`_matchings`).  A monomial
    above the weight cap raises ResourceWarning, on every call, since an
    exception is never cached."""
    weight = mono_weight(mono)
    if weight > MAX_WEIGHT_CAP:
        raise ResourceWarning(f"twisted correction at weight {weight} "
                              f"exceeds the weight cap {MAX_WEIGHT_CAP}")
    partial = {(): 1}
    for _, factors in groupby(mono, key=itemgetter(0)):
        run = tuple(factors)
        matched = _matchings(run, min(2, len(run)))
        partial = {head + rem: w * coeff
                   for head, coeff in partial.items()
                   for rem, w in matched.items()
                   if len(head) + len(rem) <= 2}
    return tuple((rem, w, (len(mono) - len(rem)) // 2)
                 for rem, w in partial.items())


def apply_delta(v):
    """exp(Delta_z) v summed over the powers of z, as a pair (den, terms),
    with the remainders of at most two factors, all the twisted top levels
    read.

    Each monomial expands into its partial matchings, one generator at a
    time, with the pair weights of the delta table (:func:`_delta`).  A
    matching that removes weight k carries z^(-k), so on a homogeneous
    state a remainder's weight fixes its exponent and the sum, which is all
    the top level reads, loses nothing.  A remainder of more than two
    factors, across the generators together, is dropped.  The sums run in
    integers over one positive int ``den`` (module docstring), and
    ``terms`` maps each remainder to its nonzero int numerator over ``den``.

    Each monomial's expansion is made once per process (:func:`_expansion`)
    and read by both twisted families.  The pair is made once per state and
    kept on it, so later calls return the same pair, which callers must not
    change.  A monomial above the weight cap raises ResourceWarning, and
    nothing is kept.
    """
    if v._twisted is not None:
        return v._twisted
    scale = _delta()[0]
    den, scaled = v.integer_form()
    top = max(map(len, v.terms), default=0) // 2
    # lift[k]: a matching of k pairs, lifted to the common power scale**top.
    lift = [scale ** (top - k) for k in range(top + 1)]
    terms = {}
    for mono, c in scaled.items():
        for rem, w, k in _expansion(mono):
            terms[rem] = terms.get(rem, 0) + c * w * lift[k]
    v._twisted = den * scale ** top, {rem: c for rem, c in terms.items() if c}
    return v._twisted


def twisted_zero_mode(v):
    """o(v) on |0>_tw, the Tplus top level, as a scalar.

    |0>_tw reads only the empty remainder of exp(Delta_z) v, the perfect
    matchings, which :func:`apply_delta` keeps with the rest Tminus reads.
    ``v`` must have even parity: only those states have integral components
    on the twisted module.
    """
    if not v.is_even():
        raise ValueError("twisted components need an even-parity state")
    den, terms = apply_delta(v)
    return Fraction(terms.get((), 0), den)

"""Vertex-operator mode components on the vacuum module of the free boson.

For a state ``v = h_{a_1}(-n_1) ... h_{a_k}(-n_k) |0>`` the field ``Y(v,z)``
is the normally ordered product of the derived boson currents
``(1/(n_i-1)!) d^{n_i-1} alpha_{a_i}(z)``.  Extracting one ``z``-power turns
this into a finite sum over integer mode tuples ``(k_1, ..., k_k)``:

    v_m = sum over tuples with sum(k_i) = m + 1 - sum(n_i) of
          prod_i C(-k_i - 1, n_i - 1) : h_{a_1}(k_1) ... h_{a_k}(k_k) :

applied with creation modes on the left.  The binomial vanishes on the
window -n_i < k_i < 0, and a zero mode kills the whole vacuum module.  The
sum is finite because it is driven by the target's contractions: an
annihilator h_g(k) survives only if h_g(-k) occurs in some target monomial,
so only those are enumerated, and the creation modes are whatever then
closes the sum.

Identical factors are enumerated as multisets: a run of equal mode indices
over a group of equal factors stands for all its ordered rearrangements,
with the multiplicity folded into one binomial multiplier.

This engine serves the products of :mod:`orbifock.zhu`.  The top levels of
the five families need no enumeration: a grade-preserving mode tuple meets
at most one contraction there, so :mod:`orbifock.toplevel` evaluates them
in closed form, with :func:`top_level_matrix` for the two matrix families.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb

from .fock import FockVector, annihilate, mono_weight2, single


@lru_cache(maxsize=None)
def d_coeff2(k2, n):
    """The expansion coefficient C(-k-1, n-1) with k given as a twice-value.

    Integer for integer modes, Fraction for half-integer ones; zero exactly
    when k is an integer with -n < k < 0.
    """
    if n == 1:
        return 1
    num = 1
    top2 = -k2 - 2  # twice the upper argument -k-1
    for j in range(n - 1):
        num *= top2 - 2 * j
    den = 1
    for j in range(2, n):
        den *= j
    if k2 % 2 == 0:
        return num // 2 ** (n - 1) // den
    return Fraction(num, 2 ** (n - 1) * den)


def top_level_matrix(terms, rank, k2):
    """o(v) on a top level spanned by h_j(-k)|top>, j = 1..rank, as rows.

    ``terms`` maps monomials to coefficients: those of v on the vacuum
    module (k = 1), or those of the remainders of exp(Delta_z) v on the
    twisted module (k = 1/2); ``k2`` is twice k.  Neither module has a
    zero mode, so a grade-preserving mode tuple on h_b(-k)|top> is either
    empty or contracts h_b(k) against it and creates one h_a(-k).  The
    vacuum term thus acts as the identity, a two-factor term
    h_a(-p) h_b(-q) adds k d(k, q) d(-k, p) to entry (a, b) and the mirror
    term to entry (b, a), and every other term acts as zero.  Here
    d(k, n) = C(-k-1, n-1) is :func:`d_coeff2`, and entry (a, b) is the
    coefficient of basis vector a in the image of basis vector b.
    """
    k = Fraction(k2, 2)
    rows = [[Fraction(0)] * rank for _ in range(rank)]
    for mono, c in terms.items():
        if not mono:
            for i in range(rank):
                rows[i][i] += c
        elif len(mono) == 2:
            (a, p2), (b, q2) = mono
            p, q = -p2 // 2, -q2 // 2
            rows[a - 1][b - 1] += c * k * d_coeff2(k2, q) * d_coeff2(-k2, p)
            rows[b - 1][a - 1] += c * k * d_coeff2(k2, p) * d_coeff2(-k2, q)
    return rows


def _grouped_tuples(groups, total2, ann_budget2, ann_modes):
    """The (multiplier, ops) pairs of the grouped mode expansion, as a list.

    ``groups`` lists (gen, n, n2, mult) over the source monomial's distinct
    factors; ``ops`` assigns each factor a twice-index, nonincreasing inside
    each group, and ``multiplier`` counts the ordered tuples the multiset
    stands for times the product of expansion coefficients.

    The expansion is driven by the target's contractions: ``ann_modes``
    maps each generator g to a dict, in descending key order, from each k2
    with h_g(-k2/2) in some target monomial to the most copies of it in one
    monomial.  Those are the only annihilators tried, each at most that many
    times, since any other one kills every target monomial.  Annihilators
    also respect the target's mode-weight budget ``ann_budget2``, creation
    depth is bounded by ``ann_budget2 - total2``, and a branch is cut as
    soon as the indices still open can no longer close the remaining sum.
    """
    cre_budget2 = ann_budget2 - total2
    if cre_budget2 < 0:
        return []
    ngroups = len(groups)
    last = ngroups - 1
    # hi[i]: the largest index a factor of group i can take; reach[i]: the
    # largest sum the groups after i can still contribute.
    hi = [next(iter(ann_modes[g])) if g in ann_modes else -n2src
          for g, _, n2src, _ in groups]
    reach = [0] * ngroups
    for i in range(last, 0, -1):
        reach[i - 1] = reach[i] + groups[i][3] * hi[i]
    out = []
    ops = []

    def rec(gi, slots, next_max, rem2, ann2, cre2, mult):
        top = hi[gi] if hi[gi] < next_max else next_max
        if rem2 > ann2 or rem2 > slots * top + reach[gi] or rem2 < -cre2:
            return
        g, n, n2src, _ = groups[gi]
        modes = ann_modes.get(g, {})
        start = min(-n2src, next_max)
        if gi == last and slots == 1:
            # The final index must close the sum; the check above already
            # keeps it within top, ann2 and cre2.
            k2 = rem2
            if (k2 in modes) if k2 > 0 else k2 <= start:
                out.append((mult * d_coeff2(k2, n), (*ops, (g, k2))))
            return
        cap = min(ann2, rem2 + cre2, top)
        cands = [(k2, count if count < slots else slots)
                 for k2, count in modes.items() if k2 <= cap]
        low = max(-cre2, rem2 - min(ann2, reach[gi]))
        cands.extend((k2, slots) for k2 in range(start, low - 1, -2))
        base = len(ops)
        for k2, most in cands:
            d = d_coeff2(k2, n)
            dc = 1
            for c in range(1, most + 1):
                if k2 > 0 and c * k2 > ann2:
                    break
                if k2 < 0 and -c * k2 > cre2:
                    break
                dc = dc * d
                ops.append((g, k2))
                r2 = rem2 - c * k2
                a2 = ann2 - c * k2 if k2 > 0 else ann2
                c2 = cre2 + c * k2 if k2 < 0 else cre2
                m2 = mult * comb(slots, c) * dc
                if c < slots:
                    rec(gi, slots - c, k2 - 2, r2, a2, c2, m2)
                elif gi < last:
                    rec(gi + 1, groups[gi + 1][3], hi[gi + 1], r2, a2, c2, m2)
                elif r2 == 0:
                    out.append((m2, tuple(ops)))
            del ops[base:]

    if ngroups:
        rec(0, groups[0][3], hi[0], total2, ann_budget2, cre_budget2, 1)
    elif total2 == 0:
        out.append((1, ()))
    return out


def mode_component(v, m, target):
    """The component v_m of Y(v,z) applied to ``target``, both untwisted."""
    if v.twisted or target.twisted:
        raise ValueError("mode components act on the untwisted vacuum module")
    if v.ell != target.ell:
        raise ValueError("rank mismatch between state and target")
    if target.is_zero() or v.is_zero():
        return FockVector.zero(target.ell)
    ann_budget2 = target.max_weight2()
    counts = {}
    for tmono in target.terms:
        for (g, n2), grp in groupby(tmono):
            c = sum(1 for _ in grp)
            if c > counts.get((g, -n2), 0):
                counts[(g, -n2)] = c
    ann_modes = {}
    for (g, k2), c in sorted(counts.items(), reverse=True):
        ann_modes.setdefault(g, {})[k2] = c
    acc = {}
    for mono, c in v.terms.items():
        groups = [(g, -n2 // 2, -n2, sum(1 for _ in grp))
                  for (g, n2), grp in groupby(mono)]
        total2 = 2 * m + 2 - mono_weight2(mono)
        for mult, ops in _grouped_tuples(groups, total2, ann_budget2, ann_modes):
            coeff = c * mult
            terms = target.terms
            creators = []
            for g, k2 in ops:
                if k2 > 0:
                    terms = annihilate(terms, g, k2)
                    if not terms:
                        break
                else:
                    creators.append((g, k2))
            if not terms:
                continue
            creators = tuple(creators)
            for tmono, tval in terms.items():
                full = tuple(sorted(tmono + creators)) if creators else tmono
                s = acc.get(full, 0) + coeff * tval
                if s:
                    acc[full] = s
                else:
                    acc.pop(full, None)
    return FockVector(target.ell, False, acc)


def virasoro(a, n, v):
    """The coordinate Virasoro mode L_a(n), i.e. the quadratic's (n+1)-component."""
    omega_a = single(v.ell, False, [(a, -1), (a, -1)], Fraction(1, 2))
    return mode_component(omega_a, n + 1, v)

"""Vertex-operator mode components for free-boson states.

For a state ``v = h_{a_1}(-n_1) ... h_{a_k}(-n_k) |0>`` the field ``Y(v,z)``
is the normally ordered product of the derived boson currents
``(1/(n_i-1)!) d^{n_i-1} alpha_{a_i}(z)``.  Extracting one ``z``-power turns
this into a finite sum over mode tuples ``(k_1, ..., k_k)``:

    v_m = sum over tuples with sum(k_i) = m + 1 - sum(n_i) of
          prod_i C(-k_i - 1, n_i - 1) : h_{a_1}(k_1) ... h_{a_k}(k_k) :

applied with creation modes on the left.  Over integer modes the binomial
vanishes on the window -n_i < k_i < 0, and annihilators beyond the target's
mode-weight kill it, which makes the sum finite.  The same expansion runs
over half-integer modes on the twisted module (where no window vanishes and
the surrounding code supplies the exponential correction).

Identical factors are enumerated as multisets: a run of equal mode indices
over a group of equal factors stands for all its ordered rearrangements,
with the multiplicity folded into one binomial multiplier.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb

from .coeffs import LPoly
from .fock import SYMBOLIC, FockVector, annihilate, mono_weight2, single


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


def _grouped_tuples(groups, total2, ann_budget2, twisted, gen_caps):
    """Yield (multiplier, ops) pairs of the grouped mode expansion.

    ``groups`` lists (gen, n, n2, mult) over the source monomial's distinct
    factors; ``ops`` assigns each factor a twice-index, nonincreasing inside
    each group, and ``multiplier`` counts the ordered tuples the multiset
    stands for times the product of expansion coefficients.  Annihilators
    respect the target's total and per-generator mode-weight budgets, and
    creation depth is bounded by ``ann_budget2 - total2``; branches that
    cannot balance the remaining sum are cut as soon as that is visible.
    """
    cre_budget2 = ann_budget2 - total2
    if cre_budget2 < 0:
        return
    ngroups = len(groups)
    lo_ann = 1 if twisted else 0
    ops = []

    def candidates(g, n2src, next_max, rem2, ann2, cre2):
        cap = min(ann2, rem2 + cre2)
        if gen_caps is not None:
            cap = min(cap, gen_caps.get(g, 0))
        if next_max is not None:
            cap = min(cap, next_max)
        k2 = cap
        if twisted:
            k2 -= (k2 % 2 == 0)
        else:
            k2 -= k2 % 2
        while k2 >= lo_ann:
            yield k2
            k2 -= 2
        start = -1 if twisted else -n2src
        if next_max is not None and next_max < start:
            start = next_max
        low = max(-cre2, rem2 - ann2)
        k2 = start
        while k2 >= low:
            yield k2
            k2 -= 2

    def rec(gi, slots, next_max, rem2, ann2, cre2, mult):
        if rem2 > ann2 or rem2 < -cre2:
            return
        if slots == 0:
            gi += 1
            if gi == ngroups:
                if rem2 == 0:
                    yield mult, tuple(ops)
                return
            yield from rec(gi, groups[gi][3], None, rem2, ann2, cre2, mult)
            return
        g, n, n2src, _ = groups[gi]
        for k2 in candidates(g, n2src, next_max, rem2, ann2, cre2):
            d = d_coeff2(k2, n)
            if not d:
                continue
            dc = 1
            base = len(ops)
            for c in range(1, slots + 1):
                if k2 > 0 and c * k2 > ann2:
                    break
                if k2 < 0 and -c * k2 > cre2:
                    break
                dc = dc * d
                ops.append((g, k2))
                yield from rec(gi, slots - c, k2 - 2, rem2 - c * k2,
                               ann2 - c * k2 if k2 > 0 else ann2,
                               cre2 + c * k2 if k2 < 0 else cre2,
                               mult * comb(slots, c) * dc)
            del ops[base:]

    if ngroups:
        yield from rec(0, groups[0][3], None, total2, ann_budget2,
                       cre_budget2, 1)
    elif total2 == 0:
        yield 1, ()


def mode_component(v, m, target, hw=None):
    """The component v_m of Y(v,z), or of the plain twisted field on H(theta).

    ``v`` is an untwisted state; ``target`` may live in either sector and
    determines whether modes run over integers or half-integers.  ``hw``
    feeds the zero-mode action on highest-weight modules (see
    :func:`orbifock.fock.apply_mode`).
    """
    if v.twisted:
        raise ValueError("expansion states must be untwisted")
    if v.ell != target.ell:
        raise ValueError("rank mismatch between state and target")
    twisted = target.twisted
    if target.is_zero() or v.is_zero():
        return FockVector.zero(target.ell, twisted)
    ann_budget2 = target.max_weight2()
    gen_caps = {}
    for tmono in target.terms:
        per = {}
        for g, n2 in tmono:
            per[g] = per.get(g, 0) - n2
        for g, w2 in per.items():
            gen_caps[g] = max(gen_caps.get(g, 0), w2)
    acc = {}
    for mono, c in v.terms.items():
        groups = [(g, -n2 // 2, -n2, sum(1 for _ in grp))
                  for (g, n2), grp in groupby(mono)]
        total2 = 2 * m + 2 - mono_weight2(mono)
        for mult, ops in _grouped_tuples(groups, total2, ann_budget2,
                                         twisted, gen_caps):
            coeff = c * mult
            terms = target.terms
            creators = []
            for g, k2 in ops:
                if k2 > 0:
                    terms = annihilate(terms, g, k2)
                    if not terms:
                        break
                elif k2 < 0:
                    creators.append((g, k2))
                else:
                    if hw is None:
                        terms = {}
                        break
                    if hw == SYMBOLIC:
                        coeff = coeff * LPoly.unit(v.ell, g)
                    else:
                        coeff = coeff * hw[g - 1]
                        if not coeff:
                            break
            if not terms or not coeff:
                continue
            creators = tuple(creators)
            for tmono, tval in terms.items():
                full = tuple(sorted(tmono + creators)) if creators else tmono
                s = acc.get(full, 0) + coeff * tval
                if s:
                    acc[full] = s
                else:
                    acc.pop(full, None)
    return FockVector(target.ell, twisted, acc)


def mode_operator(v, m, target, hw=None):
    """Untwisted component v_m acting on an untwisted target."""
    if target.twisted:
        raise ValueError("mode_operator acts on the untwisted sector")
    return mode_component(v, m, target, hw)


def virasoro(a, n, v, hw=None):
    """The coordinate Virasoro mode L_a(n), i.e. the quadratic's (n+1)-component."""
    if v.twisted:
        raise ValueError("virasoro acts on the untwisted sector")
    omega_a = single(v.ell, False, [(a, -1), (a, -1)], Fraction(1, 2))
    return mode_component(omega_a, n + 1, v, hw)


def zero_mode(v, target, hw=None):
    """o(v): the grade-preserving component, summed over homogeneous parts."""
    if target.twisted:
        raise ValueError("zero_mode acts on untwisted modules; "
                         "the twisted module needs the corrected field")
    out = FockVector.zero(target.ell, target.twisted)
    for w2, comp in v.graded_components().items():
        if w2 % 2:
            raise ValueError("state has half-integer weight; no integral zero mode")
        out = out + mode_component(comp, w2 // 2 - 1, target, hw)
    return out

"""Vertex-operator mode components on the vacuum module of the free boson.

The products of :mod:`orbifock.zhu` are one sum, for a shift >= 1,

    sum_i C(wt m, i) m_{i-shift} t      over the monomials m of u and t of v,

which :func:`mode_component` computes by one Wick walk per (m, t) pair.  A
monomial m = h_{g_1}(-p_1) ... h_{g_k}(-p_k) of weight w has the
normal-ordered modes

    m_q = sum_{k_1+...+k_k = q+1-w} prod_r d(k_r, p_r) :h_{g_1}(k_1) ... h_{g_k}(k_k):

with d(k, n) = C(-k-1, n-1) (:func:`d_coeff`).  On the vacuum module h(0)
is zero, so each factor h_g(-p) of m either contracts or creates:

*Contractions.*  h_g(n), n >= 1, removes a factor h_g(-n) of t, with weight
d(n, p) times n times its multiplicity (:func:`orbifock.fock.annihilate`).
Several factors of m may contract, each a distinct factor of t.  What a
contraction pattern leaves, the rest of t and the creating factors of m,
does not depend on i or on the shift, so :func:`_contractions` makes each
pattern once per pair, merging the equal patterns of repeated factors.

*Creations.*  d(k, p) vanishes for -p < k < 0, so a creating factor is
h_g(-p-j), j >= 0, with weight d(-p-j, p) = C(p+j-1, j): the factor moves
as it does in exp(L(-1)) m.  The modes of the i-th term add up to
i+1-w-shift, so the creators' added weight is top - i, with
top = shift - 1 + sum(p + n) over the contractions, and the whole i-sum of
one pattern is one enumeration of that added weight (:func:`_creations`).

The walk runs in ints over the inputs' denominators, and its product is
born as that integer form (:meth:`orbifock.fock.FockVector.from_integer`).
Each cache of this module is process-wide and keeps the ``CACHE_SIZE``
answers used most recently, so it bounds itself wherever the walk is called
from.

With the vacuum as t nothing contracts, and the walk reads
m_{-1-j}|0> as the weight-j part of exp(L(-1)) m.  Hence
circ_0(m, |0>) = L(-1)m + wt(m) m and star(m, |0>) = m.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .fock import FockVector, annihilate, mono_weight

# The answers each cache below keeps; a fresh eval-r2 pass meets 423
# distinct (monomial, monomial) pairs, and a `suite all` run 504 creation
# keys.
CACHE_SIZE = 512


@lru_cache(maxsize=CACHE_SIZE)
def d_coeff(k, n):
    """The coefficient C(-k-1, n-1), for an int or Fraction mode index k.

    It weighs the mode h(k) in the field of h(-n)|0>; its users are
    :func:`mode_component`, for each contraction,
    :func:`orbifock.toplevel.top_level_matrix`, which reads the twisted top
    level at k = +-1/2, and :func:`orbifock.twisted.delta_coefficients`,
    which reads C(-1/2, m) at k = -1/2.  An int for an int k or at n = 1,
    a Fraction otherwise; zero exactly when k is an integer with
    -n < k < 0.
    """
    num = 1
    top = -k - 1
    for j in range(n - 1):
        num *= top - j
    if isinstance(num, int):
        return num // factorial(n - 1)
    return num / factorial(n - 1)


@lru_cache(maxsize=CACHE_SIZE)
def _contractions(mono, tmono):
    """The contraction patterns of mono against tmono, as a tuple of
    (rest of tmono, creating factors of mono, sum of p + n over the
    contractions, the patterns' summed int weight) (module docstring).
    The patterns do not depend on the shift, so each pair's are made once
    and kept while the pair is among the ``CACHE_SIZE`` used most
    recently."""
    parts = {(tmono, (), 0): 1}
    for factor in mono:
        g, m = factor
        p = -m
        grown = {}
        for (rest, made, s), c in parts.items():
            key = (rest, (*made, factor), s)
            grown[key] = grown.get(key, 0) + c
            for n in {-k for h, k in rest if h == g}:
                reduced, x = annihilate(rest, g, n)
                key = (reduced, made, s + p + n)
                grown[key] = grown.get(key, 0) + c * x * d_coeff(n, p)
        parts = grown
    return tuple((*key, c) for key, c in parts.items())


@lru_cache(maxsize=CACHE_SIZE)
def _creations(creators, top, w):
    """The sum over i of C(w, i) times the creators moved by added weight
    top - i, as (sorted modes, coefficient) pairs.

    Each factor h_g(-n) becomes h_g(-n-j) with weight C(n+j-1, j) (module
    docstring).  The ``CACHE_SIZE`` answers used most recently are kept:
    an echelon build reads most of its vacuum-circle keys once.
    """
    parts = {((), 0): 1}  # (modes so far, their added weight) -> coefficient
    for factor in creators:
        g, m = factor
        n = -m
        moved = [factor] + [(g, m - j) for j in range(1, top + 1)]
        grown = {}
        for (modes, used), c in parts.items():
            for j in range(top - used + 1):
                key = ((*modes, moved[j]), used + j)
                grown[key] = grown.get(key, 0) + c * comb(n + j - 1, j)
        parts = grown
    out = {}
    for (modes, used), c in parts.items():
        if top - used <= w:
            full = tuple(sorted(modes))
            out[full] = out.get(full, 0) + comb(w, top - used) * c
    return tuple(out.items())


def mode_component(u, v, shift):
    """sum_i C(wt m, i) m_{i-shift} t over the monomials m of u and t of v,
    for shift >= 1: star is shift 1, circ_n shift n + 2.

    The sum is bilinear, and every term is an integer combination of
    monomials when its inputs have integer coefficients.  So the walk reads
    u and v in their integer forms, over the lcms du and dv of their
    coefficients' denominators, runs in Python ints, and the state is born
    as the int sums over du * dv (:meth:`FockVector.from_integer`): no
    coefficient is made a Fraction.
    """
    du, uterms = u.integer_form()
    dv, vterms = v.integer_form()
    acc = {}
    for mono, c in uterms.items():
        w = mono_weight(mono)
        for tmono, tc in vterms.items():
            for rest, made, s, x in _contractions(mono, tmono):
                x *= c * tc
                for modes, y in _creations(made, shift - 1 + s, w):
                    full = tuple(sorted((*rest, *modes))) if rest else modes
                    acc[full] = acc.get(full, 0) + x * y
    return FockVector.from_integer(u.ell, du * dv, acc)

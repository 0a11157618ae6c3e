"""Vertex-operator mode components on the vacuum module of the free boson.

The products of :mod:`orbifock.zhu` take one (state monomial, target
monomial) pair at a time, and two kinds of pair have a closed form by
Wick's theorem.

*Vacuum target.*  Y(m, z)|0> = exp(z L(-1)) m, so m_q|0> = 0 for q >= 0
and m_{-1-j}|0> is the weight-j part of exp(L(-1)) m: for
m = h(-n_1) ... h(-n_k),

    m_{-1-j}|0> = sum_{i_1+...+i_k = j} prod_r C(n_r+i_r-1, i_r) h(-n_r-i_r),

which is :func:`vacuum_component`.  Hence circ_0(m, |0>) = L(-1)m + wt(m) m
and star(m, |0>) = m.

*State of at most two factors.*  The vacuum acts as |0>_q t = delta_{q,-1} t,
and u = h_a(-p) h_b(-r) has the normal-ordered modes

    u_q = sum_{k+l = q+1-p-r} d(k, p) d(l, r) :h_a(k) h_b(l):,

with d(k, n) = C(-k-1, n-1) (:func:`d_coeff`).  The products need
sum_i C(w, i) u_{i-shift} t over 0 <= i <= w = p + r with shift >= 1, and
there k + l = i+1-w-shift <= 0.  Two contractions would need k + l >= 2,
and h(0) kills the vacuum module, so either both modes create (k <= -p,
l <= -r, only when i < shift) or one contracts a factor h(-n) of the
target t and the other creates.  The contraction does not depend on i, so
:func:`wick_sum` makes each one once and then only places the creation
mode for every i.

Every other pair, a state monomial of three or more factors on a target
other than the vacuum, goes to the Borcherds recursion of
:func:`mode_component`.  No seed factor of a circle-span policy has more
than two modes, so only script products (J_a, nested products) reach it.
The state a = h_g(-1)|0> has the modes a_k = h_g(k), and every monomial
is built from such factors: h_g(-n) w = a_{-n} w.  The Borcherds identity
for a_{-n} w therefore peels one factor off a monomial at a time:

    (h_g(-n) w)_q t = sum_{i >= 0} C(n+i-1, i) [ h_g(-n-i) w_{q+i} t
                                                - (-1)^n w_{q-n-i} h_g(i) t ]

with |0>_q t = delta_{q,-1} t at the bottom.  Both sums are finite.  The
component w_{q+i} t has weight wt w + wt t - q - i - 1, so the first sum
stops once that is negative.  In the second, h_g(0) kills the vacuum
module and h_g(i) with i >= 1 contracts a factor h_g(-i) of t, so only the
i with h_g(-i) in t contribute.

The recursion runs per (state monomial, target monomial) pair and memoizes
each (monomial, q, target monomial) it meets.  The memo lives for one
product: :func:`orbifock.zhu.star` and :func:`orbifock.zhu.circ_n` create
it and pass it to each of their :func:`mode_component` calls, which share
peeled suffixes and contracted targets.  A build thus holds the memo of one
circle at a time; a memo shared by the whole build would grow with it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from .fock import FockVector, annihilate, mono_weight


@lru_cache(maxsize=None)
def d_coeff(k, n):
    """The coefficient C(-k-1, n-1), for an int or Fraction mode index k.

    It weighs the mode h(k) in the field of h(-n)|0>; its users are
    :func:`wick_sum`, :func:`orbifock.toplevel.top_level_matrix`, which
    reads the twisted top level at k = +-1/2, and
    :func:`orbifock.twisted.delta_coefficients`, which reads C(-1/2, m) at
    k = -1/2.  An int for an int k or at n = 1, a Fraction otherwise; zero
    exactly when k is an integer with -n < k < 0.
    """
    num = 1
    top = -k - 1
    for j in range(n - 1):
        num *= top - j
    if isinstance(num, int):
        return num // factorial(n - 1)
    return num / factorial(n - 1)


def vacuum_component(mono, j):
    """mono_{-1-j}|0> as a term dict: the weight-j part of exp(L(-1)) mono.

    Each factor h_g(-n) of mono becomes h_g(-n-i) with weight C(n+i-1, i),
    and the i of all factors add up to j (module docstring).
    """
    if not j:
        return {mono: 1}
    parts = {((), 0): 1}  # (modes so far, their added weight) -> coefficient
    for g, m in mono:
        n = -m
        grown = {}
        for (modes, used), c in parts.items():
            for i in range(j - used + 1):
                key = ((*modes, (g, m - i)), used + i)
                grown[key] = grown.get(key, 0) + c * comb(n + i - 1, i)
        parts = grown
    out = {}
    for (modes, used), c in parts.items():
        if used == j:
            full = tuple(sorted(modes))
            out[full] = out.get(full, 0) + c
    return out


def wick_sum(mono, shift, tmono):
    """sum_i C(w, i) mono_{i-shift} tmono as a term dict, w = wt mono.

    For a monomial of zero or two factors.  With mono = h_a(-p) h_b(-r),
    the i-th term has k + l = i+1-w-shift <= 0 (module docstring), so
    either both modes create or one contracts a factor of tmono and the
    other creates.  Each contraction of tmono is made once, and every i
    then only places its creation mode.
    """
    if not mono:
        return {tmono: 1} if shift == 1 else {}
    (a, p), (b, r) = mono
    p, r = -p, -r
    w = p + r
    s0 = 1 - w - shift  # k + l at i = 0
    out = {}
    # Both create: k <= -p and l <= -r, so k + l <= -w, which needs i < shift.
    for i in range(min(w + 1, shift)):
        ci = comb(w, i)
        s = s0 + i
        for k in range(s + r, -p + 1):
            l = s - k
            m = tuple(sorted((*tmono, (a, k), (b, l))))
            out[m] = out.get(m, 0) + ci * d_coeff(k, p) * d_coeff(l, r)
    # The factor h_g(-pg) of mono contracts a factor h_g(-n) of tmono, and
    # the other factor h_h(-ph) creates h_h(k) with k = s0 + i - n <= -ph.
    for g, pg, h, ph in ((b, r, a, p), (a, p, b, r)):
        for n in {-m for g2, m in tmono if g2 == g}:
            red, x = annihilate(tmono, g, n)
            x *= d_coeff(n, pg)
            for i in range(min(w, pg + n + shift - 1) + 1):
                k = s0 + i - n
                m = tuple(sorted((*red, (h, k))))
                out[m] = out.get(m, 0) + comb(w, i) * d_coeff(k, ph) * x
    return {m: c for m, c in out.items() if c}


def _component(mono, q, tmono, memo):
    """mono_q tmono as a term dict, peeling mono's first factor h_g(-n).

    Writes mono = h_g(-n) w and applies the Borcherds identity (module
    docstring); the memo holds every (monomial, q, target monomial) met.
    """
    key = (mono, q, tmono)
    out = memo.get(key)
    if out is not None:
        return out
    out = {}
    if not mono:
        if q == -1:
            out[tmono] = 1
        memo[key] = out
        return out
    (g, m), w = mono[0], mono[1:]
    n = -m
    # w_{q+i} tmono has weight wt w + wt tmono - q - i - 1, which must be >= 0.
    for i in range(mono_weight(w) + mono_weight(tmono) - q):
        c = comb(n + i - 1, i)
        mode = (g, m - i)
        for wmono, x in _component(w, q + i, tmono, memo).items():
            full = tuple(sorted((*wmono, mode)))
            out[full] = out.get(full, 0) + c * x
    # h_g(i) t, i >= 1, contracts a factor h_g(-i) of t; h_g(0) kills t.
    sign = -1 if n % 2 == 0 else 1
    for i in {-m for h, m in tmono if h == g}:
        reduced, y = annihilate(tmono, g, i)
        c = sign * comb(n + i - 1, i) * y
        for wmono, x in _component(w, q - n - i, reduced, memo).items():
            out[wmono] = out.get(wmono, 0) + c * x
    memo[key] = out
    return out


def mode_component(v, m, target, *, memo=None):
    """The component v_m of Y(v,z) applied to ``target``.

    ``memo`` is shared by the calls of one product (see the module
    docstring); each call without one gets a fresh dict.
    """
    if v.ell != target.ell:
        raise ValueError("rank mismatch between state and target")
    if memo is None:
        memo = {}
    acc = {}
    for mono, c in v.terms.items():
        for tmono, tc in target.terms.items():
            for full, x in _component(mono, m, tmono, memo).items():
                acc[full] = acc.get(full, 0) + c * tc * x
    return FockVector(target.ell, acc)


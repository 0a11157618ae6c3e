"""The twisted sector: exponential correction table and corrected fields.

The twisted module supports a plain normally ordered field over half-integer
modes, but the honest module action corrects the inserted state first:
``Y_tw(v, z) = W(exp(Delta_z) v, z)`` where

    Delta_z = sum_{m,n >= 1} c_mn sum_i h_i(m) h_i(n) z^(-m-n)

and the rationals ``c_mn`` are read off the bivariate series

    -log( (sqrt(1+x) + sqrt(1+y)) / 2 ).

Rows/columns with m = 0 or n = 0 are dropped: the zero mode kills the vacuum
module, so those terms never act.  Each application of Delta removes two
units of mode-weight, making the exponential a finite sum.
"""

from __future__ import annotations

from fractions import Fraction

from .fock import FockVector, apply_mode2
from .vertex import mode_component


def _series_sqrt1p(deg):
    """Coefficients of sqrt(1+t) up to degree ``deg``."""
    out = [Fraction(1)]
    for k in range(1, deg + 1):
        out.append(out[-1] * (Fraction(1, 2) - (k - 1)) / k)
    return out


def _bivariate_log_series(deg):
    """Dense table of the generating series, total degree <= deg."""
    sq = _series_sqrt1p(deg)
    # g(x, y) = (sqrt(1+x) + sqrt(1+y))/2 - 1, no constant term.
    g = [[Fraction(0)] * (deg + 1) for _ in range(deg + 1)]
    for k in range(1, deg + 1):
        g[k][0] += sq[k] / 2
        g[0][k] += sq[k] / 2

    def mul(a, b):
        out = [[Fraction(0)] * (deg + 1) for _ in range(deg + 1)]
        for i in range(deg + 1):
            row = a[i]
            for j in range(deg + 1 - i):
                ca = row[j]
                if not ca:
                    continue
                for p in range(deg + 1 - i - j):
                    brow = b[p]
                    for q in range(deg + 1 - i - j - p):
                        cb = brow[q]
                        if cb:
                            out[i + p][j + q] += ca * cb
        return out

    # -log(1 + g) = sum_{j>=1} (-1)^j g^j / j
    total = [[Fraction(0)] * (deg + 1) for _ in range(deg + 1)]
    power = g
    sign = -1
    for j in range(1, deg + 1):
        for i in range(deg + 1):
            for k in range(deg + 1 - i):
                if power[i][k]:
                    total[i][k] += Fraction(sign, j) * power[i][k]
        if j < deg:
            power = mul(power, g)
        sign = -sign
    return total


class DeltaTable:
    """Exact coefficients c_mn for 1 <= m, n and m + n <= max_degree."""

    __slots__ = ("max_degree", "entries")

    def __init__(self, max_degree, entries):
        self.max_degree = max_degree
        self.entries = dict(entries)
        for (m, n), c in self.entries.items():
            if self.entries.get((n, m)) != c:
                raise ValueError(f"asymmetric table entry at ({m},{n})")

    def to_text(self):
        lines = [f"# delta table, degree {self.max_degree}"]
        for (m, n) in sorted(self.entries):
            lines.append(f"{m} {n} {self.entries[m, n]}")
        return "\n".join(lines) + "\n"


def delta_coefficients(max_degree):
    """Compute the correction table by exact series composition."""
    if max_degree < 2:
        raise ValueError("max_degree must be at least 2")
    total = _bivariate_log_series(max_degree)
    entries = {}
    for m in range(1, max_degree):
        for n in range(1, max_degree + 1 - m):
            c = total[m][n]
            if c:
                entries[m, n] = c
    return DeltaTable(max_degree, entries)


# The largest table built so far; a table serves every smaller degree.
_largest = None


def delta_table(degree):
    """A shared table of degree at least ``degree`` (and at least 2)."""
    global _largest
    degree = max(2, degree)
    if _largest is None or degree > _largest.max_degree:
        _largest = delta_coefficients(degree)
    return _largest


def _delta_once(v, table):
    """Apply Delta_z once: map z-exponent -> contracted untwisted vector."""
    buckets = {}
    for (m, n), c in table.entries.items():
        shift = -(m + n)
        for i in range(1, v.ell + 1):
            w = apply_mode2(i, 2 * n, v)
            if not w:
                continue
            w = apply_mode2(i, 2 * m, w)
            if not w:
                continue
            prev = buckets.get(shift)
            buckets[shift] = c * w if prev is None else prev + c * w
    return {s: w for s, w in buckets.items() if w}


def apply_delta(v, table):
    """The finite expansion of exp(Delta_z) v, keyed by z-exponent.

    Requires the table degree to cover the state's mode-weight; each Delta
    application removes two units of weight, so the sum terminates on its
    own and the bucket at exponent -k is homogeneous of weight(v) - k when
    v is homogeneous.
    """
    if v.twisted:
        raise ValueError("apply_delta acts on untwisted states")
    if v.max_weight2() > 2 * table.max_degree:
        raise ValueError(
            f"delta table degree {table.max_degree} too small for a state of "
            f"weight {Fraction(v.max_weight2(), 2)}")
    buckets = {0: v}
    frontier = {0: v}
    k = 0
    fact = 1
    while frontier:
        k += 1
        fact *= k
        nxt = {}
        for s, w in frontier.items():
            for ds, dw in _delta_once(w, table).items():
                key = s + ds
                prev = nxt.get(key)
                nxt[key] = dw if prev is None else prev + dw
        frontier = {s: w for s, w in nxt.items() if w}
        inv_fact = Fraction(1, fact)
        for s, w in frontier.items():
            scaled = inv_fact * w
            prev = buckets.get(s)
            buckets[s] = scaled if prev is None else prev + scaled
    return {s: w for s, w in buckets.items() if w}


def twisted_zero_mode(v, target, table=None):
    """The grade-preserving component of the corrected twisted field.

    Only even (theta-fixed) states have integral components on the twisted
    module; odd-parity input is rejected.  Without ``table`` the shared
    table sized by the state's maximal weight is used.
    """
    if not v.is_even():
        raise ValueError("twisted components need an even-parity state")
    if not target.twisted:
        raise ValueError("target must live in the twisted sector")
    if table is None:
        table = delta_table(v.max_weight2() // 2)
    out = FockVector.zero(target.ell, True)
    for w2, comp in v.graded_components().items():
        if w2 % 2:
            raise ValueError("state has half-integer weight; no integral zero mode")
        for shift, w in apply_delta(comp, table).items():
            out = out + mode_component(w, w2 // 2 - 1 + shift, target)
    return out

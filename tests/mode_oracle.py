"""Single Heisenberg modes and the Borcherds recursion, the desk oracle.

The package never applies one mode at a time: products go through the one
Wick walk ``vertex.mode_component``, and top levels through closed forms.
The oracle tests build their expected values from the single modes here
instead, including exp(Delta_z) in operator form (:func:`reference_delta`),
against which :func:`delta_terms` reads the package's expansion and
:func:`reference_reading` the twisted top levels.  Single
mode components v_m t come from the Borcherds recursion
(:func:`mode_component`), and the products' reference,
:func:`reference_product`, sums them.  The exact linear algebra has dense
``Fraction`` references too: :func:`fraction_rank` for ``zhu.exact_rank``,
:func:`fraction_reduce` for ``OSpanEchelon.reduce`` and
:class:`FractionMatrix` for ``toplevel.Matrix``.  The package echelonizes
one parity sector at a time; :class:`WholeWindow` is the circle span with
every sector built, read as the echelon of the whole even window, the form
the span tests read.
"""

from fractions import Fraction
from math import comb

from orbifock import twisted
from orbifock.coeffs import clear_denominators
from orbifock.fock import FockVector, annihilate, basis, mono_weight, sector
from orbifock.toplevel import top_level_matrix
from orbifock.twisted import apply_delta, delta_coefficients
from orbifock.zhu import (DEFAULT_POLICY, CircleSpan, OSpanEchelon,
                          build_ospan, omega)

# Marker for a symbolic highest weight: h_g(0) acts as the polynomial l_g,
# spelled as the formal factor (g, 0) (see :func:`symbolic_vector`).
SYMBOLIC = "symbolic"


def _insert_mode(mono, gen, n):
    """Insert one creation mode, keeping the canonical sort."""
    out = list(mono)
    key = (gen, n)
    lo = 0
    while lo < len(out) and out[lo] <= key:
        lo += 1
    out.insert(lo, key)
    return tuple(out)


def apply_mode(gen, n, vec, hw=None):
    """Act with the Heisenberg mode h_gen(n) on a vector.

    Creation modes (n < 0) multiply into each monomial.  Annihilation modes
    contract against matching creation modes via [h_a(m), h_b(k)] = m d_ab
    d_{m+k,0}.  The zero mode multiplies by the highest-weight pairing: the
    polynomial l_gen when ``hw`` is :data:`SYMBOLIC`, the given numeric value
    when ``hw`` is a tuple, and 0 when ``hw`` is None (the vacuum module).
    A state's coefficients are rational, so l_gen enters as a formal factor
    ``(gen, 0)`` of each monomial: h_gen(0) is central, and no annihilator
    matches such a factor.
    Half-integer modes, given as Fractions, act the same way on the
    twisted module's states, whose monomials hold Fraction indices such as
    ``(j, Fraction(-1, 2))`` for h_j(-1/2).
    """
    if not 1 <= gen <= vec.ell:
        raise ValueError(f"generator index {gen} out of range 1..{vec.ell}")
    ell = vec.ell
    if n < 0 or (n == 0 and hw == SYMBOLIC):
        return FockVector(ell, {_insert_mode(m, gen, n): c
                                for m, c in vec.terms.items()})
    if n == 0:
        if hw is None:
            return FockVector.zero(ell)
        return vec.scale(hw[gen - 1])
    terms = {}
    for mono, c in vec.terms.items():
        hit = annihilate(mono, gen, n)
        if hit:
            reduced, x = hit
            terms[reduced] = terms.get(reduced, 0) + c * x
    return FockVector(ell, terms)


def symbolic_vector(poly):
    """An Mlambda reading, the ``LPoly`` ``poly`` in l_1..l_ell, as the
    vacuum-module vector :func:`apply_mode` spells it at a :data:`SYMBOLIC`
    highest weight: each l_g is a formal factor ``(g, 0)``."""
    return FockVector(poly.ell, {
        tuple((g, 0) for g, e in enumerate(exps, 1) for _ in range(e)): c
        for exps, c in poly.terms.items()})


def _component(mono, q, tmono, memo):
    """mono_q tmono as a term dict, peeling mono's first factor h_g(-n).

    The state a = h_g(-1)|0> has the modes a_k = h_g(k), and
    h_g(-n) w = a_{-n} w, so the Borcherds identity peels one factor off a
    monomial at a time:

        (h_g(-n) w)_q t = sum_{i >= 0} C(n+i-1, i) [ h_g(-n-i) w_{q+i} t
                                                    - (-1)^n w_{q-n-i} h_g(i) t ]

    with |0>_q t = delta_{q,-1} t at the bottom.  Both sums are finite.
    The component w_{q+i} t has weight wt w + wt t - q - i - 1, so the
    first sum stops once that is negative.  In the second, h_g(0) kills
    the vacuum module and h_g(i) with i >= 1 contracts a factor h_g(-i) of
    t, so only the i with h_g(-i) in t contribute.  The memo holds every
    (monomial, q, target monomial) met.
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
    """The component v_m of Y(v,z) applied to ``target``, by the Borcherds
    recursion.  Calls that pass one ``memo`` dict share its components."""
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


def virasoro(a, n, v):
    """The coordinate Virasoro mode L_a(n), the (n+1)-component of omega_a."""
    return mode_component(omega(v.ell, a), n + 1, v)


def reference_delta(v, table):
    """exp(Delta_z) v in operator form: Delta applied k times, over k!.

    Keyed by z-exponent: Delta lowers the weight by m + n at exponent
    -(m+n), so bucket s of a homogeneous v has weight wt v + s.
    """
    buckets, frontier, k = {}, {0: v}, 0
    while frontier:
        for s, w in frontier.items():
            buckets[s] = buckets.get(s, FockVector.zero(v.ell)) + w
        k += 1
        nxt = {}
        for s, w in frontier.items():
            for (m, n), c in table.items():
                for i in range(1, v.ell + 1):
                    dw = apply_mode(i, m, apply_mode(i, n, w))
                    if dw:
                        prev = nxt.get(s - m - n, FockVector.zero(v.ell))
                        nxt[s - m - n] = prev + Fraction(c, k) * dw
        frontier = {s: w for s, w in nxt.items() if w}
    return {s: w for s, w in buckets.items() if w}


def delta_terms(v):
    """``twisted.apply_delta(v)`` as {remainder: Fraction}: each int
    numerator over the expansion's one denominator."""
    den, terms = apply_delta(v)
    return {m: Fraction(c, den) for m, c in terms.items()}


def reference_reading(v, fam):
    """v's Tplus or Tminus reading from exp(Delta_z) in operator form
    (:func:`reference_delta`) over the table of v's own weight: the
    coefficient of |0>_tw, or the matrix of the whole expansion on the
    h_j(-1/2)|0>_tw."""
    table = delta_coefficients(max(2, v.max_weight()))
    full = sum(reference_delta(v, table).values(), FockVector.zero(v.ell))
    if fam == "Tplus":
        return Fraction(full.coeff(()))
    return top_level_matrix(*clear_denominators(full.terms), v.ell,
                            Fraction(1, 2))


def clear_twisted_caches():
    """Empty the delta table and both expansion caches of
    :mod:`orbifock.twisted`, as in a fresh process.  A state read before
    keeps its twisted sum, so only fresh states go through the caches."""
    for cached in (twisted._delta, twisted._matchings, twisted._expansion):
        cached.cache_clear()


def graded_parts(u):
    """Map from weight to u's homogeneous component, ascending."""
    parts = {}
    for m, c in u.terms.items():
        parts.setdefault(mono_weight(m), {})[m] = c
    return {w: FockVector(u.ell, t) for w, t in sorted(parts.items())}


def reference_product(u, v, shift):
    """sum_i C(wt u, i) u_{i-shift} v over the homogeneous parts of u.

    The products star (shift 1) and circ_n (shift n + 2) with every mode
    component from the Borcherds recursion, whose calls share one memo.
    """
    out = FockVector.zero(u.ell)
    memo = {}
    for w, comp in graded_parts(u).items():
        for i in range(w + 1):
            out = out + comb(w, i) * mode_component(comp, i - shift, v, memo=memo)
    return out


def fraction_rank(rows):
    """Rank of dense rows of rationals by Fraction row echelon.

    Entries become Fractions first: ``/`` on two ints would divide in floats.
    """
    rows = [[Fraction(v) for v in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def fraction_reduce(echelon, vec):
    """Normal form of vec modulo a fully reduced echelon, in Fractions.

    One subtraction per pivot column of vec, each with one division; no
    row touches another's pivot column, so none brings in a new one.
    """
    work = {echelon.col_index[mono]: Fraction(c) for mono, c in vec.terms.items()}
    for p in [c for c in work if c in echelon.rows]:
        prow = echelon.rows[p]
        f = work[p] / prow[p]
        for c, v in prow.items():
            s = work.get(c, 0) - f * v
            if s:
                work[c] = s
            else:
                del work[c]
    return FockVector(vec.ell,
                      {echelon.columns[c]: v for c, v in work.items()})


def even_sectors(ell):
    """The parity sectors of rank ell that hold even monomials."""
    return [s for s in range(1 << ell) if s.bit_count() % 2 == 0]


class WholeWindow(CircleSpan):
    """The circle span with every even sector's echelon built, or empty
    when ``build`` is false, read as the echelon of every even monomial of
    weight at most ``window``.

    ``columns`` run in ``basis`` order and ``rows`` are the sectors' rows
    reindexed to them, kept until the next insert: the fully reduced
    echelon of a direct sum over disjoint column sets is the union of the
    blocks'.  :meth:`insert` routes a vector of one sector, such as a
    circle, to that sector's echelon.  It keeps its own ``window``, at
    which :meth:`reduce` reads every sector.
    """

    def __init__(self, ell, window, policy=DEFAULT_POLICY, cache_dir=None,
                 build=True):
        def make(s):
            if build:
                return build_ospan(ell, window, policy, cache_dir, sector=s)
            return OSpanEchelon(ell, window, policy, sector=s)

        super().__init__(ell, policy, cache_dir)
        self.window = window
        self.echelons = {s: make(s) for s in even_sectors(ell)}
        self.columns = [m for w in range(window + 1) for m in basis(ell, w, "even")]
        self.col_index = {m: i for i, m in enumerate(self.columns)}
        self._rows = None

    @property
    def rows(self):
        if self._rows is None:
            self._rows = {}
            for e in self.echelons.values():
                index = [self.col_index[m] for m in e.columns]
                for p, row in e.rows.items():
                    self._rows[index[p]] = {index[c]: v for c, v in row.items()}
        return self._rows

    def reduce(self, vec, low=0):
        return super().reduce(vec, self.window, low)

    def insert(self, vec):
        (s,) = {sector(m) for m in vec.terms}
        self._rows = None
        e = self.echelons[s]
        return e.insert(e.row(vec))


class FractionMatrix:
    """A square matrix of Fractions entry by entry, the reference for
    ``toplevel.Matrix``, which holds integer numerators over one
    denominator."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(v) for v in row) for row in rows)

    def __add__(self, other):
        if not isinstance(other, FractionMatrix):
            return NotImplemented
        return FractionMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return FractionMatrix([[-v for v in row] for row in self.rows])

    def __sub__(self, other):
        if not isinstance(other, FractionMatrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FractionMatrix):
            cols = list(zip(*other.rows))
            return FractionMatrix([[sum((a * b for a, b in zip(row, col)),
                                        Fraction(0))
                                    for col in cols] for row in self.rows])
        if isinstance(other, (int, Fraction)):
            return FractionMatrix([[other * v for v in row]
                                   for row in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, FractionMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __bool__(self):
        return any(v for row in self.rows for v in row)

    def __str__(self):
        return "[" + ";".join(",".join(str(v) for v in row)
                              for row in self.rows) + "]"

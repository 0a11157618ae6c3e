"""Zhu-style products, named generators, and the circle-span reduction engine.

The associative quotient of the even subalgebra is built from two bilinear
operations on states,

    star(u, v)   = sum_i C(wt u, i) u_{i-1} v
    circ_n(u, v) = sum_i C(wt u, i) u_{i-n-2} v      (n >= 0),

where every ``circ_n`` lands in the span O of circle elements, which acts as
zero on the top level of every admissible module.  Both run through one Wick
walk, :func:`orbifock.vertex.mode_component`, at shift 1 and at shift n + 2.
Membership in a weight-truncated piece of O is decided by exact integer
Gauss-Jordan elimination over the even monomial basis: the echelon's rows
are kept fully reduced, so reducing a vector makes one subtraction per pivot
column it touches.  A certificate of membership is sound, a failure is only
inconclusive because circle elements mix weights.

A build maps each circle once to its integer row (:meth:`OSpanEchelon.row`)
and inserts the rows one top weight of their pairs at a time, each batch in
ascending pivot column, the row's largest.  Columns run in weight order, so
a new row's pivot then mostly lies above every existing pivot, and few rows
hold an entry in its column to clear.  The fully reduced rows depend only
on the span, so the order changes the work of a build, never its rows.

Parity sectors.  The sector of a monomial (:func:`sector`) is the bitmask
of the generators h_g that occur in it an odd number of times.  Flipping
the sign of one generator, h_g -> -h_g, is an automorphism of the vertex
algebra that commutes with theta, so it maps star, circ_n and O to
themselves; a monomial is an eigenvector, of sign (-1) to its number of h_g
modes.  Hence star(u, v) and circ_n(u, v) of two vectors of one sector
each lie in sector(u) XOR sector(v): every Wick contraction removes one
h_g mode from each side.  The vacuum circles circ_0(m, |0>) keep the
sector of m, and each factor of a policy lies in one sector, so each seed
lies in one sector and the truncated span is the direct sum of its sector
parts, each spanned by that sector's seeds.  An echelon holds one sector
part (``build_ospan(..., sector=s)``), and a vector is in the span exactly
when each of its sector parts is in its sector's (:class:`CircleSpan`).

The same integer step (:func:`_eliminate`, :func:`_insert_row`) ranks any
sparse rational rows on a scratch echelon (:func:`exact_rank`).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter

from . import fock
from .coeffs import clear_denominators
from .fock import (FockVector, basis, count_sector, make_monomial, mono_key,
                   mono_weight, sector, single)
from .vertex import mode_component

FORMAT_VERSION = 5

# Hard resource guards: echelons and realized products above this weight, and
# echelons of more columns (the largest sector of ``verify --rank 8`` at window
# 10, {}, has 13,643), are refused, not attempted.
MAX_WEIGHT_CAP = 16
MAX_COLUMNS = 400_000


# ---------------------------------------------------------------------------
# Products

def star(u, v):
    """The associative product representative star(u, v)."""
    _check_arguments(u, v, "star")
    return mode_component(u, v, 1)


def circ_n(u, v, n=0):
    """The circle element circ_n(u, v); always a member of the span O.

    Echelons are seeded with circ_0 alone, because every circ_n with
    n >= 1 is a combination of circ_0 circles of no higher top weight (see
    :class:`GeneratorPolicy`); scripts may still ask for any n >= 0.
    """
    if n < 0:
        raise ValueError("circle index n must be nonnegative")
    _check_arguments(u, v, "circ_n")
    return mode_component(u, v, n + 2)


def _check_arguments(u, v, opname):
    """Both arguments of a product even and of one rank."""
    if not (u.is_even() and v.is_even()):
        raise ValueError(f"{opname} argument has odd-parity terms")
    if u.ell != v.ell:
        raise ValueError(f"rank mismatch in {opname}")


# ---------------------------------------------------------------------------
# Named generators

def omega(rank, a):
    """The coordinate conformal vector (1/2) h_a(-1)^2."""
    return single(rank, [(a, -1), (a, -1)], Fraction(1, 2))


def jgen(rank, a):
    """The weight-4 singlet h_a(-1)^4 - 2 h_a(-3)h_a(-1) + 3/2 h_a(-2)^2."""
    return (single(rank, [(a, -1)] * 4)
            + single(rank, [(a, -3), (a, -1)], -2)
            + single(rank, [(a, -2), (a, -2)], Fraction(3, 2)))


def hgen(rank, a):
    """The combination J_a + w_a - 4 w_a*w_a that kills highest-weight
    modules.  The quartic parts of J_a and 4 w_a*w_a cancel, so it is
    -7/2 h_a(-1)^2 - 8 h_a(-2)h_a(-1) - 6 h_a(-3)h_a(-1) + 3/2 h_a(-2)^2."""
    return FockVector(rank, {make_monomial(rank, modes): c for modes, c in (
        ([(a, -1)] * 2, Fraction(-7, 2)), ([(a, -2), (a, -1)], -8),
        ([(a, -3), (a, -1)], -6), ([(a, -2)] * 2, Fraction(3, 2)))})


def s_pair(rank, a, m, b, n):
    """The quadratic h_a(-m) h_b(-n)."""
    return single(rank, [(a, -m), (b, -n)])


def _s_combo(rank, a, b, coeffs, name):
    """The sum of c * h_a(-1) h_b(-m) over the (m, c) pairs, as one vector,
    for distinct a and b in 1..rank; the errors name the generator ``name``."""
    if not (1 <= a <= rank and 1 <= b <= rank):
        raise ValueError(f"{name} index out of range 1..{rank}")
    if a == b:
        raise ValueError(f"{name} needs two distinct generator indices")
    return FockVector(rank, {make_monomial(rank, [(a, -1), (b, -m)]): c
                             for m, c in coeffs})


def e_u(rank, a, b):
    """Matrix-unit candidate supported on the untwisted minus module."""
    return _s_combo(rank, a, b, [(2, 5), (3, 25), (4, 36), (5, 16)], "Eu")


def e_u_bar(rank, a, b):
    """Alternative representative of the same class as e_u(rank, a, b)."""
    return _s_combo(rank, b, a, [(1, 1), (2, 14), (3, 41), (4, 44), (5, 16)],
                    "Eubar")


def e_t(rank, a, b):
    """Matrix-unit candidate supported on the twisted minus module."""
    return _s_combo(rank, a, b, [(2, -48), (3, -224), (4, -304), (5, -128)],
                    "Et")


def e_t_bar(rank, a, b):
    """Alternative representative of the same class as e_t(rank, a, b)."""
    return _s_combo(rank, b, a, [(2, -80), (3, -288), (4, -336), (5, -128)],
                    "Etbar")


def lam(rank, a, b):
    """The central element seeing only the highest-weight family."""
    return _s_combo(rank, a, b, [(2, 45), (3, 190), (4, 240), (5, 96)], "Lam")


# ---------------------------------------------------------------------------
# Generator policies and the echelonized circle span

@dataclass(frozen=True)
class GeneratorPolicy:
    """Which circle elements seed the truncated span.

    A policy is a list of left factors and a listing of right factors
    (:meth:`factors`).  The span is seeded by the vacuum circles
    circ_0(m, |0>) of every even monomial m, and by circ_0(a, v) for each
    left factor a and each right factor v whose circle fits the window: in
    the part of sector s at window W, the v of sector s XOR sector(a) and
    of weight 1 to W - 1 - wt a.  The right factors of a (sector, weight)
    are its even monomials unless a policy says otherwise.  The policies
    nest:

    - ``"omega"``: left = the squares h_a(-1)^2 = 2 omega_a of the
      coordinate conformal vectors, the family behind the one-sided
      weight-reduction arguments.  A circle is linear in its left factor,
      so the factor 2 changes no row and keeps every seed integral.
    - ``"all"`` (the default): left = the h_a(-1)^2, the off-diagonal
      quadratics h_a(-1)h_b(-1) (a < b) and the squares h_a(-2)^2.  It
      spans what circ_n(u, v) over all pairs of even monomials and all n
      span, and what the paper's singlets J_a seeded (tested at rank 1 for
      windows 0-12; sampled at ranks 1-8 up to window 16).  At rank 1 the
      seed h_1(-2)^2 keeps 1 row more than h_1(-1)^2 alone at window 10
      and 2 at window 12.
    - ``"quadratic"``: left = right = the two-mode monomials of every
      weight, which is what the four-index sign relations come from.

    The circles with n >= 1 are not seeded.  Integrating Y(L(-1)a, z) =
    d/dz Y(a, z) by parts gives

        circ_n(L(-1)a, v) + wt a circ_n(a, v)
            = (n+1) circ_n(a, v) + (n+2) circ_{n+1}(a, v),

    so circ_n(a, v) is a combination of circ_0(L(-1)^j a, v), j <= n, each
    of top weight at most that of circ_n(a, v) (Zhu, Lemma 2.1.2).  L(-1)
    maps a monomial to monomials of one more weight and as many modes, so
    circ_0 alone is exact under truncation for the vacuum circles, for
    ``"quadratic"`` and for circles over all pairs of monomials; for the
    generator lists of ``"omega"`` and ``"all"`` the tests compare the span
    with all n and all pairs.
    """

    pairs: str = "all"

    def __post_init__(self):
        if self.pairs not in ("all", "omega", "quadratic"):
            raise ValueError(f"unknown pair policy {self.pairs!r}")

    def key(self):
        return f"pairs={self.pairs}"

    def factors(self, ell, limit):
        """(left, right) for the circles that fit within ``limit``: the left
        factors as monomials, in the order their circles are listed (under
        ``"quadratic"`` the canonical order), and ``right(s, w)``, the right
        factors of sector s and weight w >= 1 as monomials in the canonical
        order, or None when they are the even monomials of (s, w)."""
        gens = range(1, ell + 1)
        if self.pairs == "quadratic":
            # A two-mode u meets a two-mode v only if wt u + 3 <= limit.
            quads = sorted({make_monomial(ell, [(a, -m), (b, -n)])
                            for a in gens for b in gens
                            for m in range(1, limit - 3)
                            for n in range(1, limit - 2 - m)}, key=mono_key)
            right = {}
            for q in quads:
                right.setdefault((sector(q), mono_weight(q)), []).append(q)
            return quads, lambda s, w: right.get((s, w), [])
        left = [((a, -1), (a, -1)) for a in gens]
        if self.pairs == "all":
            left += [((a, -1), (b, -1)) for a in gens for b in gens if a < b]
            left += [((a, -2), (a, -2)) for a in gens]
        return left, None


DEFAULT_POLICY = GeneratorPolicy()


def _normalize_int_row(row):
    """The primitive multiple of a nonzero row whose pivot entry is positive."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[max(row)] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _axpy(row, f, other):
    """row += f * other in place, dropping the entries that cancel."""
    for c, v in other.items():
        s = row.get(c, 0) + f * v
        if s:
            row[c] = s
        else:
            del row[c]


def _eliminate(rows, row):
    """(scale, remainder) of the integer ``row`` (changed in place) modulo
    fully reduced ``rows`` {pivot: row}: scale once so that every pivot entry
    divides, then one subtraction per pivot column, none reaching another.
    """
    hits = [(p, rows[p]) for p in row if p in rows]
    if not hits:
        return 1, row
    scale = 1
    for p, prow in hits:
        a = prow[p]
        scale = lcm(scale, a // gcd(a, row[p]))
    if scale != 1:
        row = {c: v * scale for c, v in row.items()}
    for p, prow in hits:
        _axpy(row, -(row[p] // prow[p]), prow)
    return scale, row


def _insert_row(rows, holders, row):
    """Normalize a nonzero remainder of :func:`_eliminate`, clear its pivot
    from the rows that ``holders`` (:func:`_column_holders`) lists, and
    record it; every row stays fully reduced and ``holders`` up to date."""
    row = _normalize_int_row(row)
    p = max(row)
    b = row[p]
    for q in holders.pop(p, ()):
        qrow = rows[q]
        x = qrow.get(p)
        if x is None:  # a stale or repeated entry of the index
            continue
        g = gcd(b, x)
        if b != g:
            qrow = {c: v * (b // g) for c, v in qrow.items()}
        gained = [c for c in row if c not in qrow]
        _axpy(qrow, -(x // g), row)
        for c in gained:
            holders.setdefault(c, []).append(q)
        rows[q] = _normalize_int_row(qrow)
    rows[p] = row
    for c in row:
        if c != p:
            holders.setdefault(c, []).append(p)


def _column_holders(rows):
    """Column -> the pivots of the rows with an entry there.

    Lists, not sets, to keep a build small: an entry whose row lost the
    column stays behind, and :func:`_insert_row` skips it.
    """
    holders = {}
    for p, row in rows.items():
        for c in row:
            if c != p:
                holders.setdefault(c, []).append(p)
    return holders


def exact_rank(rows):
    """The rank over Q of sparse ``{key: rational}`` rows with mutually
    comparable keys, by the integer steps of :meth:`OSpanEchelon.insert` on
    a scratch echelon.  The rows are not changed."""
    echelon, holders = {}, {}
    for terms in rows:
        row = {k: v for k, v in clear_denominators(terms)[1].items() if v}
        row = _eliminate(echelon, row)[1]
        if row:
            _insert_row(echelon, holders, row)
    return len(echelon)


def check_resources(ell, window, sector):
    """Refuse an echelon window above ``MAX_WEIGHT_CAP``, then one of more
    than ``MAX_COLUMNS`` columns in ``sector``, with a ResourceWarning and
    without listing a column."""
    if window > MAX_WEIGHT_CAP:
        raise ResourceWarning(f"echelon window {window} exceeds the "
                              f"weight cap {MAX_WEIGHT_CAP}")
    ncols = count_sector(ell, window, sector)
    if ncols > MAX_COLUMNS:
        raise ResourceWarning(f"echelon of {ncols} columns at rank {ell}, "
                              f"window {window} exceeds {MAX_COLUMNS}")


def _header(ell, window, policy, sector):
    """The first line of an echelon's cache file; the column count is
    :func:`count_sector`'s, so no column is listed."""
    return (f"# ospan v{FORMAT_VERSION} ell={ell} window={window} "
            f"policy={policy.key()} sector={sector} "
            f"cols={count_sector(ell, window, sector)}")


def cache_key(ell, window, policy, sector):
    """The key of the cache file ``ospan-<key>.txt`` of the echelon of
    (rank, window, policy, sector): a hash of its header."""
    header = _header(ell, window, policy, sector)
    return hashlib.sha256(header.encode()).hexdigest()[:24]


def _cache_file(cache_dir, ell, window, policy, sector):
    return os.path.join(cache_dir,
                        f"ospan-{cache_key(ell, window, policy, sector)}.txt")


class OSpanEchelon:
    """Echelonized spanning set of circle elements of one parity sector
    (see the module docstring), truncated at a window.

    Rows are integer vectors over the sector's monomials of weight at most
    the window.  The pivot of a row is its maximal monomial in the
    canonical order, so reduction rewrites top-weight monomials into lower
    tails and the conformal vectors survive as their own normal forms.

    Rows are kept fully reduced: each is zero in every other row's pivot
    column, primitive, and has a positive pivot entry.
    That form depends only on the span, so the rows depend only on the
    rank, the generator policy, the window and the sector, not on the
    order of insertion; the cutoff above which a claim stays Unknown
    belongs to the caller.  Every row is a combination of circle elements,
    so a zero normal form certifies membership in O.

    A vector becomes an integer row only through :meth:`row`, which
    :meth:`insert` takes and :meth:`reduce` uses.  Because no row touches
    another's pivot column, reducing a row makes one subtraction per pivot
    column of the row, and none of them brings in another pivot column:
    :func:`_eliminate`.  A negative window or a sector that holds no even
    monomial raises ValueError, and a window or a column count that
    :func:`check_resources` refuses raises ResourceWarning, before any
    column is listed.
    """

    def __init__(self, ell, window, policy, *, sector):
        if window < 0:
            raise ValueError(f"window must be nonnegative, got {window}")
        if not (0 <= sector < 1 << ell and sector.bit_count() % 2 == 0):
            raise ValueError(f"sector {sector} holds no even monomial "
                             f"at rank {ell}")
        check_resources(ell, window, sector)
        self.ell = ell
        self.window = window
        self.policy = policy
        self.sector = sector
        self.columns = []
        self.col_index = {}
        for w in range(window + 1):
            for mono in basis(ell, w, "even", sector):
                self.col_index[mono] = len(self.columns)
                self.columns.append(mono)
        self.rows = {}  # pivot column -> fully reduced integer row
        # The column index of _column_holders: built on demand by insert,
        # dropped when a build ends.
        self._holders = None
        self.cache_hit = False

    def row(self, vec):
        """``vec``'s integer row {column: numerator} over its own
        denominator; ValueError when a monomial is not a column (odd, above
        the window or of another sector)."""
        col_index = self.col_index
        try:
            return {col_index[mono]: c
                    for mono, c in vec.integer_form()[1].items()}
        except KeyError:
            raise ValueError(f"vector leaves the columns of sector "
                             f"{self.sector} at window {self.window}") from None

    # -- construction -----------------------------------------------------

    def insert(self, row):
        """Reduce a :meth:`row` against the echelon and keep what remains.

        The echelon owns ``row``: it is changed in place and may be stored.
        The remainder's pivot column is cleared from the rows that hold an
        entry there, so every row stays fully reduced.
        """
        row = _eliminate(self.rows, row)[1]
        if not row:
            return False
        if self._holders is None:
            self._holders = _column_holders(self.rows)
        _insert_row(self.rows, self._holders, row)
        return True

    # -- queries -----------------------------------------------------------

    def reduce(self, vec):
        """Exact normal form of a vector modulo the stored row space: one
        integer :func:`_eliminate` of its :meth:`row`, then one division per
        remaining entry."""
        scale, row = _eliminate(self.rows, self.row(vec))
        return FockVector.from_integer(
            self.ell, vec.integer_form()[0] * scale,
            {self.columns[c]: v for c, v in row.items()})

    # -- persistence --------------------------------------------------------

    def to_text(self):
        lines = [_header(self.ell, self.window, self.policy, self.sector)]
        for p in sorted(self.rows):
            row = self.rows[p]
            cells = " ".join(f"{c}:{row[c]}" for c in sorted(row))
            lines.append(cells)
        return "\n".join(lines) + "\n"

    def load_rows(self, text):
        """Read rows written by ``to_text``; ValueError on any malformed file.

        A row must be fully reduced (see the class docstring), since
        :meth:`reduce` relies on that form.
        """
        lines = text.splitlines()
        if not lines or lines[0] != _header(self.ell, self.window,
                                            self.policy, self.sector):
            raise ValueError("incompatible cache file")
        ncols = len(self.columns)
        for line in lines[1:]:
            if not line.strip():
                continue
            row = {}
            for cell in line.split():
                c, v = cell.split(":")
                c, v = int(c), int(v)
                if not 0 <= c < ncols or v == 0:
                    raise ValueError(f"bad cache cell {cell!r}")
                row[c] = v
            pivot = max(row)
            if pivot in self.rows:
                raise ValueError(f"duplicate cache pivot {pivot}")
            if _normalize_int_row(row) != row:
                raise ValueError(f"cache row {pivot} is not primitive with "
                                 f"a positive pivot")
            self.rows[pivot] = row
        for pivot, row in self.rows.items():
            for c in row:
                if c != pivot and c in self.rows:
                    raise ValueError(f"cache row {pivot} has an entry in "
                                     f"pivot column {c}")


def _iter_circle_pairs(ell, limit, policy, *, sector, start=2):
    """Yield (top, u_vec, v_vec) for the pairs whose circle circ_0(u, v)
    fits within limit and lies in ``sector``, in nondecreasing top weight
    top = wt u + wt v + 1, from top weight ``start`` on.

    At each top weight t the vacuum circles of the even monomials of
    weight t - 1 come first, then for each left factor u of the policy
    (:meth:`GeneratorPolicy.factors`) its right factors v of weight
    t - 1 - wt u >= 1, all in sector(u) XOR ``sector`` since circ_0(u, v)
    lies in sector(u) XOR sector(v).  Each (sector, weight) is listed on
    first use, so only the weights some circle from ``start`` on reaches
    are listed, and each monomial becomes one vector per call.
    """
    left, right = policy.factors(ell, limit)
    made, lists = {}, {}

    def vector(m):
        if m not in made:
            made[m] = FockVector.from_monomial(ell, m)
        return made[m]

    def listed(s, w, monos=None):
        # The even monomials of (s, w), or the right factors monos(s, w),
        # so the default right factors share the vacuum circles' lists.
        if (s, w, monos) not in lists:
            lists[s, w, monos] = [vector(m) for m in (
                basis(ell, w, "even", s) if monos is None else monos(s, w))]
        return lists[s, w, monos]

    left = [(vector(u), mono_weight(u), sector ^ fock.sector(u)) for u in left]
    vac = FockVector.vacuum(ell)
    for top in range(max(start, 2), limit + 1):
        for u in listed(sector, top - 1):
            yield top, u, vac
        for u, wu, key in left:
            if top - 1 - wu >= 1:
                for v in listed(key, top - 1 - wu, right):
                    yield top, u, v


def build_ospan(rank, window, policy=DEFAULT_POLICY, cache_dir=None, *,
                sector, base=None):
    """Echelonize the part in ``sector`` (see the module docstring) of the
    circle span truncated at weight ``window``.

    The span is seeded with circ_0(u, v) for the pairs of
    :func:`_iter_circle_pairs`; the circles with n >= 1 add nothing (see
    :class:`GeneratorPolicy`).  They are batched by the top weight each
    comes with.  A batch's nonzero circles are each mapped once to their
    :meth:`OSpanEchelon.row` and dropped, and the rows are inserted in
    ascending pivot column, their largest, from the end of a list sorted
    the other way, so that the echelon takes each over.  A row whose pivot
    lies above every existing pivot clears no other row, and the fully
    reduced rows do not depend on the order (see :class:`OSpanEchelon`),
    so a circle whose top part cancels may stay in its pair's batch.  The
    echelon holds circle rows only and depends only on (rank, policy,
    window, sector), and so does its cache file in ``cache_dir``, whose rows
    are trusted as read; only library callers (the benchmark harness) name
    one.  Without ``cache_dir``, or with one that cannot be read or made,
    nothing is read or written, and ``cache_hit`` says whether a file was
    read.

    ``base``, an echelon of the same rank, policy and sector at a smaller
    window, is grown when no cache file is read.  Its seeds are the seeds of
    ``window`` up to its own window as top weight, so only the circles of
    the top weights above it are made.  Columns run in weight order, so its
    columns are a prefix of the new ones: its rows move over unchanged and
    ``base`` is left empty.  The rows come out as those of a fresh build.
    """
    start = 2
    if base is not None:
        if ((base.ell, base.policy, base.sector) != (rank, policy, sector)
                or base.window >= window):
            raise ValueError("a base echelon must be a smaller window of the "
                             "same rank, policy and sector")
        start = base.window + 1
    ech = OSpanEchelon(rank, window, policy, sector=sector)

    cache_file = None
    if cache_dir:
        cache_file = _cache_file(cache_dir, rank, window, policy, sector)
        try:
            with open(cache_file, "r", encoding="ascii") as fh:
                ech.load_rows(fh.read())
            ech.cache_hit = True
            return ech
        except (OSError, ValueError):
            ech.rows.clear()

    if base is not None:
        ech.rows, base.rows = base.rows, {}
    pairs = _iter_circle_pairs(rank, window, policy, sector=sector,
                               start=start)
    for _, batch in groupby(pairs, key=itemgetter(0)):
        rows = [ech.row(c) for c in (circ_n(u, v) for _, u, v in batch) if c]
        rows.sort(key=max, reverse=True)
        while rows:
            ech.insert(rows.pop())
    ech._holders = None  # only a build needs the column index
    if cache_file:
        # Write aside and rename, so a reader never sees a partial file; a
        # write that fails (a full disk, a file or directory in the way) is
        # skipped.
        text = ech.to_text()
        tmp = f"{cache_file}.{os.getpid()}.tmp"
        try:
            os.makedirs(cache_dir, exist_ok=True)
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, cache_file)
        except OSError:
            pass
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    return ech


class CircleSpan:
    """The circle span of one rank, policy and ``cache_dir``, the direct
    sum of its sector parts (see the module docstring): ``echelons`` maps
    each sector met so far to its :func:`build_ospan` echelon, built when a
    vector first meets that sector.  A query that asks for a larger window
    replaces it by one grown from it (``build_ospan``'s ``base``), which
    takes over its rows and leaves it empty, so no window is built twice.
    Each query names its window, and one that finds an echelon held above
    it raises ValueError, since a larger window may certify more.  A sector
    part is certified at its own weight, else at the query's window.

    The span only grows with the window, so the windows a span is built at
    depend on the order of the queries, and so do the files it leaves in
    its ``cache_dir``.  A query that needs a larger echelon reads the
    smallest cached one among the windows it allows, and builds only when
    there is none.
    """

    def __init__(self, rank, policy=DEFAULT_POLICY, cache_dir=None):
        self.rank = rank
        self.policy = policy
        self.cache_dir = cache_dir
        self.echelons = {}

    def _echelon(self, s, low, high):
        """Sector s's echelon at a window from ``low`` to ``high``: the one
        held, else the cache file of the smallest window in that range,
        else one built at ``low`` or grown to it."""
        ech = self.echelons.get(s)
        if ech is None or ech.window < low:
            window = low
            if self.cache_dir:
                window = next(
                    (w for w in range(low, high + 1) if os.path.exists(
                        _cache_file(self.cache_dir, self.rank, w,
                                    self.policy, s))), low)
            ech = self.echelons[s] = build_ospan(
                self.rank, window, self.policy, self.cache_dir, sector=s,
                base=ech)
        elif ech.window > high:
            raise ValueError(f"sector {s} held at window {ech.window} > {high}")
        return ech

    def _parts(self, vec):
        """Yield (sector, part) per sector part of ``vec`` in sector order."""
        den, ints = vec.integer_form()
        parts = {}
        for mono, c in ints.items():
            parts.setdefault(sector(mono), {})[mono] = c
        for s in sorted(parts):
            yield s, FockVector.from_integer(vec.ell, den, parts[s])

    def contains(self, vec, window):
        """Whether every sector part of ``vec`` reduces to zero at
        ``window``; the first part that does not ends the check.  A part of
        weight d is reduced on the echelon held at d or above, and only if
        it is not zero there, at ``window``: a smaller window's seeds are
        among the larger's, so the answer is the window's.  Each part first
        meets the resource guard of its sector at ``window``
        (:func:`check_resources`).
        """
        for s, part in self._parts(vec):
            check_resources(self.rank, window, s)
            ech = self._echelon(s, min(part.max_weight(), window), window)
            if ech.reduce(part).is_zero():
                continue
            if ech.window == window:
                return False
            if not self._echelon(s, window, window).reduce(part).is_zero():
                return False
        return True

    def reduce(self, vec, window, low=0):
        """Normal form of ``vec`` modulo the span at ``window`` plus
        everything of weight below ``low``.  Columns run in weight order and
        a row's pivot is its top monomial, so the rows with a pivot below
        ``low`` lie below it: the part of weight >= low is reduced as modulo
        span + V_{<low}."""
        out = FockVector.zero(vec.ell)
        for s, part in self._parts(vec):
            nf = self._echelon(s, window, window).reduce(part)
            den, ints = nf.integer_form()
            out = out + FockVector.from_integer(vec.ell, den, {
                m: c for m, c in ints.items() if mono_weight(m) >= low})
        return out

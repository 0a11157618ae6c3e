"""Zhu-style products, named generators, and the circle-span reduction engine.

The associative quotient of the even subalgebra is built from two bilinear
operations on states,

    star(u, v)   = sum_i C(wt u, i) u_{i-1} v
    circ_n(u, v) = sum_i C(wt u, i) u_{i-n-2} v      (n >= 0),

where every ``circ_n`` lands in the span O of circle elements, which acts as
zero on the top level of every admissible module.  Membership in a
weight-truncated piece of O is decided by exact integer Gaussian elimination
over the even monomial basis; a certificate of membership is sound, a failure
is only inconclusive because circle elements mix weights.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, gcd

from .fock import FockVector, basis, mono_key, mono_weight2, single
from .vertex import mode_operator

FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# Products

def _binomial_sum(u, v, shift):
    """sum_i C(wt u, i) u_{i-shift} v, over the homogeneous parts of u."""
    out = FockVector.zero(u.ell)
    for w2, comp in u.graded_components().items():
        w = w2 // 2
        for i in range(w + 1):
            out = out + comb(w, i) * mode_operator(comp, i - shift, v)
    return out


def star(u, v):
    """The associative product representative star(u, v)."""
    _check_even_untwisted(u, "star")
    _check_even_untwisted(v, "star")
    if u.ell != v.ell:
        raise ValueError("rank mismatch in star")
    return _binomial_sum(u, v, 1)


def circ_n(u, v, n=0):
    """The circle element circ_n(u, v); always a member of the span O."""
    if n < 0:
        raise ValueError("circle index n must be nonnegative")
    _check_even_untwisted(u, "circ_n")
    _check_even_untwisted(v, "circ_n")
    if u.ell != v.ell:
        raise ValueError("rank mismatch in circ_n")
    return _binomial_sum(u, v, n + 2)


def star_fold(factors):
    """Left-associated star product of a sequence of states."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty product")
    out = factors[0]
    for f in factors[1:]:
        out = star(out, f)
    return out


def star_power(u, k):
    """k-fold star power, with the vacuum as the empty product."""
    if k < 0:
        raise ValueError("negative star power")
    out = FockVector.vacuum(u.ell)
    for _ in range(k):
        out = star(out, u)
    return out


def _check_even_untwisted(u, opname):
    if u.twisted:
        raise ValueError(f"{opname} is defined on the untwisted even subalgebra")
    if not u.is_even():
        raise ValueError(f"{opname} argument has odd-parity terms")


# ---------------------------------------------------------------------------
# Named generators

def omega(rank, a):
    """The coordinate conformal vector (1/2) h_a(-1)^2."""
    return single(rank, False, [(a, -1), (a, -1)], Fraction(1, 2))


def jgen(rank, a):
    """The weight-4 singlet h_a(-1)^4 - 2 h_a(-3)h_a(-1) + 3/2 h_a(-2)^2."""
    return (single(rank, False, [(a, -1)] * 4)
            + single(rank, False, [(a, -3), (a, -1)], -2)
            + single(rank, False, [(a, -2), (a, -2)], Fraction(3, 2)))


def hgen(rank, a):
    """The combination J_a + w_a - 4 w_a*w_a that kills highest-weight modules."""
    w = omega(rank, a)
    return jgen(rank, a) + w - 4 * star(w, w)


def s_pair(rank, a, m, b, n):
    """The quadratic h_a(-m) h_b(-n)."""
    return single(rank, False, [(a, -m), (b, -n)])


def _s_combo(rank, a, b, coeffs):
    """Combination sum of c * h_a(-1) h_b(-m) over (m, c) pairs."""
    out = FockVector.zero(rank)
    for m, c in coeffs:
        out = out + c * s_pair(rank, a, 1, b, m)
    return out


def _check_offdiag(rank, a, b, name):
    if not (1 <= a <= rank and 1 <= b <= rank):
        raise ValueError(f"{name} index out of range 1..{rank}")
    if a == b:
        raise ValueError(f"{name} needs two distinct generator indices")


def e_u(rank, a, b):
    """Matrix-unit candidate supported on the untwisted minus module."""
    _check_offdiag(rank, a, b, "Eu")
    return _s_combo(rank, a, b, [(2, 5), (3, 25), (4, 36), (5, 16)])


def e_u_bar(rank, a, b):
    """Alternative representative of the same class as e_u(rank, a, b)."""
    _check_offdiag(rank, a, b, "Eubar")
    return _s_combo(rank, b, a, [(1, 1), (2, 14), (3, 41), (4, 44), (5, 16)])


def e_t(rank, a, b):
    """Matrix-unit candidate supported on the twisted minus module."""
    _check_offdiag(rank, a, b, "Et")
    return _s_combo(rank, a, b, [(2, -48), (3, -224), (4, -304), (5, -128)])


def e_t_bar(rank, a, b):
    """Alternative representative of the same class as e_t(rank, a, b)."""
    _check_offdiag(rank, a, b, "Etbar")
    return _s_combo(rank, b, a, [(2, -80), (3, -288), (4, -336), (5, -128)])


def lam(rank, a, b):
    """The central element seeing only the highest-weight family."""
    _check_offdiag(rank, a, b, "Lam")
    return _s_combo(rank, a, b, [(2, 45), (3, 190), (4, 240), (5, 96)])


def s_alpha(rank, pairs):
    """Star product of the quadratics h_a(-1)h_b(-1) over disjoint index pairs."""
    seen = set()
    for a, b in pairs:
        for i in (a, b):
            if i in seen:
                raise ValueError("index pairs must be disjoint")
            seen.add(i)
    return star_fold([s_pair(rank, a, 1, b, 1) for a, b in pairs])


# ---------------------------------------------------------------------------
# Generator policies and the echelonized circle span

@dataclass(frozen=True)
class GeneratorPolicy:
    """Which circle elements seed the truncated span.

    ``pairs="all"`` takes every ordered pair of even monomials whose full
    circle fits the cutoff.  ``"omega"`` restricts to pairs with one side a
    coordinate conformal vector (plus vacuum circles for every monomial),
    the family behind the one-sided weight-reduction arguments.
    ``"quadratic"`` pairs two-mode monomials with each other (plus vacuum
    circles), which is what the four-index sign relations come from.
    """

    pairs: str = "all"

    def __post_init__(self):
        if self.pairs not in ("all", "omega", "quadratic"):
            raise ValueError(f"unknown pair policy {self.pairs!r}")

    def key(self):
        return f"pairs={self.pairs}"


DEFAULT_POLICY = GeneratorPolicy()


class Verdict(Enum):
    PROVED_EQUAL = "ProvedEqual"
    UNKNOWN = "Unknown"


def _normalize_int_row(row):
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            break
    if g > 1:
        row = {c: v // g for c, v in row.items()}
    lead = row[min(row)]
    if lead < 0:
        row = {c: -v for c, v in row.items()}
    return row


def _vector_to_int_row(vec, col_index):
    """Clear denominators into a primitive integer row over the column basis."""
    den = 1
    for c in vec.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    row = {}
    for mono, c in vec.terms.items():
        idx = col_index.get(mono)
        if idx is None:
            raise KeyError(mono)
        row[idx] = int(c * den)
    return _normalize_int_row(row)


class OSpanEchelon:
    """Echelonized spanning set of circle elements, weight-truncated.

    Rows are primitive integer vectors over the even monomial basis up to
    ``max_weight + slack``; the pivot of a row is its maximal monomial in the
    canonical order, so reduction rewrites top-weight monomials into lower
    tails and the conformal vectors survive as their own normal forms.  ``certifying`` is False when extra non-circle rows were
    mixed in (used for normal-form bookkeeping), in which case equivalence
    certificates are refused.
    """

    def __init__(self, ell, max_weight2, slack2, policy, certifying=True):
        self.ell = ell
        self.max_weight2 = max_weight2
        self.slack2 = slack2
        self.policy = policy
        self.certifying = certifying
        self.columns = []
        self.col_index = {}
        for w2 in range(0, max_weight2 + slack2 + 1):
            for mono in basis(ell, False, Fraction(w2, 2), "even"):
                self.col_index[mono] = len(self.columns)
                self.columns.append(mono)
        self.rows = {}  # pivot column -> primitive integer row
        self.provenance = []
        self.cache_hit = False

    # -- construction -----------------------------------------------------

    def insert(self, vec, tag=None):
        """Reduce a vector against the echelon and keep what remains."""
        try:
            row = _vector_to_int_row(vec, self.col_index)
        except KeyError:
            raise ValueError("row exceeds the echelon's weight window") from None
        row = self._reduce_int_row(row)
        if not row:
            return False
        self.rows[max(row)] = _normalize_int_row(row)
        if tag is not None:
            self.provenance.append(tag)
        return True

    def _reduce_int_row(self, row):
        steps = 0
        while row:
            p = max(row)
            pivot_row = self.rows.get(p)
            if pivot_row is None:
                return _normalize_int_row(row)
            a = pivot_row[p]
            b = row[p]
            g = gcd(a, b)
            a //= g
            b //= g
            new = {}
            if a == 1:
                new.update(row)
            else:
                for c, v in row.items():
                    new[c] = v * a
            for c, v in pivot_row.items():
                s = new.get(c, 0) - b * v
                if s:
                    new[c] = s
                else:
                    new.pop(c, None)
            row = new
            steps += 1
            if row and steps % 24 == 0:
                row = _normalize_int_row(row)
        return row

    # -- queries -----------------------------------------------------------

    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Exact normal form of a vector modulo the stored row space."""
        if vec.twisted:
            raise ValueError("reduce expects untwisted vectors")
        if not vec.is_even():
            raise ValueError("reduce expects even-parity vectors")
        if vec.max_weight2() > self.max_weight2:
            raise ValueError(
                f"vector weight {Fraction(vec.max_weight2(), 2)} exceeds the "
                f"echelon cutoff {Fraction(self.max_weight2, 2)}")
        work = {}
        for mono, c in vec.terms.items():
            work[self.col_index[mono]] = Fraction(c)
        done = {}
        while work:
            p = max(work)
            pivot_row = self.rows.get(p)
            if pivot_row is None:
                done[p] = work.pop(p)
                continue
            factor = work[p] / pivot_row[p]
            for c, v in pivot_row.items():
                s = work.get(c, Fraction(0)) - factor * v
                if s:
                    work[c] = s
                else:
                    work.pop(c, None)
        return FockVector(self.ell, False,
                          {self.columns[c]: v for c, v in done.items()})

    def is_equiv(self, x, y):
        """ProvedEqual when x - y reduces to zero; Unknown otherwise."""
        if not self.certifying:
            raise ValueError("echelon contains non-circle rows; "
                             "certificates would be unsound")
        return Verdict.PROVED_EQUAL if self.reduce(x - y).is_zero() else Verdict.UNKNOWN

    # -- persistence --------------------------------------------------------

    def cache_key(self):
        h = hashlib.sha256()
        h.update(f"v{FORMAT_VERSION};ell={self.ell};W2={self.max_weight2};"
                 f"S2={self.slack2};{self.policy.key()};"
                 f"cert={int(self.certifying)}".encode())
        return h.hexdigest()[:24]

    def to_text(self):
        lines = [f"# ospan v{FORMAT_VERSION} ell={self.ell} "
                 f"W2={self.max_weight2} S2={self.slack2} "
                 f"policy={self.policy.key()} cert={int(self.certifying)} "
                 f"cols={len(self.columns)}"]
        for p in sorted(self.rows):
            row = self.rows[p]
            cells = " ".join(f"{c}:{row[c]}" for c in sorted(row))
            lines.append(cells)
        return "\n".join(lines) + "\n"

    def load_rows(self, text):
        lines = text.splitlines()
        head = lines[0]
        if f"v{FORMAT_VERSION}" not in head or f"cols={len(self.columns)}" not in head:
            raise ValueError("incompatible cache file")
        for line in lines[1:]:
            if not line.strip():
                continue
            row = {}
            for cell in line.split():
                c, v = cell.split(":")
                row[int(c)] = int(v)
            self.rows[max(row)] = row


def _iter_circle_pairs(ell, limit2, policy):
    """Yield (u_vec, v_vec, n, tag) whose full circle fits within limit2."""
    monos_by_w2 = {}
    for w2 in range(0, limit2 + 1):
        monos_by_w2[w2] = basis(ell, False, Fraction(w2, 2), "even")

    def tops(wu2, wv2):
        # top weight of circ_n is wt u + wt v + n + 1
        return range(0, (limit2 - wu2 - wv2 - 2) // 2 + 1)

    def vacuum_circles():
        for wu2 in range(2, limit2 - 1):
            for um in monos_by_w2[wu2]:
                uv = FockVector.from_monomial(ell, False, um)
                for n in tops(wu2, 0):
                    yield uv, FockVector.vacuum(ell), n, ("circ-vac", um, n)

    if policy.pairs == "omega":
        omegas = [omega(ell, a) for a in range(1, ell + 1)]
        for a, om in enumerate(omegas, start=1):
            for wv2 in range(2, limit2 - 5):
                for vm in monos_by_w2[wv2]:
                    vv = FockVector.from_monomial(ell, False, vm)
                    for n in tops(4, wv2):
                        yield om, vv, n, ("circ-omega", a, vm, n)
                        yield vv, om, n, ("circ-omega-r", a, vm, n)
        yield from vacuum_circles()
    elif policy.pairs == "quadratic":
        quads = [m for w2 in range(2, limit2 + 1)
                 for m in monos_by_w2[w2] if len(m) == 2]
        for um in quads:
            uv = FockVector.from_monomial(ell, False, um)
            wu2 = mono_weight2(um)
            for vm in quads:
                wv2 = mono_weight2(vm)
                if wu2 + wv2 + 2 > limit2:
                    continue
                vv = FockVector.from_monomial(ell, False, vm)
                for n in tops(wu2, wv2):
                    yield uv, vv, n, ("circ", um, vm, n)
        yield from vacuum_circles()
    else:
        for wu2 in range(2, limit2 - 1):
            for um in monos_by_w2[wu2]:
                uv = FockVector.from_monomial(ell, False, um)
                for wv2 in range(0, limit2 - wu2 - 1):
                    for vm in monos_by_w2[wv2]:
                        vv = FockVector.from_monomial(ell, False, vm)
                        for n in tops(wu2, wv2):
                            yield uv, vv, n, ("circ", um, vm, n)


def build_ospan(rank, max_weight, slack=2, extra_generators=(),
                policy=DEFAULT_POLICY, extra_in_span=True, cache_dir=None):
    """Echelonize the truncated circle span.

    ``extra_generators`` are additional row vectors; with
    ``extra_in_span=False`` they are bookkeeping rows (weight quotients and
    the like) and the result refuses to issue equivalence certificates.
    Caching keys on rank, cutoffs and policy; extra generators are never
    cached.
    """
    if max_weight < 0 or slack < 0:
        raise ValueError(f"max_weight and slack must be nonnegative, got "
                         f"{max_weight} and {slack}")
    max_weight2 = 2 * max_weight
    slack2 = 2 * slack
    certifying = extra_in_span or not extra_generators
    ech = OSpanEchelon(rank, max_weight2, slack2, policy, certifying)

    cache_file = None
    if cache_dir and not extra_generators:
        os.makedirs(cache_dir, exist_ok=True)
        cache_file = os.path.join(cache_dir, f"ospan-{ech.cache_key()}.txt")
        if os.path.exists(cache_file):
            try:
                with open(cache_file, "r", encoding="ascii") as fh:
                    ech.load_rows(fh.read())
                ech.cache_hit = True
                return ech
            except (OSError, ValueError):
                ech.rows.clear()

    limit2 = max_weight2 + slack2
    for u, v, n, tag in _iter_circle_pairs(rank, limit2, policy):
        vec = circ_n(u, v, n)
        if vec.is_zero() or vec.max_weight2() > limit2:
            continue
        ech.insert(vec, tag)
    for i, vec in enumerate(extra_generators):
        if vec and vec.max_weight2() <= limit2:
            ech.insert(vec, ("extra", i))
    ech.cache_hit = False
    if cache_file:
        with open(cache_file, "w", encoding="ascii") as fh:
            fh.write(ech.to_text())
    return ech

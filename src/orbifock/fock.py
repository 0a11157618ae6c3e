"""Fock-space states for the rank-ell free boson, untwisted and twisted.

States are finite linear combinations of creation monomials
``h_g(-n_1) ... h_g(-n_k) |0>`` with exact coefficients.  Mode indices live in
the integers (untwisted sector) or in the half-integers (twisted sector); we
store twice the index as an ``int`` so a single mode type covers both sectors
without any float ever appearing.

A monomial is a tuple of ``(gen, n2)`` pairs with ``n2 = 2n < 0``, sorted
ascending, so commuting creation operators have one canonical spelling.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from .coeffs import LPoly

# Marker for a symbolic highest weight: h_g(0) acts as the polynomial l_g.
SYMBOLIC = "symbolic"

# A monomial is a tuple of (gen, n2) pairs; the vacuum is the empty tuple.
VACUUM = ()


def _to_n2(n):
    """Twice-value of a mode index given as int, Fraction or float-free pair."""
    n2 = 2 * Fraction(n)
    if n2.denominator != 1:
        raise ValueError(f"mode index {n} is not a half-integer")
    return int(n2)


def mono_weight2(mono):
    """Twice the mode-weight of a monomial (sum of -n over its modes)."""
    return sum(-n2 for _, n2 in mono)


def mono_parity(mono):
    """+1 for an even number of modes, -1 for odd."""
    return -1 if len(mono) % 2 else 1


def mono_key(mono):
    """Deterministic total order on monomials: by weight, then mode tuple."""
    return (mono_weight2(mono), mono)


def make_monomial(ell, twisted, modes):
    """Canonical creation monomial from (gen, n) pairs.

    Rejects annihilation or zero modes, generator indices outside 1..ell, and
    indices of the wrong sector (integer vs half-integer).
    """
    out = []
    for gen, n in modes:
        n2 = _to_n2(n)
        if not 1 <= gen <= ell:
            raise ValueError(f"generator index {gen} out of range 1..{ell}")
        if n2 >= 0:
            raise ValueError(f"h{gen}({n}) is not a creation mode")
        if (n2 % 2 != 0) != twisted:
            sector = "twisted" if twisted else "untwisted"
            raise ValueError(f"mode index {n} invalid in the {sector} sector")
        out.append((gen, n2))
    out.sort()
    return tuple(out)


def format_mode(gen, n2):
    if n2 % 2 == 0:
        return f"h{gen}({n2 // 2})"
    return f"h{gen}({n2}/2)"


def format_monomial(mono):
    if not mono:
        return "one"
    return "".join(format_mode(g, n2) for g, n2 in mono)


class FockVector:
    """A finite linear combination of canonical monomials in one sector.

    Zero coefficients are never stored.  Instances are immutable by
    convention; all operations return fresh vectors.
    """

    __slots__ = ("ell", "twisted", "terms")

    def __init__(self, ell, twisted, terms=None):
        self.ell = ell
        self.twisted = twisted
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls, ell, twisted=False):
        return cls(ell, twisted, {})

    @classmethod
    def vacuum(cls, ell, twisted=False, coeff=1):
        return cls(ell, twisted, {VACUUM: coeff})

    @classmethod
    def from_monomial(cls, ell, twisted, mono, coeff=1):
        return cls(ell, twisted, {mono: coeff})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _check_compatible(self, other):
        if self.ell != other.ell or self.twisted != other.twisted:
            raise ValueError("sector or rank mismatch between vectors")

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return FockVector(self.ell, self.twisted, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FockVector(self.ell, self.twisted, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return FockVector.zero(self.ell, self.twisted)
        return FockVector(self.ell, self.twisted, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction, LPoly)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return (self.ell == other.ell and self.twisted == other.twisted
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ell, self.twisted, frozenset(self.terms.items())))

    def coeff(self, mono):
        return self.terms.get(mono, 0)

    def weight2(self):
        """Twice the common mode-weight; raises on inhomogeneous vectors."""
        ws = {mono_weight2(m) for m in self.terms}
        if not ws:
            raise ValueError("the zero vector has no weight")
        if len(ws) > 1:
            raise ValueError(f"vector is not homogeneous (weights {sorted(ws)})")
        return ws.pop()

    def weight(self):
        return Fraction(self.weight2(), 2)

    def max_weight2(self):
        return max((mono_weight2(m) for m in self.terms), default=0)

    def is_even(self):
        return all(mono_parity(m) == 1 for m in self.terms)

    def graded_components(self):
        """Map from twice-weight to the homogeneous component at that weight."""
        comps = {}
        for m, c in self.terms.items():
            comps.setdefault(mono_weight2(m), {})[m] = c
        return {w2: FockVector(self.ell, self.twisted, t)
                for w2, t in sorted(comps.items())}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: mono_key(mc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            cs = str(c)
            if isinstance(c, LPoly) and len(c.terms) > 1:
                cs = f"({cs})"
            if cs == "1" and mono:
                parts.append(format_monomial(mono))
            elif cs == "-1" and mono:
                parts.append("-" + format_monomial(mono))
            elif mono:
                parts.append(f"{cs}*{format_monomial(mono)}")
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


def single(ell, twisted, modes, coeff=1):
    """Vector with one monomial, given as (gen, n) pairs."""
    return FockVector.from_monomial(ell, twisted, make_monomial(ell, twisted, modes), coeff)


def _insert_mode(mono, gen, n2):
    """Insert one creation mode, keeping the canonical sort."""
    out = list(mono)
    key = (gen, n2)
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
    """
    n2 = _to_n2(n)
    if not 1 <= gen <= vec.ell:
        raise ValueError(f"generator index {gen} out of range 1..{vec.ell}")
    if (n2 % 2 != 0) != vec.twisted:
        raise ValueError(f"mode index {n} does not match the vector's sector")
    return apply_mode2(gen, n2, vec, hw)


def apply_mode2(gen, n2, vec, hw=None):
    """Same as :func:`apply_mode` with the index given as a twice-value."""
    ell, twisted = vec.ell, vec.twisted
    if n2 < 0:
        return FockVector(ell, twisted,
                          {_insert_mode(m, gen, n2): c for m, c in vec.terms.items()})
    if n2 == 0:
        if hw is None:
            return FockVector.zero(ell, twisted)
        if hw == SYMBOLIC:
            return vec.scale(LPoly.unit(ell, gen))
        return vec.scale(hw[gen - 1])
    return FockVector(ell, twisted, annihilate(vec.terms, gen, n2))


def annihilate(terms, gen, n2):
    """Contract h_gen(n2/2), n2 > 0, against a raw term dict; a fresh dict."""
    target = (gen, -n2)
    amount = n2 // 2 if n2 % 2 == 0 else Fraction(n2, 2)
    out = {}
    for mono, c in terms.items():
        mult = mono.count(target)
        if not mult:
            continue
        idx = mono.index(target)
        reduced = mono[:idx] + mono[idx + 1:]
        add = out.get(reduced, 0) + c * (amount * mult)
        if add:
            out[reduced] = add
        else:
            out.pop(reduced, None)
    return out


def theta(vec):
    """The involution scaling each monomial by (-1)^(number of modes)."""
    return FockVector(vec.ell, vec.twisted,
                      {m: (c if mono_parity(m) == 1 else -c) for m, c in vec.terms.items()})


def _partitions(total, max_part, allowed_step, min_part):
    """Partitions of ``total`` into parts from {min_part, min_part+step, ...}."""
    if total == 0:
        yield ()
        return
    part = min(max_part, total)
    # Align the largest usable part with the allowed residue class.
    while part >= min_part and (part - min_part) % allowed_step != 0:
        part -= 1
    while part >= min_part:
        for rest in _partitions(total - part, part, allowed_step, min_part):
            yield (part,) + rest
        part -= allowed_step


def basis(ell, twisted, weight, parity="all"):
    """All canonical monomials of the given mode-weight, filtered by parity.

    ``weight`` may be an int or Fraction; the twisted sector admits
    half-integer weights.  The result comes back in the canonical monomial
    order, so callers can rely on reproducible indexing.
    """
    w2 = _to_n2(weight)
    if w2 < 0:
        raise ValueError("weight must be nonnegative")
    if parity not in ("even", "odd", "all"):
        raise ValueError(f"parity filter {parity!r} not one of even/odd/all")
    min_part = 1 if twisted else 2
    out = []
    for part_shape in _partitions(w2, w2, 2, min_part):
        if parity == "even" and len(part_shape) % 2:
            continue
        if parity == "odd" and len(part_shape) % 2 == 0:
            continue
        # Distribute generator colors over equal parts without double counting.
        groups = []
        for p in sorted(set(part_shape), reverse=True):
            groups.append((p, part_shape.count(p)))
        colorings = [()]
        for p, count in groups:
            colorings = [
                prev + tuple((g, -p) for g in combo)
                for prev in colorings
                for combo in combinations_with_replacement(range(1, ell + 1), count)
            ]
        for modes in colorings:
            out.append(tuple(sorted(modes)))
    out.sort(key=mono_key)
    return out

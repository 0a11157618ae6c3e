"""Fock-space states of the vacuum module of the rank-ell free boson.

States are finite linear combinations of creation monomials
``h_g(-n_1) ... h_g(-n_k) |0>`` with exact coefficients; every creation
mode of the vacuum module has an integer index.  The twisted module is met
only through its top levels, read off the expansion in
:mod:`orbifock.twisted`, and no twisted state is built.

A monomial is a tuple of ``(gen, n)`` pairs with the mode index ``n < 0``,
sorted ascending, so commuting creation operators have one canonical
spelling.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .coeffs import clear_denominators, format_sum

# A monomial is a tuple of (gen, n) pairs; the vacuum is the empty tuple.
VACUUM = ()


def mono_weight(mono):
    """The mode-weight of a monomial (sum of -n over its modes)."""
    return -sum(n for _, n in mono)


def mono_key(mono):
    """Deterministic total order on monomials: by weight, then mode tuple."""
    return (mono_weight(mono), mono)


def make_monomial(ell, modes):
    """Canonical creation monomial from (gen, n) pairs.

    Rejects annihilation or zero modes, generator indices outside 1..ell, and
    indices that are not integers.
    """
    out = []
    for gen, n in modes:
        if type(n) is not int and Fraction(n).denominator != 1:
            raise ValueError(f"mode index {n} is not an integer")
        if not 1 <= gen <= ell:
            raise ValueError(f"generator index {gen} out of range 1..{ell}")
        if n >= 0:
            raise ValueError(f"h{gen}({n}) is not a creation mode")
        out.append((gen, int(n)))
    out.sort()
    return tuple(out)


def format_monomial(mono):
    if not mono:
        return "one"
    return "".join(f"h{g}({n})" for g, n in mono)


class FockVector:
    """A finite linear combination of canonical monomials.

    Zero coefficients are never stored.  All operations return fresh
    vectors, and an instance must never be changed: it keeps forms derived
    from its terms, each made on first use and then shared with every
    reader, who must not change them either.  They are its integer form
    (:meth:`integer_form`), its parity (:meth:`is_even`) and its twisted
    sum, which only :func:`orbifock.twisted.apply_delta` reads and writes.

    A state built from its coefficients keeps them as ``terms``.  A state
    born as integers (:meth:`from_integer`, every product of
    :func:`orbifock.vertex.mode_component`) keeps only its integer form,
    and ``terms`` is a view of it whose Fractions are made on first read;
    with a denominator of 1 the view is the int dict itself.  Parity,
    weight, :meth:`coeff` and :meth:`is_zero` read the integer form's keys,
    so they never make the view.
    """

    __slots__ = ("ell", "_terms", "_int", "_even", "_twisted")

    def __init__(self, ell, terms=None):
        self.ell = ell
        self._terms = {m: c for m, c in (terms or {}).items() if c}
        self._int = self._even = self._twisted = None

    @classmethod
    def from_integer(cls, ell, den, ints):
        """The state with int numerators ``ints`` over the positive int
        ``den``, born as its integer form: the zeros are dropped and the
        gcd of ``den`` and the numerators divided out, so the form is what
        :func:`orbifock.coeffs.clear_denominators` gives for its terms."""
        ints = {m: c for m, c in ints.items() if c}
        if den > 1:
            g = gcd(den, *ints.values())
            if g > 1:
                den //= g
                ints = {m: c // g for m, c in ints.items()}
        vec = cls.__new__(cls)
        vec.ell = ell
        vec._int = den, ints
        vec._terms = ints if den == 1 else None
        vec._even = vec._twisted = None
        return vec

    @property
    def terms(self):
        """{monomial: coefficient}; for a state born as integers, made from
        its integer form on first read."""
        if self._terms is None:
            den, ints = self._int
            self._terms = {m: Fraction(c, den) for m, c in ints.items()}
        return self._terms

    def _monomials(self):
        """The monomials, read without making the ``terms`` view."""
        return self._int[1] if self._terms is None else self._terms

    @classmethod
    def zero(cls, ell):
        return cls(ell, {})

    @classmethod
    def vacuum(cls, ell, coeff=1):
        return cls(ell, {VACUUM: coeff})

    @classmethod
    def from_monomial(cls, ell, mono, coeff=1):
        return cls(ell, {mono: coeff})

    def is_zero(self):
        return not self._monomials()

    def __bool__(self):
        return bool(self._monomials())

    def _check_compatible(self, other):
        if self.ell != other.ell:
            raise ValueError("rank mismatch between vectors")

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return FockVector(self.ell, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FockVector(self.ell, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return FockVector.zero(self.ell)
        return FockVector(self.ell, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.ell == other.ell and self.terms == other.terms

    def coeff(self, mono):
        if self._terms is None:
            den, ints = self._int
            c = ints.get(mono)
            return Fraction(c, den) if c else 0
        return self._terms.get(mono, 0)

    def weight(self):
        """The common mode-weight; raises on inhomogeneous vectors."""
        ws = {mono_weight(m) for m in self._monomials()}
        if not ws:
            raise ValueError("the zero vector has no weight")
        if len(ws) > 1:
            raise ValueError(f"vector is not homogeneous (weights {sorted(ws)})")
        return ws.pop()

    def max_weight(self):
        return max((mono_weight(m) for m in self._monomials()), default=0)

    def integer_form(self):
        """(den, ints): the lcm of the coefficients' denominators and the
        terms times it, as ints, from
        :func:`orbifock.coeffs.clear_denominators`.  Made once; with every
        coefficient an int, ``ints`` is ``terms`` itself."""
        if self._int is None:
            self._int = clear_denominators(self.terms)
        return self._int

    def is_even(self):
        """True when every monomial has an even number of modes."""
        if self._even is None:
            self._even = all(len(m) % 2 == 0 for m in self._monomials())
        return self._even

    def __str__(self):
        return format_sum([(str(self.terms[m]), format_monomial(m) if m else "")
                           for m in sorted(self.terms, key=mono_key)])

    __repr__ = __str__


def single(ell, modes, coeff=1):
    """Vector with one monomial, given as (gen, n) pairs."""
    return FockVector.from_monomial(ell, make_monomial(ell, modes), coeff)


def annihilate(mono, gen, n):
    """h_gen(n), n > 0, on one monomial: the pair (the monomial less one
    factor h_gen(-n), n * multiplicity), or None without such a factor."""
    target = (gen, -n)
    mult = mono.count(target)
    if not mult:
        return None
    idx = mono.index(target)
    return mono[:idx] + mono[idx + 1:], n * mult


def sector(mono):
    """The parity sector of a monomial: the bitmask whose bit g-1 is set
    when h_g occurs an odd number of times.  A monomial is even exactly when
    its sector has an even number of bits."""
    s = 0
    for g, _ in mono:
        s ^= 1 << (g - 1)
    return s


@lru_cache(maxsize=None)
def count_sector(ell, window, sector):
    """How many monomials of a sector weigh at most ``window``, without
    listing them.  With each mode marked by s, one generator's monomials
    have the generating function prod_{n >= 1} (1 - s t^n)^(-1); its even
    and odd parts in s, at s = 1, count the monomials with an even and an
    odd number of modes.  The sector's series is the product over the
    generators of the odd part where its bit is set and the even part
    elsewhere.  Each count is made once per process."""
    signed = {}
    for s in (1, -1):
        series = signed[s] = [1] + [0] * window
        for n in range(1, window + 1):
            # Multiply by 1 / (1 - s t^n), in place.
            for k in range(n, window + 1):
                series[k] += s * series[k - n]
    even = [(a + b) // 2 for a, b in zip(signed[1], signed[-1])]
    odd = [(a - b) // 2 for a, b in zip(signed[1], signed[-1])]
    total = [1] + [0] * window
    for g in range(ell):
        part = odd if sector >> g & 1 else even
        total = [sum(total[i] * part[k - i] for i in range(k + 1))
                 for k in range(window + 1)]
    return sum(total)


def basis(ell, weight, parity="all", sector=None):
    """All canonical monomials of the given integer mode-weight, filtered
    by parity and, unless ``sector`` is None, to that sector.

    The result comes back in the canonical monomial order, so callers can
    rely on reproducible indexing.  A sector is grown, not filtered: no
    monomial outside it is listed.  Each listing is made once per process
    and every call gets a fresh list of it.
    """
    return list(_listing(ell, weight, parity, sector))


@lru_cache(maxsize=None)
def _listing(ell, weight, parity, sector):
    """The monomials of :func:`basis`, as a tuple."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")
    if parity not in ("even", "odd", "all"):
        raise ValueError(f"parity filter {parity!r} not one of even/odd/all")
    keep = {"even": (0,), "odd": (1,), "all": (0, 1)}[parity]
    out = []

    def grow(mono, g0, n0, left, par):
        # Extend mono by modes (g, n) >= (g0, n0) of total weight left, so
        # the monomials come out in the order of mono_key.  par is the
        # sector of mono; each generator whose parity is still wrong needs
        # one more mode, of weight at least 1.
        if sector is not None and (par ^ sector).bit_count() > left:
            return
        if not left:
            if len(mono) % 2 in keep:
                out.append(mono)
            return
        for g in range(g0, ell + 1):
            # The generators below g get no more modes.
            if sector is not None and (par ^ sector) & ((1 << (g - 1)) - 1):
                break
            for n in range(max(n0, -left) if g == g0 else -left, 0):
                grow(mono + ((g, n),), g, n, left + n, par ^ (1 << (g - 1)))

    grow((), 1, -weight, weight, 0)
    return tuple(out)

"""Exact coefficients: rationals and polynomials in the highest-weight parameters.

Every coefficient in the package is an ``int``, a ``fractions.Fraction`` or
an :class:`LPoly`, a multivariate polynomial in the symbols ``l1 .. l_ell``
with rational coefficients; the integer kernels return ints where no
denominator is left (``star(S, S)`` and ``e_u(2, 1, 2)`` have only ints).
A Fock state's coefficients are rationals only, held as int numerators
over one denominator (:func:`clear_denominators` gives that form), and a
Fraction is made only where a coefficient is read out (``coeff``,
``terms``).
No floats, anywhere.  A rational and an ``LPoly`` combine into an ``LPoly``;
generic code can add and multiply coefficients without caring which kind it
holds.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def clear_denominators(terms):
    """(d, scaled): d is the lcm of the denominators of the values of
    ``terms`` and ``scaled`` maps each key to its value times d, an int.

    A dict of ints comes back as it is, with d = 1.
    """
    if all(type(c) is int for c in terms.values()):
        return 1, terms
    d = lcm(1, *(c.denominator for c in terms.values()))
    return d, {k: c.numerator * (d // c.denominator) for k, c in terms.items()}


def format_sum(terms):
    """The text of a sum of (coefficient text, factor text) terms: a unit
    coefficient prints as its sign, an empty factor as a bare coefficient."""
    parts = []
    for cs, factor in terms:
        if not factor:
            parts.append(cs)
        elif cs == "1":
            parts.append(factor)
        elif cs == "-1":
            parts.append("-" + factor)
        else:
            parts.append(f"{cs}*{factor}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


class LPoly:
    """Polynomial in l1..l_ell over the rationals, kept in normal form.

    Terms are a map from exponent tuples (length ``ell``) to nonzero
    ``Fraction`` coefficients.  Instances are immutable by convention.
    """

    __slots__ = ("ell", "terms")

    def __init__(self, ell, terms):
        self.ell = ell
        self.terms = _clean(terms)

    @classmethod
    def const(cls, ell, value):
        value = Fraction(value)
        zero = (0,) * ell
        return cls(ell, {zero: value} if value else {})

    @classmethod
    def unit(cls, ell, index):
        """The polynomial l_index, with 1 <= index <= ell."""
        if not 1 <= index <= ell:
            raise ValueError(f"lambda index {index} out of range 1..{ell}")
        exp = tuple(1 if i == index - 1 else 0 for i in range(ell))
        return cls(ell, {exp: Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        if isinstance(other, LPoly):
            if other.ell != self.ell:
                raise ValueError("mixing polynomials over different ranks")
            return other
        if isinstance(other, (int, Fraction)):
            return LPoly.const(self.ell, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LPoly(self.ell, terms)

    __radd__ = __add__

    def __neg__(self):
        return LPoly(self.ell, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return LPoly(self.ell, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LPoly.const(self.ell, other)
        if not isinstance(other, LPoly):
            return NotImplemented
        return self.ell == other.ell and self.terms == other.terms

    def sorted_terms(self):
        """Terms in the canonical order: graded, then lexicographic exponents."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]))

    def __str__(self):
        terms = []
        for exp, coeff in self.sorted_terms():
            factors = [f"l{i + 1}" if e == 1 else f"l{i + 1}^{e}"
                       for i, e in enumerate(exp) if e]
            terms.append((str(coeff), "*".join(factors)))
        return format_sum(terms)

    __repr__ = __str__


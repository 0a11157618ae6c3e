"""Top-level actions of even states on the five known irreducible families.

The zero-mode o(u) of an even state acts on the lowest graded piece of each
module; evaluating there is exact and fast and is the package's disproof
oracle: circle elements act as zero on every top level, so two states whose
evaluations differ can never be equivalent in the quotient.

Families and their top-level bases:

    Hplus   vacuum module, even part          basis { |0> }
    Hminus  vacuum module, odd part           basis { h_a(-1)|0> }
    Mlambda highest-weight module, symbolic   basis { |lambda> }
    Tplus   twisted module, even part         basis { |0>_tw }
    Tminus  twisted module, odd part          basis { h_a(-1/2)|0>_tw }

Matrix actions follow the column convention: ``entry[i][j]`` is the
coefficient of basis vector i in o(u) applied to basis vector j, so words
evaluate by left-to-right matrix products and the unit E(a,b) sends basis
vector b to basis vector a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeffs import LPoly
from .fock import VACUUM, FockVector
from .twisted import apply_delta, twisted_zero_mode
from .vertex import top_level_matrix

FAMILIES = ("Hplus", "Hminus", "Mlambda", "Tplus", "Tminus")

# Discriminating families first: this is the witness search order.
WITNESS_ORDER = ("Hminus", "Mlambda", "Tminus", "Hplus", "Tplus")

_MATRIX_FAMILIES = {"Hminus", "Tminus"}


@dataclass(frozen=True)
class TopLevelAction:
    """Scalar, lambda-polynomial, or exact rational matrix."""

    kind: str  # "scalar" | "poly" | "matrix"
    data: object

    # -- constructors -------------------------------------------------------

    @classmethod
    def scalar(cls, value):
        return cls("scalar", Fraction(value))

    @classmethod
    def poly(cls, p):
        return cls("poly", p)

    @classmethod
    def matrix(cls, rows):
        return cls("matrix", tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def zero(cls, fam, rank):
        if fam in _MATRIX_FAMILIES:
            return cls.matrix([[0] * rank for _ in range(rank)])
        if fam == "Mlambda":
            return cls.poly(LPoly.const(rank, 0))
        return cls.scalar(0)

    @classmethod
    def identity(cls, fam, rank):
        if fam in _MATRIX_FAMILIES:
            return cls.matrix([[1 if i == j else 0 for j in range(rank)]
                               for i in range(rank)])
        if fam == "Mlambda":
            return cls.poly(LPoly.const(rank, 1))
        return cls.scalar(1)

    @classmethod
    def unit_matrix(cls, rank, a, b):
        """E(a,b): sends basis vector b to basis vector a."""
        return cls.matrix([[1 if (i == a and j == b) else 0
                            for j in range(1, rank + 1)]
                           for i in range(1, rank + 1)])

    # -- arithmetic ----------------------------------------------------------

    def _require(self, other):
        if self.kind != other.kind:
            raise ValueError(f"mixing {self.kind} and {other.kind} actions")

    def __add__(self, other):
        self._require(other)
        if self.kind == "matrix":
            return TopLevelAction.matrix(
                [[a + b for a, b in zip(r1, r2)]
                 for r1, r2 in zip(self.data, other.data)])
        return TopLevelAction(self.kind, self.data + other.data)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if self.kind == "matrix":
            return TopLevelAction.matrix([[c * v for v in row] for row in self.data])
        return TopLevelAction(self.kind, c * self.data)

    def __mul__(self, other):
        """Composition: left-to-right word products."""
        self._require(other)
        if self.kind == "matrix":
            n = len(self.data)
            rows = [[sum((self.data[i][k] * other.data[k][j] for k in range(n)),
                         Fraction(0)) for j in range(n)] for i in range(n)]
            return TopLevelAction.matrix(rows)
        return TopLevelAction(self.kind, self.data * other.data)

    def is_zero(self):
        if self.kind == "matrix":
            return all(not v for row in self.data for v in row)
        return not self.data

    # -- inspection -----------------------------------------------------------

    def entries(self):
        """(label, value) pairs in a deterministic order, zeros included."""
        if self.kind == "matrix":
            return [((i + 1, j + 1), v)
                    for i, row in enumerate(self.data)
                    for j, v in enumerate(row)]
        if self.kind == "poly":
            return [(exp, c) for exp, c in self.data.sorted_terms()]
        return [((), self.data)]

    def to_string(self):
        if self.kind == "matrix":
            return "[" + ";".join(
                ",".join(str(v) for v in row) for row in self.data) + "]"
        return str(self.data)

    def __str__(self):
        return self.to_string()


def evaluate(u, fam):
    """The action of o(u) on the family's top level, exactly.

    By Wick's theorem a term c * h_{a_1}(-n_1)...h_{a_k}(-n_k) of u acts
    on a top level only through its balanced mode tuples, and there are few:

    - Hplus: annihilators kill |0> and no zero mode acts, so only the
      vacuum coefficient of u survives.
    - Mlambda: annihilators kill |lambda> and creators raise its weight, so
      every factor takes its zero mode, with coefficient C(-1, n-1) =
      (-1)^(n-1): the term gives c * prod (-1)^(n_i - 1) l_{a_i}.
    - Hminus: one contraction and one creation at modes +-1, or none
      (:func:`orbifock.vertex.top_level_matrix`).
    - Tplus and Tminus: the same on the remainders of exp(Delta_z) u at
      modes +-1/2, summed over the powers of z
      (:func:`orbifock.twisted.apply_delta`; Tplus goes through
      :func:`orbifock.twisted.twisted_zero_mode`).  Only the empty
      remainder and the two-factor ones act, so Tplus expands
      exp(Delta_z) u to its perfect matchings only and Tminus to the
      matchings that leave at most two factors.
    """
    if u.twisted:
        raise ValueError("evaluate expects untwisted states")
    if not u.is_even():
        raise ValueError("evaluate expects even-parity states")
    rank = u.ell
    if fam == "Hplus":
        return TopLevelAction.scalar(u.coeff(VACUUM))
    if fam == "Mlambda":
        terms = {}
        for mono, c in u.terms.items():
            exps = [0] * rank
            for g, n2 in mono:
                exps[g - 1] += 1
                if n2 % 4 == 0:  # n = -n2/2 is even
                    c = -c
            exps = tuple(exps)
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return TopLevelAction.poly(LPoly(rank, terms))
    if fam == "Hminus":
        return TopLevelAction.matrix(top_level_matrix(u.terms, rank, 2))
    if fam == "Tplus":
        w = twisted_zero_mode(u, FockVector.vacuum(rank, twisted=True))
        return TopLevelAction.scalar(w.coeff(VACUUM))
    if fam == "Tminus":
        return TopLevelAction.matrix(
            top_level_matrix(apply_delta(u, keep=2), rank, 1))
    raise ValueError(f"unknown family {fam!r}")


def evaluate_word(factors, fam):
    """Left-to-right product of the factors' top-level actions."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty word")
    out = evaluate(factors[0], fam)
    for f in factors[1:]:
        out = out * evaluate(f, fam)
    return out


@dataclass(frozen=True)
class Witness:
    """Where two states' top-level actions first differ."""

    family: str
    entry: object
    left: object
    right: object

    def __str__(self):
        where = f" at {self.entry}" if self.entry not in ((), None) else ""
        return f"{self.family}{where}: {self.left} vs {self.right}"


def disprove_equiv(x, y):
    """First family (fixed order) whose evaluations differ, or None."""
    for fam in WITNESS_ORDER:
        ax = evaluate(x, fam)
        ay = evaluate(y, fam)
        if ax != ay:
            left = dict(ax.entries())
            right = dict(ay.entries())
            for entry, v in (ax - ay).entries():
                if v:
                    return Witness(fam, entry,
                                   left.get(entry, Fraction(0)),
                                   right.get(entry, Fraction(0)))
    return None


def _flatten(u, poly, lambda_monomials):
    row = []
    for fam in ("Hminus", "Tminus"):
        act = evaluate(u, fam)
        row.extend(v for _, v in act.entries())
    for fam in ("Hplus", "Tplus"):
        row.append(evaluate(u, fam).data)
    row.extend(poly.terms.get(exp, Fraction(0)) for exp in lambda_monomials)
    return row


def independence_rank(elements):
    """Rank of the stacked evaluation functionals of the given states."""
    elements = list(elements)
    if not elements:
        return 0
    exps = set()
    polys = [evaluate(u, "Mlambda").data for u in elements]
    for p in polys:
        exps.update(p.terms)
    lambda_monomials = sorted(exps)
    rows = [_flatten(u, p, lambda_monomials) for u, p in zip(elements, polys)]
    return _fraction_rank(rows)


def _fraction_rank(rows):
    rows = [list(r) for r in rows]
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

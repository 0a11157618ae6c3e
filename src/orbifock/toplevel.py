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

An action is a plain value: a ``Fraction`` on the one-dimensional top
levels (Hplus, Tplus), the ``LPoly`` in l1..l_ell on Mlambda, and a
:class:`Matrix` on Hminus and Tminus, so sums and words of actions use
Python's operators.  Matrix actions follow the column convention:
``rows[i][j]`` is the coefficient of basis vector i in o(u) applied to
basis vector j, so words evaluate by left-to-right matrix products and the
unit E(a,b) sends basis vector b to basis vector a.

The twisted families read o(u) on the remainders of exp(Delta_z) u
(:func:`orbifock.twisted.apply_delta`), whose plain fields act on the
twisted top level as untwisted fields act on the h_j(-1)|0>, at modes
+-1/2 in place of +-1 (:func:`top_level_matrix`): only the empty and the
two-factor remainders act.  Matchings remove factors in pairs, so an even
state leaves only remainders of even length.  Tplus therefore keeps the
perfect matchings alone (:func:`orbifock.twisted.twisted_zero_mode`) and
Tminus the matchings that leave at most two factors, and both are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coeffs import LPoly
from .fock import VACUUM
from .twisted import apply_delta, twisted_zero_mode
from .vertex import d_coeff2
from .zhu import exact_rank

FAMILIES = ("Hplus", "Hminus", "Mlambda", "Tplus", "Tminus")

# Discriminating families first: this is the witness search order.
WITNESS_ORDER = ("Hminus", "Mlambda", "Tminus", "Hplus", "Tplus")

_MATRIX_FAMILIES = {"Hminus", "Tminus"}


class Matrix:
    """An immutable square matrix of Fractions, in the column convention."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(v) for v in row) for row in rows)

    @classmethod
    def unit(cls, rank, a, b):
        """E(a,b): sends basis vector b to basis vector a."""
        if not (1 <= a <= rank and 1 <= b <= rank):
            raise ValueError(f"matrix unit index out of range 1..{rank}")
        return cls([[int(i == a and j == b) for j in range(1, rank + 1)]
                    for i in range(1, rank + 1)])

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix([[-v for v in row] for row in self.rows])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Composition (left-to-right word products) or a scalar multiple."""
        if isinstance(other, Matrix):
            cols = list(zip(*other.rows))
            return Matrix([[sum((a * b for a, b in zip(row, col)), Fraction(0))
                            for col in cols] for row in self.rows])
        if isinstance(other, (int, Fraction)):
            return Matrix([[other * v for v in row] for row in self.rows])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __bool__(self):
        return any(v for row in self.rows for v in row)

    def __str__(self):
        return "[" + ";".join(",".join(str(v) for v in row)
                              for row in self.rows) + "]"


def identity(fam, rank):
    """The action of the vacuum on the family's top level."""
    if fam in _MATRIX_FAMILIES:
        return Matrix([[int(i == j) for j in range(rank)] for i in range(rank)])
    if fam == "Mlambda":
        return LPoly.const(rank, 1)
    return Fraction(1)


def _entries(act):
    """(entry, value) pairs of an action, in the witness reading order."""
    if isinstance(act, Matrix):
        return [((i + 1, j + 1), v)
                for i, row in enumerate(act.rows) for j, v in enumerate(row)]
    if isinstance(act, LPoly):
        return act.sorted_terms()
    return [((), act)]


def _check_state(u):
    if not u.is_even():
        raise ValueError("evaluate expects even-parity states")


@lru_cache(maxsize=None)
def _pair_weight(k2, q, p):
    """k d(k, q) d(-k, p), the weight of h_a(-p) h_b(-q) at entry (a, b).

    At k = 1 it is an int, and zero unless p = 1, since d(-1, p) = C(0, p-1).
    """
    k = k2 // 2 if k2 % 2 == 0 else Fraction(k2, 2)
    return k * d_coeff2(k2, q) * d_coeff2(-k2, p)


def top_level_matrix(terms, rank, k2):
    """o(v) on a top level spanned by h_j(-k)|top>, j = 1..rank, as rows.

    ``terms`` maps monomials to coefficients: those of v on the vacuum
    module (k = 1), or those of the remainders of exp(Delta_z) v on the
    twisted module (k = 1/2); ``k2`` is twice k.  Neither module has a
    zero mode, so a grade-preserving mode tuple on h_b(-k)|top> is either
    empty or contracts h_b(k) against it and creates one h_a(-k).  The
    vacuum term thus acts as the identity, a two-factor term
    h_a(-p) h_b(-q) adds k d(k, q) d(-k, p) to entry (a, b) and the mirror
    term to entry (b, a), and every other term acts as zero.  Here
    d(k, n) = C(-k-1, n-1) is :func:`orbifock.vertex.d_coeff2`, and entry
    (a, b) is the coefficient of basis vector a in the image of basis
    vector b.

    The factor k d(k, q) d(-k, p) is folded into one cached weight per
    (k2, q, p) (:func:`_pair_weight`), an int at k = 1.  Rational products
    are associative, so c times the folded weight is exactly the product
    of the four factors: a term costs one product per entry it reaches,
    and a zero weight none.
    """
    rows = [[0] * rank for _ in range(rank)]
    for mono, c in terms.items():
        if not mono:
            for i in range(rank):
                rows[i][i] += c
        elif len(mono) == 2:
            (a, p2), (b, q2) = mono
            p, q = -p2 // 2, -q2 // 2
            w = _pair_weight(k2, q, p)
            if w:
                rows[a - 1][b - 1] += c * w
            w = _pair_weight(k2, p, q)
            if w:
                rows[b - 1][a - 1] += c * w
    return rows


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
      (:func:`top_level_matrix`).
    - Tplus: the empty remainder of exp(Delta_z) u, summed over the powers
      of z (:func:`orbifock.twisted.twisted_zero_mode`).
    - Tminus: :func:`top_level_matrix` on the remainders of at most two
      factors, at modes +-1/2 (module docstring).
    """
    _check_state(u)
    rank = u.ell
    if fam == "Hplus":
        return Fraction(u.coeff(VACUUM))
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
        return LPoly(rank, terms)
    if fam == "Hminus":
        return Matrix(top_level_matrix(u.terms, rank, 2))
    if fam == "Tplus":
        return twisted_zero_mode(u)
    if fam == "Tminus":
        return Matrix(top_level_matrix(apply_delta(u, keep=2), rank, 1))
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


def first_nonzero(u, order):
    """The first (family, entry, value) where o(u) is nonzero, or None.

    Families are read in the given order, and each action's entries in
    the order of :func:`_entries`.
    """
    for fam in order:
        for entry, v in _entries(evaluate(u, fam)):
            if v:
                return fam, entry, v
    return None


def disprove_equiv(x, y):
    """First family (fixed order) whose evaluations differ, or None.

    Evaluation is linear, so each family evaluates x - y once; only the
    witnessing family evaluates x and y, for the witness text.  Both sides
    are checked first, because odd parts can cancel in x - y.
    """
    _check_state(x)
    _check_state(y)
    found = first_nonzero(x - y, WITNESS_ORDER)
    if found is None:
        return None
    fam, entry, _ = found
    left, right = (dict(_entries(evaluate(v, fam))).get(entry, Fraction(0))
                   for v in (x, y))
    return Witness(fam, entry, left, right)


def independence_rank(elements):
    """Rank of the stacked evaluation functionals of the given states: one
    sparse row per state over its (family, entry) values on all five
    families, ranked by :func:`orbifock.zhu.exact_rank`."""
    return exact_rank({(fam, entry): v for fam in FAMILIES
                       for entry, v in _entries(evaluate(u, fam))}
                      for u in elements)

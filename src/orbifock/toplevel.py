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
unit E(a,b) sends basis vector b to basis vector a.  A Matrix holds integer
numerators ``num`` over one positive denominator ``den`` in lowest terms
(gcd 1, and ``den == 1`` for the zero matrix), so its products, sums and
comparisons run in integers; ``rows`` gives the entries as Fractions.

The twisted families read o(u) on the remainders of exp(Delta_z) u
(:func:`orbifock.twisted.apply_delta`), whose plain fields act on the
twisted top level as untwisted fields act on the h_j(-1)|0>, at modes
+-1/2 in place of +-1 (:func:`top_level_matrix`): only the empty and the
two-factor remainders act.  Matchings remove factors in pairs, so an even
state leaves only remainders of even length.  So one expansion, cut at
remainders of two factors, serves both and is exact: Tplus reads its empty
remainder (:func:`orbifock.twisted.twisted_zero_mode`) and Tminus hands
its integer numerators over the one denominator to
:func:`top_level_matrix` as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from operator import mul

from .coeffs import LPoly
from .fock import VACUUM
from .twisted import apply_delta, twisted_zero_mode
from .vertex import d_coeff
from .zhu import exact_rank

FAMILIES = ("Hplus", "Hminus", "Mlambda", "Tplus", "Tminus")

# Discriminating families first: this is the witness search order.
WITNESS_ORDER = ("Hminus", "Mlambda", "Tminus", "Hplus", "Tplus")


class Matrix:
    """An immutable square matrix of rationals, in the column convention.

    ``Matrix(num, den)`` is the matrix of int rows ``num`` over a positive
    int ``den``, reduced to lowest terms: the gcd of ``den`` and every
    numerator is 1, so a zero matrix has ``den == 1`` and equal matrices
    have equal ``(den, num)``.  A product is integer dot products and one
    gcd; ``rows`` gives the entries as Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        g = gcd(den, *chain.from_iterable(num))
        self.num = tuple(tuple(v // g for v in row) for row in num)
        self.den = den // g

    @classmethod
    def unit(cls, rank, a, b):
        """E(a,b): sends basis vector b to basis vector a."""
        if not (1 <= a <= rank and 1 <= b <= rank):
            raise ValueError(f"matrix unit index out of range 1..{rank}")
        return cls([[int(i == a and j == b) for j in range(1, rank + 1)]
                    for i in range(1, rank + 1)])

    @property
    def rows(self):
        """The entries as tuples of Fractions."""
        return tuple(tuple(Fraction(v, self.den) for v in row)
                     for row in self.num)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        d1, d2 = self.den, other.den
        return Matrix([[a * d2 + b * d1 for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.num, other.num)], d1 * d2)

    def __neg__(self):
        return Matrix([[-v for v in row] for row in self.num], self.den)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Composition (left-to-right word products) or a scalar multiple."""
        if isinstance(other, Matrix):
            cols = list(zip(*other.num))
            return Matrix([[sum(map(mul, row, col)) for col in cols]
                           for row in self.num], self.den * other.den)
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return Matrix([[n * v for v in row] for row in self.num],
                          self.den * other.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __bool__(self):
        return any(map(any, self.num))

    def __str__(self):
        return "[" + ";".join(",".join(str(v) for v in row)
                              for row in self.rows) + "]"


def identity(fam, rank):
    """The action of the vacuum on the family's top level."""
    if fam in ("Hminus", "Tminus"):
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
    """k d(k, q) d(-k, p) at k = k2 / 2, the weight of h_a(-p) h_b(-q) at
    entry (a, b), as the pair (n, s) of the weight n / 2**s in lowest terms.
    The key is the int k2, which hashes faster than a Fraction k.

    At k = 1 it is an int (s = 0), and zero unless p = 1, since d(-1, p) =
    C(0, p-1).  At k = 1/2 the binomials C(-k-1, n-1) of a half-integer
    have power-of-two denominators, and so does the weight.
    """
    k = Fraction(k2, 2) if k2 % 2 else k2 // 2
    w = Fraction(k * d_coeff(k, q) * d_coeff(-k, p))
    return w.numerator, w.denominator.bit_length() - 1


def top_level_matrix(den, terms, rank, k):
    """o(v) on a top level spanned by h_j(-k)|top>, j = 1..rank, a Matrix.

    ``terms`` maps monomials to int numerators over the positive int ``den``:
    those of v on the vacuum module (k = 1), or those of the remainders of
    exp(Delta_z) v on the twisted module (k = Fraction(1, 2), from
    :func:`orbifock.twisted.apply_delta`).  Neither module has a zero mode, so
    a grade-preserving mode tuple on h_b(-k)|top> is either empty or contracts
    h_b(k) against it and creates one h_a(-k).  The vacuum term thus acts as
    the identity, a two-factor term h_a(-p) h_b(-q) adds k d(k, q) d(-k, p) to
    entry (a, b) and the mirror term to entry (b, a), and every other term acts
    as zero.  Here d(k, n) = C(-k-1, n-1) is :func:`orbifock.vertex.d_coeff`,
    and entry (a, b) is the coefficient of basis vector a in the image of basis
    vector b.

    The sums run in integers: each factor k d(k, q) d(-k, p) is one cached
    weight n / 2**s per (k, q, p) (:func:`_pair_weight`), lifted to the
    largest s that a term reaches.  A term costs one product per entry it
    reaches, and a zero weight none; the matrix is reduced once.
    """
    k2 = int(2 * k)
    diag = 0
    reached = []  # (row, column, c * n, s) for each nonzero weight n / 2**s
    for mono, c in terms.items():
        if not mono:
            diag += c
        elif len(mono) == 2:
            (a, p), (b, q) = mono
            p, q = -p, -q
            w, s = _pair_weight(k2, q, p)
            if w:
                reached.append((a - 1, b - 1, c * w, s))
            w, s = _pair_weight(k2, p, q)
            if w:
                reached.append((b - 1, a - 1, c * w, s))
    top = max((s for *_, s in reached), default=0)
    num = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        num[i][i] = diag << top
    for i, j, x, s in reached:
        num[i][j] += x << (top - s)
    return Matrix(num, den << top)


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
        den, scaled = u.integer_form()
        terms = {}
        for mono, c in scaled.items():
            exps = [0] * rank
            for g, n in mono:
                exps[g - 1] += 1
                if n % 2 == 0:
                    c = -c
            exps = tuple(exps)
            terms[exps] = terms.get(exps, 0) + c
        return LPoly(rank, {e: Fraction(c, den) for e, c in terms.items()})
    if fam == "Hminus":
        return top_level_matrix(*u.integer_form(), rank, 1)
    if fam == "Tplus":
        return twisted_zero_mode(u)
    if fam == "Tminus":
        return top_level_matrix(*apply_delta(u), rank, Fraction(1, 2))
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
        act = evaluate(u, fam)
        if not act:
            continue
        for entry, v in _entries(act):
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

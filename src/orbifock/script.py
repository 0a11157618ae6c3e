"""A small assertion language for quotient-algebra checks.

Scripts are plain text, one statement per line, ``#`` comments::

    assert_equiv w1 * Eu(2,3) ~ 0
    assert_eval Lam(1,2) on Mlambda = l1*l2
    assert_rank [S(1,1;2,1), S(1,1;2,2)] = 2
    assert_zero_eval circ(w1, J1)

Expression atoms are the names listed in the ``_ATOMS`` table, such as
``w1``, ``Eu(2,3)`` and ``S(a,m;b,n)`` (``I``, ``l1`` and ``E(a,b)`` only
in expected values, on the right of ``assert_eval``: ``l1`` on Mlambda and
``E(a,b)`` on Hminus and Tminus, checked at parse time), raw monomials like
``h1(-3)h1(-1)``, and rational literals.  ``*`` is the quotient product
(left associative), ``^`` an integer product power, ``circ(x,y)`` /
``circn(x,y,n)`` the circle elements, and a literal juxtaposed before an
atom is a tight scalar multiple.  A script is always parsed at a rank, and
every generator index must lie in 1..rank.

Expressions nest at most ``MAX_NESTING`` = 100 levels, checked at parse
time: parentheses, circle arguments and unary minus signs each open one,
as does each node on a path of the parsed tree (a sum of k terms is k
deep), so parsing, realizing and formatting stay below the recursion limit.
Integer literals, glued indices such as the 1 of ``w1`` included, have at
most ``_MAX_DIGITS`` = 4300 digits, also checked at parse time.

Realizing an expression keeps four guards, each raising ResourceWarning:
the weight cap ``zhu.MAX_WEIGHT_CAP``, checked on every product, power,
circle and atom before it is computed, and on the degree of every
polynomial product; the bound ``_MAX_PAIRS`` on the term pairs of each
polynomial product (:func:`_times`); the digit bound ``_MAX_DIGITS`` on
each partial product of a power (:func:`_power`); and printability
(:func:`printable`), checked where a value enters a report line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat

from .coeffs import LPoly
from .fock import FockVector, format_monomial, make_monomial
from .toplevel import FAMILIES, Matrix, _entries, identity
from . import zhu


MAX_NESTING = 100
# Python's default limit on the digits of an int converted to text.
_MAX_DIGITS = 4300
_PRINT_LIMIT = 10 ** _MAX_DIGITS
# The most pairs of terms one polynomial product may multiply out.
_MAX_PAIRS = 20000
_TOO_DEEP = f"expression nested more than {MAX_NESTING} levels deep"


class ScriptError(ValueError):
    """Parse or well-formedness failure, with a source location."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokens

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\],;+\-*/^~=])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ScriptError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "newline":
            tokens.append(Token("newline", tok, line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Num:
    value: Fraction


# Every named atom: name -> (argument shape, the families whose expected
# values it may appear in, or None for a state).  Each letter of a shape is
# one argument: i, j and the distinct pair a, b are generator indices, m
# and n positive mode depths; a bare "i" is glued to the name (w1), other
# characters are literal.
_ATOMS = {
    "one": ("", None), "I": ("", FAMILIES),
    "w": ("i", None), "J": ("i", None), "H": ("i", None),
    "l": ("i", ("Mlambda",)),
    "Eu": ("(a,b)", None), "Eubar": ("(a,b)", None), "Et": ("(a,b)", None),
    "Etbar": ("(a,b)", None), "Lam": ("(a,b)", None),
    "E": ("(i,j)", ("Hminus", "Tminus")),
    "S": ("(i,m;j,n)", None),
}


@lru_cache(maxsize=1024)
def _lookup(name, family):
    """(kind, glued index digits) of an atom name, or None: a state atom in
    a main expression (``family`` None), an expected-value atom in the
    expected value of a family."""
    m = re.fullmatch(r"([A-Za-z]+?)(\d*)", name)
    if m and m[1] in _ATOMS:
        shape, families = _ATOMS[m[1]]
        if ((families is None) == (family is None)
                and (shape == "i") == bool(m[2])):
            return m.groups()
    return None


# A raw monomial's generator name, h followed by its index.
_MONOMIAL = re.compile(r"h\d+")


@dataclass(frozen=True)
class Named:
    kind: str        # a key of _ATOMS
    args: tuple      # one integer per letter of the kind's shape


@dataclass(frozen=True)
class Mono:
    modes: tuple     # ((gen, int index), ...)


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str          # + | - | *
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exp: int


@dataclass(frozen=True)
class Scale:
    value: Fraction
    arg: object


@dataclass(frozen=True)
class Circ:
    left: object
    right: object
    n: int


@dataclass(frozen=True)
class Statement:
    kind: str        # equiv | eval | rank | zero_eval
    payload: tuple
    line: int
    col: int


# The fields that hold subexpressions, in reading order.
_CHILDREN = ("arg", "left", "right", "base")


def _depth(expr):
    """Nodes on the longest path of an expression tree, found iteratively."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack += [(getattr(node, name), depth + 1) for name in _CHILDREN
                  if hasattr(node, name)]
    return deepest


class _Parser:
    def __init__(self, text, rank):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.rank = rank
        self.level = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise ScriptError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                              tok.line, tok.col)
        return tok

    def fail(self, message):
        tok = self.peek()
        raise ScriptError(message, tok.line, tok.col)

    def enter(self):
        """Open one nesting level; the caller closes it."""
        self.level += 1
        if self.level > MAX_NESTING:
            self.fail(_TOO_DEEP)

    # -- statements ----------------------------------------------------------

    def parse_script(self):
        stmts = []
        while True:
            while self.peek().kind == "newline":
                self.next()
            tok = self.peek()
            if tok.kind == "eof":
                return stmts
            stmts.append(self.parse_statement())
            tok = self.peek()
            if tok.kind not in ("newline", "eof"):
                self.fail(f"unexpected {tok.text!r} after statement")

    def parse_statement(self):
        tok = self.next()
        if tok.text == "assert_equiv":
            left = self.parse_expr()
            self.expect("~")
            right = self.parse_expr()
            return Statement("equiv", (left, right), tok.line, tok.col)
        if tok.text == "assert_eval":
            expr = self.parse_expr()
            self.expect("on")
            fam = self.next()
            if fam.text not in FAMILIES:
                raise ScriptError(f"unknown family {fam.text!r}", fam.line, fam.col)
            self.expect("=")
            expected = self.parse_expr(family=fam.text)
            return Statement("eval", (expr, fam.text, expected), tok.line, tok.col)
        if tok.text == "assert_rank":
            self.expect("[")
            exprs = [self.parse_expr()]
            while self.peek().text == ",":
                self.next()
                exprs.append(self.parse_expr())
            self.expect("]")
            self.expect("=")
            value = self.integer("an integer rank")
            return Statement("rank", (tuple(exprs), value), tok.line, tok.col)
        if tok.text == "assert_zero_eval":
            return Statement("zero_eval", (self.parse_expr(),), tok.line, tok.col)
        raise ScriptError(f"unknown statement {tok.text!r}", tok.line, tok.col)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, family=None):
        """A main expression, or with ``family`` an expected value of it."""
        start = self.peek()
        self.enter()
        left = self.parse_term(family)
        while self.peek().text in ("+", "-") and self.peek().kind == "punct":
            op = self.next().text
            right = self.parse_term(family)
            left = Bin(op, left, right)
        self.level -= 1
        # The outermost expression checks its whole tree.
        if not self.level and _depth(left) > MAX_NESTING:
            raise ScriptError(_TOO_DEEP, start.line, start.col)
        return left

    def parse_term(self, family):
        left = self.parse_factor(family)
        while self.peek().text == "*":
            self.next()
            right = self.parse_factor(family)
            left = Bin("*", left, right)
        return left

    def parse_factor(self, family):
        tok = self.peek()
        if tok.text == "-":
            self.next()
            self.enter()
            arg = self.parse_factor(family)
            self.level -= 1
            return Neg(arg)
        if tok.kind == "int":
            value = self.rational("a number")
            if self.atom_start(family):
                return Scale(value, self.parse_power(family))
            return Num(value)
        return self.parse_power(family)

    def parse_power(self, family):
        base = self.parse_atom(family)
        if self.peek().text == "^":
            self.next()
            return Pow(base, self.integer("an integer exponent"))
        return base

    def atom_start(self, family):
        """What the next token starts: a "group", a "circle", a "monomial", a
        "named" atom or None.  Circles and monomials occur only in main
        expressions."""
        tok = self.peek()
        if tok.text == "(":
            return "group"
        if tok.kind != "name":
            return None
        if _lookup(tok.text, family):
            return "named"
        if family:
            return None
        if tok.text in ("circ", "circn"):
            return "circle"
        if _MONOMIAL.fullmatch(tok.text):
            return "monomial"
        return None

    def parse_atom(self, family):
        tok = self.peek()
        start = self.atom_start(family)
        if tok.kind != "name" and start is None:
            self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")
        self.next()
        if start == "group":
            inner = self.parse_expr(family)
            self.expect(")")
            return inner
        if start == "circle":
            return self.parse_circle(tok.text)
        if start == "monomial":
            return self.parse_monomial(tok)
        return self.parse_named(tok, family)

    # -- literals ------------------------------------------------------------

    def integer(self, what, tok=None, least=0):
        """The value of an integer literal: the next token, or ``tok``.

        ``what`` names the literal in the errors, raised at the token when it
        is not an integer, has more than ``_MAX_DIGITS`` digits or is below
        ``least``.
        """
        tok = tok or self.next()
        if tok.kind != "int":
            raise ScriptError(f"expected {what}", tok.line, tok.col)
        if len(tok.text) > _MAX_DIGITS:
            raise ScriptError(f"expected {what} of at most {_MAX_DIGITS} digits",
                              tok.line, tok.col)
        value = int(tok.text)
        if value < least:
            raise ScriptError(f"expected {what}", tok.line, tok.col)
        return value

    def rational(self, what):
        """An integer literal over an optional ``/`` and nonzero denominator."""
        num, den = self.integer(what), 1
        if self.peek().text == "/":
            self.next()
            tok = self.next()
            den = self.integer("a denominator", tok)
            if not den:
                raise ScriptError("zero denominator", tok.line, tok.col)
        return Fraction(num, den)

    def index(self, tok=None):
        """A generator index in 1..rank: the next token, or ``tok``."""
        tok = tok or self.next()
        idx = self.integer("a generator index", tok)
        if not 1 <= idx <= self.rank:
            raise ScriptError(f"generator index {idx} out of range 1..{self.rank}",
                              tok.line, tok.col)
        return idx

    # -- atoms ---------------------------------------------------------------

    def parse_named(self, tok, family):
        found = _lookup(tok.text, family)
        if found is None:
            where = " in an expected value" if family else ""
            raise ScriptError(f"unknown name {tok.text!r}{where}", tok.line, tok.col)
        kind, digits = found
        shape, families = _ATOMS[kind]
        if families and family not in families:
            what = ("matrix units only make" if kind == "E"
                    else f"{tok.text} only makes")
            raise ScriptError(f"{what} sense on {'/'.join(families)}",
                              tok.line, tok.col)
        if shape == "i":
            return Named(kind, (self.index(Token("int", digits, tok.line, tok.col)),))
        args = []
        for ch in shape:
            if ch in "abij":
                args.append(self.index())
            elif ch in "mn":
                args.append(self.integer("a positive mode depth", least=1))
            else:
                self.expect(ch)
        if "a" in shape and args[0] == args[1]:
            raise ScriptError(f"{kind} needs two distinct indices", tok.line, tok.col)
        return Named(kind, tuple(args))

    def parse_circle(self, name):
        self.expect("(")
        left = self.parse_expr()
        self.expect(",")
        right = self.parse_expr()
        n = 0
        if name == "circn":
            self.expect(",")
            n = self.integer("an integer circle index")
        self.expect(")")
        return Circ(left, right, n)

    def parse_monomial(self, tok):
        modes = []
        while True:
            gen = self.index(Token("int", tok.text[1:], tok.line, tok.col))
            self.expect("(")
            self.expect("-")
            modes.append((gen, -self.integer("a positive mode depth", least=1)))
            self.expect(")")
            if self.atom_start(False) != "monomial" or self.peek(1).text != "(":
                return Mono(tuple(modes))
            tok = self.next()


def parse_script(text, rank):
    """Parse a script into statements, with generator indices in 1..rank."""
    return _Parser(text, rank).parse_script()


def parse_expr(text, rank):
    """Parse a single main expression at the given rank."""
    p = _Parser(text, rank)
    expr = p.parse_expr()
    if p.peek().kind not in ("newline", "eof"):
        p.fail(f"unexpected {p.peek().text!r} after expression")
    return expr


# ---------------------------------------------------------------------------
# Relabeling

def relabel(stmt, names=None):
    """The kind and payload of a statement, without its source position,
    with every generator index renamed 1, 2, ... in order of first
    appearance.

    One renaming covers the whole statement, expected value included, so
    two statements get equal keys exactly when a permutation of the
    generators maps one onto the other.  Mode depths, circle indices,
    exponents and literals keep their values.  ``names``, when given, is a
    dict that receives the renaming, from old index to new.
    """
    names = {} if names is None else names

    def rename(i):
        return names.setdefault(i, len(names) + 1)

    def walk(node):
        if isinstance(node, tuple):         # a payload, or a rank's list
            return tuple(map(walk, node))
        if isinstance(node, Named):
            letters = [ch for ch in _ATOMS[node.kind][0] if ch.isalpha()]
            return Named(node.kind, tuple(rename(x) if ch in "abij" else x
                                          for ch, x in zip(letters, node.args)))
        if isinstance(node, Mono):
            return Mono(tuple((rename(gen), k) for gen, k in node.modes))
        if isinstance(node, (str, int, Num)):
            return node
        return replace(node, **{name: walk(getattr(node, name))
                                for name in _CHILDREN if hasattr(node, name)})

    return stmt.kind, walk(stmt.payload)


# ---------------------------------------------------------------------------
# Realization

_BUILDERS = {"one": FockVector.vacuum, "w": zhu.omega, "J": zhu.jgen,
             "H": zhu.hgen, "S": zhu.s_pair, "Eu": zhu.e_u, "Eubar": zhu.e_u_bar,
             "Et": zhu.e_t, "Etbar": zhu.e_t_bar, "Lam": zhu.lam}


def _fold(expr, unit, product, leaf):
    """Evaluate the arithmetic nodes of an expression: ``product(x, y, k)``
    is x * y * ... * y with k factors y, and ``leaf(node, fold)`` realizes
    every other node."""
    def fold(e):
        if isinstance(e, Num):
            return e.value * unit
        if isinstance(e, Neg):
            return -fold(e.arg)
        if isinstance(e, Scale):
            return e.value * fold(e.arg)
        if isinstance(e, Pow):
            return product(unit, fold(e.base), e.exp)
        if isinstance(e, Bin):
            left, right = fold(e.left), fold(e.right)
            if e.op == "+":
                return left + right
            if e.op == "-":
                return left - right
            return product(left, right, 1)
        return leaf(e, fold)
    return fold(expr)


def _guard(what, top):
    if top > zhu.MAX_WEIGHT_CAP:
        shown = (top if top < _PRINT_LIMIT
                 else f"beyond {_MAX_DIGITS} digits")
        raise ResourceWarning(f"{what} of top weight {shown} exceeds the "
                              f"weight cap {zhu.MAX_WEIGHT_CAP}")


def printable(act):
    """``act``, after checking that every entry of it, a Fraction in lowest
    terms, prints in ``_MAX_DIGITS`` digits; ResourceWarning otherwise."""
    for _, v in _entries(act):
        if max(abs(v.numerator), v.denominator) >= _PRINT_LIMIT:
            raise ResourceWarning(f"value exceeds {_MAX_DIGITS} digits")
    return act


def _degree(v):
    """The degree of a polynomial, and 0 for any other value."""
    return max(map(sum, v.terms), default=0) if isinstance(v, LPoly) else 0


def _times(a, b):
    """a * b, :func:`printable`.  A product of two polynomials with more
    than ``_MAX_PAIRS`` pairs of terms raises ResourceWarning first."""
    if isinstance(a, LPoly) and isinstance(b, LPoly):
        pairs = len(a.terms) * len(b.terms)
        if pairs > _MAX_PAIRS:
            raise ResourceWarning(f"polynomial product of {pairs} term pairs "
                                  f"exceeds {_MAX_PAIRS}")
    return printable(a * b)


def _power(x, y, k):
    """x * y^k, for scalars and top-level actions, by repeated squaring.

    Every partial product goes through :func:`_times`, and squaring stops
    once y * y == y, so 0, +-1, the identity and other idempotents finish
    at once, whatever k is.  A polynomial result whose degree
    deg x + k deg y exceeds ``zhu.MAX_WEIGHT_CAP`` is refused first, as a
    product of that top weight is in ``realize``: the Mlambda reading of a
    state of weight W has degree at most W.
    """
    _guard("polynomial product", _degree(x) + k * _degree(y))
    while True:
        if k & 1:
            x = _times(x, y)
        k >>= 1
        if not k:
            return x
        square = _times(y, y)
        if square == y:
            return _times(x, y)
        y = square


def realize(expr, rank):
    """Turn a main-expression AST into an even state.

    A product, a whole power or a circle whose top weight exceeds
    ``zhu.MAX_WEIGHT_CAP`` raises ResourceWarning before it is computed
    (the top part of star(u, v) is the product of those of u and v), and
    so does an atom heavier than the cap, before anything reads it.  A
    weight-0 factor c|0> acts as the scalar c, because star(u, |0>) = u, so
    its power is c^k from :func:`_power`, under the digit bound on each
    partial power.  Sums and products of scalars are not bounded here: a
    value is checked by :func:`printable` only where a report prints it.
    """
    def star(u, v, k):
        _guard("product", u.max_weight() + k * v.max_weight())
        if not v.max_weight():
            return _power(Fraction(1), v.coeff(()), k) * u
        return reduce(zhu.star, repeat(v, k), u)

    def leaf(e, fold):
        if isinstance(e, Circ):
            u, v = fold(e.left), fold(e.right)
            _guard("circle", u.max_weight() + v.max_weight() + e.n + 1)
            return zhu.circ_n(u, v, e.n)
        if isinstance(e, Named) and e.kind in _BUILDERS:
            atom = _BUILDERS[e.kind](rank, *e.args)
        elif isinstance(e, Mono):
            atom = FockVector.from_monomial(rank, make_monomial(rank, e.modes))
        else:
            raise TypeError(f"not a state expression: {e!r}")
        _guard("atom", atom.max_weight())
        return atom

    return _fold(expr, FockVector.vacuum(rank), star, leaf)


def realize_expected(expr, fam, rank):
    """Turn an expected-value AST, parsed for ``fam``, into a top-level
    action of that family; the parser has checked each atom's family.

    Every power and product goes through :func:`_power`, so a polynomial
    product above the weight cap or of more than ``_MAX_PAIRS`` term pairs,
    or a partial power or product beyond ``_MAX_DIGITS`` digits, raises
    ResourceWarning; sums are checked by :func:`printable` only where a
    report prints them.
    """
    def leaf(e, fold):
        kind = e.kind if isinstance(e, Named) else None
        if kind == "I":
            return identity(fam, rank)
        if kind == "l":
            return LPoly.unit(rank, *e.args)
        if kind == "E":
            return Matrix.unit(rank, *e.args)
        raise TypeError(f"not an expected-value expression: {e!r}")

    return _fold(expr, identity(fam, rank), _power, leaf)


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through the parser)

def format_expr(expr):
    return _fmt(expr, 0)


def _fmt(expr, prec):
    """The text of expr as an operand that binds at ``prec``: 0 a term, 1 a
    factor, 2 a unary operand, 3 a tight scalar's operand, 4 a power's base.
    A node whose own level is below ``prec`` is parenthesized."""
    level = 4
    if isinstance(expr, Num):
        out, level = str(expr.value), 2
    elif isinstance(expr, Named):
        args = iter(expr.args)
        out = expr.kind + "".join(str(next(args)) if ch.isalpha() else ch
                                  for ch in _ATOMS[expr.kind][0])
    elif isinstance(expr, Mono):
        out = format_monomial(expr.modes)
    elif isinstance(expr, Neg):
        # A negated negation prints as --x, which parses back at its depth.
        out, level = "-" + _fmt(expr.arg, 1 if isinstance(expr.arg, Neg) else 2), 1
    elif isinstance(expr, Scale):
        out, level = f"{expr.value} {_fmt(expr.arg, 3)}", 2
    elif isinstance(expr, Pow):
        out, level = f"{_fmt(expr.base, 4)}^{expr.exp}", 3
    elif isinstance(expr, Circ):
        inner = f"{_fmt(expr.left, 0)}, {_fmt(expr.right, 0)}"
        out = f"circn({inner}, {expr.n})" if expr.n else f"circ({inner})"
    elif isinstance(expr, Bin):
        level = 1 if expr.op == "*" else 0
        out = f"{_fmt(expr.left, level)} {expr.op} {_fmt(expr.right, level + 1)}"
    else:
        raise TypeError(f"cannot format {expr!r}")
    return f"({out})" if prec > level else out


def format_statement(stmt):
    if stmt.kind == "equiv":
        left, right = stmt.payload
        return f"assert_equiv {format_expr(left)} ~ {format_expr(right)}"
    if stmt.kind == "eval":
        expr, fam, expected = stmt.payload
        return f"assert_eval {format_expr(expr)} on {fam} = {format_expr(expected)}"
    if stmt.kind == "rank":
        exprs, value = stmt.payload
        inner = ", ".join(format_expr(e) for e in exprs)
        return f"assert_rank [{inner}] = {value}"
    if stmt.kind == "zero_eval":
        return f"assert_zero_eval {format_expr(stmt.payload[0])}"
    raise ValueError(f"unknown statement kind {stmt.kind!r}")

"""A small assertion language for quotient-algebra checks.

Scripts are plain text, one statement per line, ``#`` comments::

    assert_equiv w1 * Eu(2,3) ~ 0
    assert_eval Lam(1,2) on Mlambda = l1*l2
    assert_rank [S(1,1;2,1), S(1,1;2,2)] = 2
    assert_zero_eval circ(w1, J1)

Expression atoms are the named generators (``one``, ``w1``, ``J2``, ``H1``,
``S(a,m;b,n)``, ``Eu(a,b)``, ``Eubar(a,b)``, ``Et(a,b)``, ``Etbar(a,b)``,
``Lam(a,b)``), raw monomials like ``h1(-3)h1(-1)``, and rational literals.
``*`` is the quotient product (left associative), ``^`` an integer product
power, ``circ(x,y)`` / ``circn(x,y,n)`` the circle elements, and a literal
juxtaposed before an atom is a tight scalar multiple.  Expected values on
the right of ``assert_eval`` use ``l1..l_ell``, matrix units ``E(a,b)``,
``I``, and rationals.

Expressions nest at most ``MAX_NESTING`` = 100 levels, checked at parse
time: parentheses, circle arguments and unary minus signs each open one,
as does each node on a path of the parsed tree (a sum of k terms is k
deep), so parsing, realizing and formatting stay below the recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import LPoly
from .fock import FockVector, make_monomial
from .toplevel import FAMILIES, Matrix, identity
from . import zhu


MAX_NESTING = 100
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


@dataclass(frozen=True)
class Named:
    kind: str        # one | w | J | H | S | Eu | Eubar | Et | Etbar | Lam
    args: tuple      # indices, or (a, m, b, n) for S


@dataclass(frozen=True)
class Mono:
    modes: tuple     # ((gen, Fraction index), ...)


@dataclass(frozen=True)
class LSym:
    index: int


@dataclass(frozen=True)
class MatUnit:
    a: int
    b: int


@dataclass(frozen=True)
class Ident:
    pass


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


def _depth(expr):
    """Nodes on the longest path of an expression tree, found iteratively."""
    deepest, stack = 0, [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack += [(getattr(node, name), depth + 1) for name in
                  ("arg", "left", "right", "base") if hasattr(node, name)]
    return deepest


_OFFDIAG = {"Eu", "Eubar", "Et", "Etbar", "Lam"}
_ATOM_START_NAMES = re.compile(r"^(one|[wJH]\d+|h\d+|S|Eu|Eubar|Et|Etbar|Lam|circ|circn)$")


class _Parser:
    def __init__(self, text, rank=None):
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
            expected = self.parse_expr(expected=True)
            return Statement("eval", (expr, fam.text, expected), tok.line, tok.col)
        if tok.text == "assert_rank":
            self.expect("[")
            exprs = [self.parse_expr()]
            while self.peek().text == ",":
                self.next()
                exprs.append(self.parse_expr())
            self.expect("]")
            self.expect("=")
            val = self.next()
            if val.kind != "int":
                raise ScriptError("expected an integer rank", val.line, val.col)
            return Statement("rank", (tuple(exprs), int(val.text)), tok.line, tok.col)
        if tok.text == "assert_zero_eval":
            return Statement("zero_eval", (self.parse_expr(),), tok.line, tok.col)
        raise ScriptError(f"unknown statement {tok.text!r}", tok.line, tok.col)

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, expected=False):
        start = self.peek()
        self.enter()
        left = self.parse_term(expected)
        while self.peek().text in ("+", "-") and self.peek().kind == "punct":
            op = self.next().text
            right = self.parse_term(expected)
            left = Bin(op, left, right)
        self.level -= 1
        # The outermost expression checks its whole tree.
        if not self.level and _depth(left) > MAX_NESTING:
            raise ScriptError(_TOO_DEEP, start.line, start.col)
        return left

    def parse_term(self, expected):
        left = self.parse_factor(expected)
        while self.peek().text == "*":
            self.next()
            right = self.parse_factor(expected)
            left = Bin("*", left, right)
        return left

    def parse_factor(self, expected):
        tok = self.peek()
        if tok.text == "-":
            self.next()
            self.enter()
            arg = self.parse_factor(expected)
            self.level -= 1
            return Neg(arg)
        if tok.kind == "int":
            value = self.parse_number()
            if self.at_atom_start(expected):
                return Scale(value, self.parse_power(expected))
            return Num(value)
        return self.parse_power(expected)

    def parse_number(self):
        tok = self.next()
        value = Fraction(int(tok.text))
        if self.peek().text == "/" and self.peek(1).kind == "int":
            self.next()
            value /= self.parse_denominator()
        return value

    def parse_denominator(self):
        tok = self.next()
        if tok.kind != "int":
            raise ScriptError("expected a denominator", tok.line, tok.col)
        if int(tok.text) == 0:
            raise ScriptError("zero denominator", tok.line, tok.col)
        return int(tok.text)

    def at_atom_start(self, expected):
        tok = self.peek()
        if tok.text == "(":
            return True
        if tok.kind != "name":
            return False
        if expected:
            return re.fullmatch(r"l\d+|E|I", tok.text) is not None
        return _ATOM_START_NAMES.match(tok.text) is not None

    def parse_power(self, expected):
        base = self.parse_atom(expected)
        if self.peek().text == "^":
            self.next()
            tok = self.next()
            if tok.kind != "int":
                raise ScriptError("expected an integer exponent", tok.line, tok.col)
            return Pow(base, int(tok.text))
        return base

    def parse_atom(self, expected):
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_expr(expected)
            self.expect(")")
            return inner
        if tok.kind == "int":
            return Num(self.parse_number())
        if tok.kind != "name":
            self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")
        if expected:
            return self.parse_expected_atom()
        return self.parse_main_atom()

    # -- main-expression atoms ---------------------------------------------

    def parse_main_atom(self):
        tok = self.next()
        name = tok.text
        if name == "one":
            return Named("one", ())
        if name in ("circ", "circn"):
            self.expect("(")
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            n = 0
            if name == "circn":
                self.expect(",")
                ntok = self.next()
                if ntok.kind != "int":
                    raise ScriptError("expected an integer circle index",
                                      ntok.line, ntok.col)
                n = int(ntok.text)
            self.expect(")")
            return Circ(left, right, n)
        m = re.fullmatch(r"([wJH])(\d+)", name)
        if m:
            idx = int(m.group(2))
            self.check_index(idx, tok)
            return Named(m.group(1), (idx,))
        if name == "S":
            self.expect("(")
            a = self.parse_index()
            self.expect(",")
            mm = self.parse_positive()
            self.expect(";")
            b = self.parse_index()
            self.expect(",")
            nn = self.parse_positive()
            self.expect(")")
            return Named("S", (a, mm, b, nn))
        if name in _OFFDIAG:
            self.expect("(")
            a = self.parse_index()
            self.expect(",")
            b = self.parse_index()
            self.expect(")")
            if a == b:
                raise ScriptError(f"{name} needs two distinct indices",
                                  tok.line, tok.col)
            return Named(name, (a, b))
        if re.fullmatch(r"h\d+", name):
            return self.parse_monomial(tok)
        raise ScriptError(f"unknown name {name!r}", tok.line, tok.col)

    def parse_monomial(self, first):
        modes = []
        tok = first
        while True:
            gen = int(tok.text[1:])
            self.check_index(gen, tok)
            self.expect("(")
            self.expect("-")
            num = self.next()
            if num.kind != "int":
                raise ScriptError("expected a mode index", num.line, num.col)
            idx = Fraction(int(num.text))
            if self.peek().text == "/":
                self.next()
                idx /= self.parse_denominator()
            self.expect(")")
            modes.append((gen, -idx))
            nxt = self.peek()
            if nxt.kind == "name" and re.fullmatch(r"h\d+", nxt.text) \
                    and self.peek(1).text == "(":
                tok = self.next()
                continue
            return Mono(tuple(modes))

    def parse_index(self):
        tok = self.next()
        if tok.kind != "int":
            raise ScriptError("expected a generator index", tok.line, tok.col)
        idx = int(tok.text)
        self.check_index(idx, tok)
        return idx

    def parse_positive(self):
        tok = self.next()
        if tok.kind != "int" or int(tok.text) < 1:
            raise ScriptError("expected a positive mode depth", tok.line, tok.col)
        return int(tok.text)

    def check_index(self, idx, tok):
        if idx < 1 or (self.rank is not None and idx > self.rank):
            bound = self.rank if self.rank is not None else "ell"
            raise ScriptError(f"generator index {idx} out of range 1..{bound}",
                              tok.line, tok.col)

    # -- expected-value atoms -------------------------------------------------

    def parse_expected_atom(self):
        tok = self.next()
        name = tok.text
        if name == "I":
            return Ident()
        m = re.fullmatch(r"l(\d+)", name)
        if m:
            idx = int(m.group(1))
            self.check_index(idx, tok)
            return LSym(idx)
        if name == "E":
            self.expect("(")
            a = self.parse_index()
            self.expect(",")
            b = self.parse_index()
            self.expect(")")
            return MatUnit(a, b)
        raise ScriptError(f"unknown name {name!r} in an expected value",
                          tok.line, tok.col)


def parse_script(text, rank=None):
    """Parse a script into statements; checks indices when rank is given."""
    return _Parser(text, rank).parse_script()


def parse_expr(text, rank=None):
    """Parse a single main expression."""
    p = _Parser(text, rank)
    expr = p.parse_expr()
    if p.peek().kind not in ("newline", "eof"):
        p.fail(f"unexpected {p.peek().text!r} after expression")
    return expr


# ---------------------------------------------------------------------------
# Realization

def realize(expr, rank):
    """Turn a main-expression AST into an even untwisted state."""
    if isinstance(expr, Num):
        return FockVector.vacuum(rank, coeff=expr.value)
    if isinstance(expr, Named):
        return _realize_named(expr, rank)
    if isinstance(expr, Mono):
        mono = make_monomial(rank, False, expr.modes)
        return FockVector.from_monomial(rank, False, mono)
    if isinstance(expr, Neg):
        return -realize(expr.arg, rank)
    if isinstance(expr, Scale):
        return expr.value * realize(expr.arg, rank)
    if isinstance(expr, Pow):
        return zhu.star_power(realize(expr.base, rank), expr.exp)
    if isinstance(expr, Circ):
        return zhu.circ_n(realize(expr.left, rank), realize(expr.right, rank), expr.n)
    if isinstance(expr, Bin):
        left = realize(expr.left, rank)
        right = realize(expr.right, rank)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return zhu.star(left, right)
    raise TypeError(f"not a state expression: {expr!r}")


def _realize_named(expr, rank):
    kind, args = expr.kind, expr.args
    if kind == "one":
        return FockVector.vacuum(rank)
    if kind == "w":
        return zhu.omega(rank, *args)
    if kind == "J":
        return zhu.jgen(rank, *args)
    if kind == "H":
        return zhu.hgen(rank, *args)
    if kind == "S":
        a, m, b, n = args
        return zhu.s_pair(rank, a, m, b, n)
    builder = {"Eu": zhu.e_u, "Eubar": zhu.e_u_bar,
               "Et": zhu.e_t, "Etbar": zhu.e_t_bar, "Lam": zhu.lam}[kind]
    return builder(rank, *args)


def realize_expected(expr, fam, rank):
    """Turn an expected-value AST into a top-level action for a family."""
    if isinstance(expr, Num):
        return expr.value * identity(fam, rank)
    if isinstance(expr, Ident):
        return identity(fam, rank)
    if isinstance(expr, LSym):
        if fam != "Mlambda":
            raise ValueError(f"l{expr.index} only makes sense on Mlambda")
        return LPoly.unit(rank, expr.index)
    if isinstance(expr, MatUnit):
        if fam not in ("Hminus", "Tminus"):
            raise ValueError("matrix units only make sense on Hminus/Tminus")
        return Matrix.unit(rank, expr.a, expr.b)
    if isinstance(expr, Neg):
        return -realize_expected(expr.arg, fam, rank)
    if isinstance(expr, Scale):
        return expr.value * realize_expected(expr.arg, fam, rank)
    if isinstance(expr, Pow):
        out = identity(fam, rank)
        base = realize_expected(expr.base, fam, rank)
        for _ in range(expr.exp):
            out = out * base
        return out
    if isinstance(expr, Bin):
        left = realize_expected(expr.left, fam, rank)
        right = realize_expected(expr.right, fam, rank)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise TypeError(f"not an expected-value expression: {expr!r}")


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through the parser)

def _fmt_num(q):
    return str(q)


def format_expr(expr):
    return _fmt(expr, 0)


def _fmt(expr, prec):
    # precedence levels: 0 sum, 1 product, 2 tight (scale/power/atom)
    if isinstance(expr, Num):
        return _fmt_num(expr.value)
    if isinstance(expr, Named):
        kind, args = expr.kind, expr.args
        if kind == "one":
            return "one"
        if kind in ("w", "J", "H"):
            return f"{kind}{args[0]}"
        if kind == "S":
            a, m, b, n = args
            return f"S({a},{m};{b},{n})"
        return f"{kind}({args[0]},{args[1]})"
    if isinstance(expr, Mono):
        return "".join(f"h{g}({idx})" for g, idx in expr.modes)
    if isinstance(expr, LSym):
        return f"l{expr.index}"
    if isinstance(expr, MatUnit):
        return f"E({expr.a},{expr.b})"
    if isinstance(expr, Ident):
        return "I"
    if isinstance(expr, Neg):
        # A negated negation prints as --x, which parses back at its depth.
        inner = _fmt(expr.arg, 1 if isinstance(expr.arg, Neg) else 2)
        out = f"-{inner}"
        return f"({out})" if prec >= 2 else out
    if isinstance(expr, Scale):
        out = f"{_fmt_num(expr.value)} {_fmt(expr.arg, 2)}"
        return out
    if isinstance(expr, Pow):
        return f"{_fmt(expr.base, 2)}^{expr.exp}"
    if isinstance(expr, Circ):
        if expr.n:
            return f"circn({_fmt(expr.left, 0)}, {_fmt(expr.right, 0)}, {expr.n})"
        return f"circ({_fmt(expr.left, 0)}, {_fmt(expr.right, 0)})"
    if isinstance(expr, Bin):
        lvl = 1 if expr.op == "*" else 0
        left = _fmt(expr.left, lvl)
        right = _fmt(expr.right, lvl + 1)
        out = f"{left} {expr.op} {right}"
        return f"({out})" if prec > lvl else out
    raise TypeError(f"cannot format {expr!r}")


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

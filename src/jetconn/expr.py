"""Symbolic expressions over a fixed set of coordinate variables.

The expression language is deliberately small: rational and floating point
constants, named variables, the four arithmetic operations, unary minus,
integer powers written ``e^n``, and the functions ``sin``, ``cos``, ``exp``
and ``ln``.  Trees are immutable; structural equality and hashing make them
usable as dictionary keys.  Each node also has a private slot in which
:func:`simplify` caches its work; the slot is not part of the value, and
equality, hashing and ``repr`` ignore it.

Concrete syntax (``*`` and ``/`` bind tighter than ``+`` and ``-``, ``^``
tighter still, unary minus applies to a whole term):

    expr   := ["-"] term {("+" | "-") term}
    term   := factor {("*" | "/") factor}
    factor := base ["^" integer]
    base   := number | identifier | "(" expr ")" | function "(" expr ")"

Integer and decimal literals are kept as exact :class:`fractions.Fraction`
values; only literals in scientific notation or results of float arithmetic
carry IEEE semantics.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import Mapping

from .errors import (
    DimensionMismatchError,
    FunctionArityError,
    ParseError,
    UnknownIdentifierError,
)

FUNCTIONS = ("sin", "cos", "exp", "ln")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CANON_BASE_RE = re.compile(r"x([0-9]+)\Z")
_CANON_FIBER_RE = re.compile(r"y([0-9]+)\Z")


@dataclass(frozen=True)
class SymbolUniverse:
    """Declares which variable names an expression may reference.

    A universe with base dimension m and fiber dimension n provides the
    canonical names ``x1..xm`` and ``y1..yn`` plus any extra symbols (curve
    parameters, frame coordinates).  Extra names are kept sorted so the
    variable order of a universe is reproducible.
    """

    base_dim: int
    fiber_dim: int
    extra_symbols: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.base_dim < 0 or self.fiber_dim < 0:
            raise ValueError("universe dimensions must be non-negative")
        extras = frozenset(self.extra_symbols)
        object.__setattr__(self, "extra_symbols", extras)
        for name in extras:
            if not _IDENT_RE.fullmatch(name):
                raise ValueError(f"invalid extra symbol name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"extra symbol {name!r} collides with a function name")
            if self._canonical_index(name) is not None:
                raise ValueError(f"extra symbol {name!r} collides with a coordinate name")

    def _canonical_index(self, name: str):
        m = _CANON_BASE_RE.fullmatch(name)
        if m:
            i = int(m.group(1))
            if str(i) == m.group(1) and 1 <= i <= self.base_dim:
                return ("x", i)
        m = _CANON_FIBER_RE.fullmatch(name)
        if m:
            p = int(m.group(1))
            if str(p) == m.group(1) and 1 <= p <= self.fiber_dim:
                return ("y", p)
        return None

    @property
    def base_names(self) -> tuple:
        return tuple(f"x{i}" for i in range(1, self.base_dim + 1))

    @property
    def fiber_names(self) -> tuple:
        return tuple(f"y{p}" for p in range(1, self.fiber_dim + 1))

    @property
    def variable_names(self) -> tuple:
        """All names in canonical order: base, fiber, then sorted extras."""
        return self.base_names + self.fiber_names + tuple(sorted(self.extra_symbols))

    def __contains__(self, name: str) -> bool:
        return self._canonical_index(name) is not None or name in self.extra_symbols

    def x(self, i: int) -> "Var":
        if not 1 <= i <= self.base_dim:
            raise ValueError(f"base index {i} out of range 1..{self.base_dim}")
        return Var(f"x{i}")

    def y(self, p: int) -> "Var":
        if not 1 <= p <= self.fiber_dim:
            raise ValueError(f"fiber index {p} out of range 1..{self.fiber_dim}")
        return Var(f"y{p}")

    def var(self, name: str) -> "Var":
        if name not in self:
            raise ValueError(f"{name!r} is not a variable of this universe")
        return Var(name)


def as_expr(value) -> "Expr":
    """Coerce a number into a constant node; expressions pass through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not expression constants")
    if isinstance(value, int):
        return Const(Fraction(value))
    if isinstance(value, Fraction):
        return Const(value)
    if isinstance(value, float):
        return Const(value)
    raise TypeError(f"cannot treat {type(value).__name__} as an expression")


class Expr:
    """Base class for expression nodes.  Instances are immutable.

    Each node class sets its fields, ``_hash`` and an empty ``_simple`` (the
    cache of :func:`simplify`) in ``__init__``, lists its fields in
    ``_key()`` and its subtrees in ``children()``.  The hash is built from
    the children's stored hashes, so hashing never walks the tree.
    """

    __slots__ = ("_hash", "_simple")

    def __setattr__(self, name, value):
        raise AttributeError("expression nodes are immutable")

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return (
            type(other) is type(self)
            and self._hash == other._hash
            and self._key() == other._key()
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __pow__(self, exponent):
        return Pow(self, exponent)

    def __neg__(self):
        return Neg(self)

    def __str__(self):
        return to_text(self)

    def children(self) -> tuple:
        return ()

    def free_vars(self) -> frozenset:
        """Set of variable names referenced anywhere in the tree."""
        out = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                out.add(node.name)
            else:
                stack.extend(node.children())
        return frozenset(out)


_set = object.__setattr__
# The slot's own setter; it skips the attribute lookup of object.__setattr__.
_set_simple = Expr._simple.__set__


class Const(Expr):
    """Numeric literal.  ``value`` is a Fraction (exact) or a float (IEEE)."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            raise TypeError(f"bad constant {value!r}")
        if isinstance(value, int):
            value = Fraction(value)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("constants must be finite")
        _set(self, "value", value)
        # Fraction(2) == 2.0 holds and their hashes agree, so mixed exact and
        # float constants of equal value are equal nodes as well.
        _set(self, "_hash", hash((Const, value)))
        _set_simple(self, None)

    def _key(self):
        return (self.value,)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        _set(self, "name", name)
        _set(self, "_hash", hash((Var, name)))
        _set_simple(self, None)

    def _key(self):
        return (self.name,)


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        if not isinstance(arg, Expr):
            raise TypeError("operand must be an expression")
        _set(self, "arg", arg)
        _set(self, "_hash", hash((type(self), arg._hash)))
        _set_simple(self, None)

    def _key(self):
        return (self.arg,)

    def children(self):
        return (self.arg,)


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        if not isinstance(left, Expr) or not isinstance(right, Expr):
            raise TypeError("operands must be expressions")
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((type(self), left._hash, right._hash)))
        _set_simple(self, None)

    def _key(self):
        return (self.left, self.right)

    def children(self):
        return (self.left, self.right)


class Neg(_Unary):
    __slots__ = ()


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    """Integer power ``base^n``.  The exponent is a plain signed int."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        if not isinstance(base, Expr):
            raise TypeError("power base must be an expression")
        if isinstance(exponent, bool) or not isinstance(exponent, int):
            raise TypeError("power exponent must be an int")
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "_hash", hash((Pow, base._hash, exponent)))
        _set_simple(self, None)

    def _key(self):
        return (self.base, self.exponent)

    def children(self):
        return (self.base,)


class Fn(_Unary):
    """Application of one of the built-in functions sin, cos, exp, ln."""

    __slots__ = ("name",)

    def __init__(self, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")
        if not isinstance(arg, Expr):
            raise TypeError("operand must be an expression")
        _set(self, "name", name)
        _set(self, "arg", arg)
        _set(self, "_hash", hash((Fn, name, arg._hash)))
        _set_simple(self, None)

    def _key(self):
        return (self.name, self.arg)


def sin(e) -> Fn:
    return Fn("sin", as_expr(e))


def cos(e) -> Fn:
    return Fn("cos", as_expr(e))


def exp(e) -> Fn:
    return Fn("exp", as_expr(e))


def ln(e) -> Fn:
    return Fn("ln", as_expr(e))


def expr_sum(terms) -> Expr:
    """The left fold ``(t1 + t2) + t3 ...`` of ``terms``; ``Const(0)`` when empty."""
    total = None
    for term in terms:
        total = term if total is None else total + term
    return Const(0) if total is None else total


def build_grid(shape, entry):
    """Nested tuples of ``shape`` holding ``entry(*index)``, first axis outermost.

    Entries are built in row-major order, the order of the nested
    comprehensions this stands for; ``shape == ()`` gives ``entry()``.
    """
    if not shape:
        return entry()
    return tuple(build_grid(shape[1:], partial(entry, k)) for k in range(shape[0]))


def contract(tensor, vector, depth: int = 0):
    """The last axis of ``tensor`` summed against ``vector``.

    ``depth`` counts the axes of ``tensor`` before the summed one, and the
    result is a grid of that many axes.  Each entry is
    ``simplify(t1*v1 + t2*v2 + ...)``, and ``Const(0)`` when the summed axis
    is empty.
    """
    if depth:
        return tuple(contract(row, vector, depth - 1) for row in tensor)
    return simplify(expr_sum(t * v for t, v in zip(tensor, vector)))


def expr_grid(value, shape, allowed, what: str):
    """``value`` as nested tuples of expressions of exactly ``shape``.

    The whole shape is checked before any entry is converted: a wrong length
    or nesting at any depth raises :class:`DimensionMismatchError`, and an
    entry that uses a name outside ``allowed`` raises ``ValueError``.  Both
    messages start with ``what``.  ``shape == ()`` checks one expression.
    """
    allowed = frozenset(allowed)
    size = "x".join(str(k) for k in shape)
    wanted = {0: "one expression", 1: f"a list of {size}"}.get(len(shape), f"a {size} grid")

    def nest(node, depth):
        if depth == len(shape):
            if not isinstance(node, (tuple, list)):
                return node
        elif hasattr(node, "__iter__"):
            node = tuple(node)
            if len(node) == shape[depth]:
                return tuple(nest(child, depth + 1) for child in node)
        raise DimensionMismatchError(f"{what} must be {wanted}")

    def entry(node, depth):
        if depth < len(shape):
            return tuple(entry(child, depth + 1) for child in node)
        e = as_expr(node)
        stray = sorted(e.free_vars() - allowed)
        if stray:
            raise ValueError(f"{what} references variables {stray} outside the universe")
        return e

    return entry(nest(value, 0), 0)


# --- parsing ---------------------------------------------------------------

_TOKEN_NUM = "num"
_TOKEN_IDENT = "ident"
_TOKEN_OP = "op"
_TOKEN_END = "end"

_NUM_RE = re.compile(r"[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos  # 1-based offset of the first character


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            m = _NUM_RE.match(text, i)
            tokens.append(_Token(_TOKEN_NUM, m.group(0), i + 1))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(text, i)
            tokens.append(_Token(_TOKEN_IDENT, m.group(0), i + 1))
            i = m.end()
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(_TOKEN_OP, ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append(_Token(_TOKEN_END, "", n + 1))
    return tokens


def _number_value(text: str) -> Fraction:
    # Decimal parses every literal the lexer accepts and keeps it exact.
    return Fraction(Decimal(text))


class _Parser:
    def __init__(self, text: str, universe: SymbolUniverse):
        self.text = text
        self.universe = universe
        self.tokens = _tokenize(text)
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_op(self, symbol: str):
        tok = self.current
        if tok.kind != _TOKEN_OP or tok.text != symbol:
            raise ParseError(f"expected {symbol!r}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.current
        if tok.kind != _TOKEN_END:
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expr:
        negate = False
        tok = self.current
        if tok.kind == _TOKEN_OP and tok.text == "-":
            self.advance()
            negate = True
        e = self.term()
        if negate:
            e = Neg(e)
        while True:
            tok = self.current
            if tok.kind == _TOKEN_OP and tok.text in "+-":
                self.advance()
                rhs = self.term()
                e = Add(e, rhs) if tok.text == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            tok = self.current
            if tok.kind == _TOKEN_OP and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                e = Mul(e, rhs) if tok.text == "*" else Div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        e = self.base()
        tok = self.current
        if tok.kind == _TOKEN_OP and tok.text == "^":
            self.advance()
            e = Pow(e, self.integer())
        return e

    def integer(self) -> int:
        sign = 1
        tok = self.current
        if tok.kind == _TOKEN_OP and tok.text == "-":
            self.advance()
            sign = -1
        tok = self.current
        if tok.kind != _TOKEN_NUM or "." in tok.text or "e" in tok.text or "E" in tok.text:
            raise ParseError("expected an integer exponent", tok.pos)
        self.advance()
        return sign * int(tok.text)

    def base(self) -> Expr:
        tok = self.current
        if tok.kind == _TOKEN_NUM:
            self.advance()
            value = _number_value(tok.text)
            if "e" in tok.text or "E" in tok.text:
                # Scientific notation means float semantics were intended.
                return Const(float(value))
            return Const(value)
        if tok.kind == _TOKEN_IDENT:
            self.advance()
            name = tok.text
            if name in FUNCTIONS:
                self.expect_op("(")
                after = self.current
                if after.kind == _TOKEN_OP and after.text == ")":
                    raise FunctionArityError(
                        f"{name}() takes exactly one argument", after.pos
                    )
                arg = self.expr()
                after = self.current
                if after.kind == _TOKEN_OP and after.text == ",":
                    raise FunctionArityError(
                        f"{name}() takes exactly one argument", after.pos
                    )
                self.expect_op(")")
                return Fn(name, arg)
            if name not in self.universe:
                raise UnknownIdentifierError(f"unknown identifier {name!r}", tok.pos)
            return Var(name)
        if tok.kind == _TOKEN_OP and tok.text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError("expected a number, variable or '('", tok.pos)


def parse_expr(text: str, universe: SymbolUniverse) -> Expr:
    """Parse expression text, validating every identifier against ``universe``.

    Raises :class:`ParseError` (with a 1-based position) on malformed input,
    :class:`UnknownIdentifierError` for identifiers outside the universe and
    :class:`FunctionArityError` for multi-argument function calls.
    """
    return _Parser(text, universe).parse()


# --- printing --------------------------------------------------------------

_LVL_SIGNED = 0
_LVL_SUM = 1
_LVL_TERM = 2
_LVL_POW = 3
_LVL_ATOM = 4


def _const_level(value) -> int:
    if value < 0:
        return _LVL_SIGNED
    if isinstance(value, Fraction) and value.denominator != 1:
        if _decimal_digits(value) is None:
            return _LVL_TERM  # prints as p/q, a division
    return _LVL_ATOM


def _decimal_digits(value: Fraction):
    """Number of fractional digits needed to print ``value`` exactly, or None."""
    q = value.denominator
    twos = 0
    while q % 2 == 0:
        q //= 2
        twos += 1
    fives = 0
    while q % 5 == 0:
        q //= 5
        fives += 1
    if q != 1:
        return None
    return max(twos, fives)


def _const_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value.denominator == 1:
        return str(value.numerator)
    digits = _decimal_digits(value)
    if digits is None:
        return f"{value.numerator}/{value.denominator}"
    sign = "-" if value < 0 else ""
    scaled = abs(value.numerator) * 10**digits // value.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def _level(e: Expr, head: bool) -> int:
    if isinstance(e, Const):
        lvl = _const_level(e.value)
    elif isinstance(e, Neg):
        lvl = _LVL_SIGNED
    elif isinstance(e, (Add, Sub)):
        lvl = _LVL_SUM
    elif isinstance(e, (Mul, Div)):
        lvl = _LVL_TERM
    elif isinstance(e, Pow):
        lvl = _LVL_POW
    else:
        lvl = _LVL_ATOM
    if head and lvl == _LVL_SIGNED:
        # A leading minus is legal at the start of an expression.
        lvl = _LVL_SUM
    return lvl


def _fmt(e: Expr, need: int, head: bool = False) -> str:
    if _level(e, head) < need:
        return "(" + _fmt(e, _LVL_SIGNED, True) + ")"
    if isinstance(e, Const):
        return _const_text(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _fmt(e.arg, _LVL_TERM)
    if isinstance(e, Add):
        return _fmt(e.left, _LVL_SUM, head) + " + " + _fmt(e.right, _LVL_TERM)
    if isinstance(e, Sub):
        return _fmt(e.left, _LVL_SUM, head) + " - " + _fmt(e.right, _LVL_TERM)
    if isinstance(e, Mul):
        return _fmt(e.left, _LVL_TERM) + "*" + _fmt(e.right, _LVL_POW)
    if isinstance(e, Div):
        return _fmt(e.left, _LVL_TERM) + "/" + _fmt(e.right, _LVL_POW)
    if isinstance(e, Pow):
        return _fmt(e.base, _LVL_ATOM) + "^" + str(e.exponent)
    if isinstance(e, Fn):
        return e.name + "(" + _fmt(e.arg, _LVL_SIGNED, True) + ")"
    raise TypeError(f"not an expression: {e!r}")


def to_text(e: Expr) -> str:
    """Render a tree to concrete syntax that parses back to the same shape.

    Parentheses are inserted exactly where precedence or associativity would
    otherwise change the tree.
    """
    return _fmt(e, _LVL_SIGNED, True)


# --- differentiation and substitution --------------------------------------

def diff(e: Expr, var: str, universe: SymbolUniverse = None) -> Expr:
    """Partial derivative with respect to ``var``, simplified.

    When a universe is supplied the variable name is checked against it
    first; otherwise any syntactically valid name is accepted.
    """
    if universe is not None and var not in universe:
        raise ValueError(f"{var!r} is not a variable of this universe")
    Var(var)  # validates the name
    return simplify(_diff(e, var))


def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return Const(0)
    if isinstance(e, Var):
        return Const(1) if e.name == var else Const(0)
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var))
    if isinstance(e, Add):
        return Add(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Sub):
        return Sub(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Mul):
        return Add(
            Mul(_diff(e.left, var), e.right),
            Mul(e.left, _diff(e.right, var)),
        )
    if isinstance(e, Div):
        num = Sub(
            Mul(_diff(e.left, var), e.right),
            Mul(e.left, _diff(e.right, var)),
        )
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0)
        inner = _diff(e.base, var)
        return Mul(Mul(Const(e.exponent), Pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Fn):
        inner = _diff(e.arg, var)
        if e.name == "sin":
            return Mul(Fn("cos", e.arg), inner)
        if e.name == "cos":
            return Mul(Neg(Fn("sin", e.arg)), inner)
        if e.name == "exp":
            return Mul(Fn("exp", e.arg), inner)
        return Div(inner, e.arg)  # ln
    raise TypeError(f"not an expression: {e!r}")


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (simultaneously, not iteratively)."""
    repl = {name: as_expr(value) for name, value in mapping.items()}
    return _subst(e, repl)


def _subst(e: Expr, repl) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return repl.get(e.name, e)
    if isinstance(e, Neg):
        return Neg(_subst(e.arg, repl))
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(_subst(e.left, repl), _subst(e.right, repl))
    if isinstance(e, Pow):
        return Pow(_subst(e.base, repl), e.exponent)
    if isinstance(e, Fn):
        return Fn(e.name, _subst(e.arg, repl))
    raise TypeError(f"not an expression: {e!r}")


# --- simplification --------------------------------------------------------
#
# The rewrite set is fixed and bounded: constant folding, the 0/1 identities,
# double negation, and merging of like terms in sums (with rational
# coefficients pulled out of products and divisions).  One bottom-up pass is
# idempotent because every rule produces output the other rules leave alone.
#
# The symbolic commands simplify the same subtrees again and again: _diff's
# product and quotient rules reuse a node's operands, product() multiplies
# every F entry into several H entries, and curvature, family and contract
# simplify grids that are simplified already.  So simplify caches in each
# node's ``_simple`` slot, which lives exactly as long as the node, under two
# admission rules that keep what it holds proportional to what is reused:
#
# - Every result is marked _SIMPLE, its own simplified form, so simplifying
#   it again costs one slot read.  A sentinel rather than a self-reference
#   avoids a reference cycle on every node; idempotency makes it exact.
# - An input node keeps its result only from its second visit on; the first
#   writes _SEEN.  So a comparison, which simplifies each entry once, holds
#   no copies, and an F entry that product() reuses is read from its slot
#   from its second use on.
#
# The Add/Sub operands of a sum read their slot but leave it as it was:
# otherwise every prefix of a long left-folded sum would keep its own
# simplified prefix, memory quadratic in the sum's length.  On the
# benchmark's ``algebra`` workload (seed 7), caching every visit without
# these rules raised the largest command's peak RSS from 19.3 to 23.1 MB,
# and dropping only the second-visit rule raised that of classify on a
# family from 19.2 to 20.6 MB; with every rule the largest reads 19.4 MB.

_SEEN = object()
_SIMPLE = object()


def simplify(e: Expr) -> Expr:
    try:
        memo = e._simple
    except AttributeError:
        raise TypeError(f"not an expression: {e!r}") from None
    if memo is not None and memo is not _SEEN:
        return e if memo is _SIMPLE else memo
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, (Add, Sub)):
        left, right = e.left, e.right
        marks = left._simple, right._simple
        out = _sum_of([(1, simplify(left)), (1 if isinstance(e, Add) else -1, simplify(right))])
        if isinstance(left, (Add, Sub)):
            _set_simple(left, marks[0])
        if isinstance(right, (Add, Sub)):
            _set_simple(right, marks[1])
    elif isinstance(e, Mul):
        out = _product_of([simplify(e.left), simplify(e.right)])
    elif isinstance(e, Neg):
        out = _neg(simplify(e.arg))
    elif isinstance(e, Div):
        out = _quotient(simplify(e.left), simplify(e.right))
    elif isinstance(e, Pow):
        out = _power(simplify(e.base), e.exponent)
    else:
        out = _function(e.name, simplify(e.arg))
    _set_simple(out, _SIMPLE)
    _set_simple(e, _SEEN if memo is None else out)
    return out


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _is_const(e: Expr, value) -> bool:
    return isinstance(e, Const) and e.value == value


def _function(name: str, a: Expr) -> Expr:
    if name == "sin" and _is_const(a, 0):
        return Const(0)
    if name == "cos" and _is_const(a, 0):
        return Const(1)
    if name == "exp" and _is_const(a, 0):
        return Const(1)
    if name == "ln" and _is_const(a, 1):
        return Const(0)
    return Fn(name, a)


def _power(base: Expr, n: int) -> Expr:
    if n == 0:
        return Const(1)
    if n == 1:
        return base
    if isinstance(base, Const) and (base.value != 0 or n > 0):
        folded = _fold(operator.pow, base.value, n)
        if folded is not None:
            return Const(folded)
    return Pow(base, n)


def _quotient(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value != 0:
        if isinstance(a, Const):
            value = _fold(operator.truediv, a.value, b.value)
            return Div(a, b) if value is None else Const(value)
        if b.value == 1:
            return a
        if b.value == -1:
            return _neg(a)
        if isinstance(b.value, Fraction):
            # a/c with c exact rational becomes (1/c)*a so that like-term
            # merging sees the coefficient.  Float divisors stay divisions.
            return _product_of([Const(1 / b.value), a])
    if _is_const(a, 0) and not _is_const(b, 0):
        return Const(0)
    return Div(a, b)


def _fold(op, a, b):
    """``op(a, b)`` on constant values, or None where a float result would
    not be finite: such a fold is refused and its nodes are kept apart.

    The loops of _flatten and _sum_of make the same check inline.
    """
    try:
        value = op(a, b)
    except (OverflowError, ZeroDivisionError):
        # Float overflow, or a Fraction that leaves double range (too large,
        # or so small that a float divisor becomes 0.0) when met by a float.
        return None
    return value if isinstance(value, Fraction) or math.isfinite(value) else None


def _mul_chain(factors) -> Expr:
    e = factors[0]
    for f in factors[1:]:
        e = Mul(e, f)
    return e


def _flatten(parts):
    """Split the product of ``parts`` into (coefficient, non-constant factors).

    The coefficient is None when folding the constants would not be finite.
    """
    coeff = Fraction(1)
    factors = []
    stack = list(reversed(parts))
    while stack:
        node = stack.pop()
        if isinstance(node, Mul):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, Neg):
            coeff = -coeff
            stack.append(node.arg)
        elif isinstance(node, Const):
            try:
                coeff = coeff * node.value
            except OverflowError:  # a Fraction beyond double range met a float
                coeff = math.inf
        else:
            factors.append(node)
    if isinstance(coeff, float) and not math.isfinite(coeff):
        coeff = None
    return coeff, tuple(factors)


def _product_of(parts) -> Expr:
    """Combine already simplified factors, folding constants together."""
    coeff, factors = _flatten(parts)
    if coeff is None:
        # Refuse to fold a non-finite coefficient; rebuild untouched.
        return _mul_chain(list(parts))
    if coeff == 0:
        return Const(0)
    if factors and coeff == -1:
        return Neg(_mul_chain(factors))
    return _coeff_times(coeff, factors)


def _term_parts(e: Expr):
    """Split a simplified summand into (coefficient, factors); () means a constant.

    A summand whose coefficient would not be finite is one opaque factor.
    """
    coeff = None
    if isinstance(e, (Const, Mul, Neg)):
        coeff, factors = _flatten((e,))
    elif isinstance(e, Div) and isinstance(e.right, Const):
        div = e.right.value
        if isinstance(div, Fraction) and div != 0:
            coeff, factors = _term_parts(e.left)
            coeff = _fold(operator.truediv, coeff, div)
    if coeff is None:
        return Fraction(1), (e,)
    return coeff, factors


def _sum_of(signed) -> Expr:
    """Combine signed, already simplified summands, merging like terms.

    A merge whose coefficient would not be finite is refused: the summands
    stay apart, as _product_of leaves such a product unfolded.
    """
    terms = []  # [coefficient, factors], in order of first appearance
    latest = {}  # factors -> the last of terms with them; () for constants
    refused = set()  # factors of some refused merge
    stack = list(reversed(signed))
    while stack:
        sign, node = stack.pop()
        if isinstance(node, Add):
            stack.append((sign, node.right))
            stack.append((sign, node.left))
        elif isinstance(node, Sub):
            stack.append((-sign, node.right))
            stack.append((sign, node.left))
        elif isinstance(node, Neg):
            stack.append((-sign, node.arg))
        else:
            coeff, factors = _term_parts(node)
            if sign < 0:
                coeff = -coeff
            term = latest.get(factors)
            if term is None and not factors:
                coeff = Fraction(0) + coeff  # the constant part starts from exact 0
            elif term is not None:
                try:
                    merged = term[0] + coeff
                except OverflowError:  # a Fraction beyond double range met a float
                    merged = math.inf
                if not isinstance(merged, float) or math.isfinite(merged):
                    term[0] = merged
                    continue
                refused.add(factors)
            term = latest[factors] = [coeff, factors]
            terms.append(term)

    # Later like terms merged into the last of a refused chain, which may now
    # fit with the one before it.  Merge neighbours until no merge is finite,
    # leaving out zeros as the output does, so a second pass finds none.
    for factors in refused:
        chain = [term for term in terms if term[1] == factors and term[0] != 0]
        i = 0
        while i + 1 < len(chain):
            merged = _fold(operator.add, chain[i][0], chain[i + 1][0])
            if merged is None:
                i += 1
                continue
            chain[i][0] = merged
            chain.pop(i + 1)[0] = 0
            if merged == 0:
                chain.pop(i)
            i = max(i - 1, 0)

    consts = [coeff for coeff, factors in terms if not factors]
    terms = [(coeff, factors) for coeff, factors in terms if factors and coeff != 0]
    terms += [(coeff, ()) for coeff in consts if coeff != 0]
    if not terms:
        terms.append((consts[0] if consts else Fraction(0), ()))

    out = None
    for coeff, factors in terms:
        positive = coeff >= 0
        piece = _coeff_times(coeff if positive else abs(coeff), factors)
        if out is None:
            out = piece if positive else _neg(piece)
        else:
            out = Add(out, piece) if positive else Sub(out, piece)
    return out


def _coeff_times(coeff, factors) -> Expr:
    """The chain c*f1*f2*... that _product_of builds, so simplify leaves it alone."""
    if not factors:
        return Const(coeff)
    if coeff == 1:
        return _mul_chain(factors)
    return _mul_chain((Const(coeff),) + factors)

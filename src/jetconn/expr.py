"""Symbolic expressions over a fixed set of coordinate variables.

The expression language is deliberately small: rational and floating point
constants, named variables, the four arithmetic operations, unary minus,
integer powers written ``e^n``, and the functions ``sin``, ``cos``, ``exp``
and ``ln``.  Trees are immutable; structural equality and hashing make them
usable as dictionary keys.  Each node also has private slots for facts
computed once: the result of :func:`simplify`, the sort key of its
structure, whether it holds a float constant, and its free variables.
They are not part of the value, and equality, hashing and ``repr`` ignore
them.

:class:`Value` is the immutable base of every other record of the package:
the symbol universe here, and the connections, curves, frames, jet points
and results of the other modules.  A subclass lists its fields in
``__slots__``, checks or converts its arguments in its own ``__init__``
and stores them once through ``Value.__init__``; equality, hashing and
``repr`` follow the fields.

Concrete syntax (``*`` and ``/`` bind tighter than ``+`` and ``-``, ``^``
tighter still; a minus is unary only at the start of an expression, a
parenthesis or a function argument, and negates a whole term):

    expr   := ["-"] term {("+" | "-") term}
    term   := factor {("*" | "/") factor}
    factor := base ["^" integer]
    base   := number | identifier | "(" expr ")" | function "(" expr ")"

Integer and decimal literals are exact: an int where integral, a
:class:`fractions.Fraction` otherwise.  Only literals in scientific notation
or results of float arithmetic carry IEEE semantics.

Every transform of a tree (simplify, diff, substitute, copy and pickle)
walks :func:`postorder`, each distinct node once, ``free_vars`` and ``==``
a stack of their own, the printers pop pieces off a stack and the parser
keeps its open parentheses on one, so nothing recurses.

:func:`simplify` gives a tree one canonical form.  Each sum and product is
flattened whole.  A sum merges like terms, those with equal factors, by
adding their coefficients; a product folds its constants into one
coefficient and merges equal bases into one integer power when their
exponents have the same sign, so ``x1*x1^-1`` keeps its domain.  Factors
are sorted by base, then exponent, and terms by their factors, the constant
last; the order compares node types, names, values, exponents and operands,
never a hash.  The result is a left fold of the binary nodes: ``c*f1*f2``,
``-(c*f1*f2)`` when c < 0, ``f1*f2`` when c = 1, and ``t1 + t2 - t3``.
Atoms and quotients are kept, with simplified operands.

:func:`diff` differentiates ``simplify(e)`` term by term, so its result
depends on the canonical form, not on how the input was grouped: the
derivative of ``sin(x1)*x1*y1`` is that of ``y1*x1*sin(x1)``.  Each term
of the form gives one product-rule term per factor that depends on the
variable, and all of them are merged once, as a sum is.  A tree with a
float constant keeps the older route, ``simplify`` of the binary
product-rule tree, since float merges depend on their order.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from functools import partial
from typing import Mapping

from . import _derive, _simplify
from .errors import (
    DimensionMismatchError,
    FunctionArityError,
    ParseError,
    SizeLimitError,
    UnknownIdentifierError,
)

FUNCTIONS = ("sin", "cos", "exp", "ln")

_COORDINATE_RE = re.compile(r"([xy])([1-9][0-9]*)")


_set = object.__setattr__


class Value:
    """Base class of the immutable records: fields in ``__slots__``, set once.

    ``Value(*fields)`` stores the fields in slot order.  Two values are
    equal when they have the same type and equal fields, the hash is that
    of the fields, and ``repr`` reads ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init__(self, *fields):
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}")
        for name, value in zip(names, fields):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} values are immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        # copy and pickle rebuild a value through its constructor.
        return type(self), self._fields()


class SymbolUniverse(Value):
    """Declares which variable names an expression may reference.

    A universe with base dimension m and fiber dimension n provides the
    canonical names ``x1..xm`` and ``y1..yn`` plus any extra symbols (curve
    parameters, frame coordinates).  Extra names are kept sorted so the
    variable order of a universe is reproducible.
    """

    __slots__ = ("base_dim", "fiber_dim", "extra_symbols")

    def __init__(self, base_dim: int, fiber_dim: int, extra_symbols=frozenset()):
        if base_dim < 0 or fiber_dim < 0:
            raise ValueError("universe dimensions must be non-negative")
        super().__init__(base_dim, fiber_dim, frozenset(extra_symbols))
        for name in self.extra_symbols:
            if not isinstance(name, str):
                raise TypeError("extra symbol names must be strings")
            if not (name.isascii() and name.isidentifier()):
                raise ValueError(f"invalid extra symbol name {name!r}")
            if name in FUNCTIONS:
                raise ValueError(f"extra symbol {name!r} collides with a function name")
            if self._is_coordinate(name):
                raise ValueError(f"extra symbol {name!r} collides with a coordinate name")

    def _is_coordinate(self, name: str) -> bool:
        m = _COORDINATE_RE.fullmatch(name)
        if m is None:
            return False
        # Numerals without a leading zero order as (length, text), so even a
        # name longer than int() reads is compared.
        dim = str(self.base_dim if m[1] == "x" else self.fiber_dim)
        return (len(m[2]), m[2]) <= (len(dim), dim)

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
        return self._is_coordinate(name) or name in self.extra_symbols

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
    if isinstance(value, (int, float, Fraction)):
        return Const(value)
    raise TypeError(f"cannot treat {type(value).__name__} as an expression")


_FLOAT, _ATOM = 1, 2  # bits of Expr._flags


class Expr:
    """Base class for expression nodes.  Instances are immutable.

    Each node class sets its fields, ``_hash`` and ``_flags`` in
    ``__init__`` (``_FLOAT`` when a float constant is in the tree, ``_ATOM``
    when a sin/cos/exp/ln application is), lists its fields in
    ``_key()`` and its subtrees in ``children()``, and leaves the facts
    computed later unknown: ``_simple`` (the cache of :func:`simplify`),
    ``_order_key`` (of ``_simplify._order``) and ``_names`` (of
    :meth:`free_vars`).
    The hash and the flags are built from the children's, so neither walks
    the tree.
    """

    __slots__ = ("_hash", "_simple", "_order_key", "_flags", "_names")

    def __setattr__(self, name, value):
        raise AttributeError("expression nodes are immutable")

    def __eq__(self, other):
        # Pairs of subtrees wait on a stack, each pushed once, so deep trees
        # need no recursion and a shared subtree is compared once.  The set of
        # pushed pairs is made at the second push: comparing leaves needs none.
        if not isinstance(other, Expr):
            return NotImplemented
        pairs, pushed = [(self, other)], None
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(a._key(), b._key()):
                if isinstance(x, Expr):
                    if pushed is None:
                        pushed = set()
                    elif (id(x), id(y)) in pushed:
                        continue
                    pushed.add((id(x), id(y)))
                    pairs.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        out, stack = [], [self]  # strings to print and nodes to print as calls
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
            else:
                pieces = [type(item).__name__ + "("]
                for field in item._key():
                    pieces += (field if isinstance(field, Expr) else repr(field), ", ")
                pieces[-1] = ")"
                stack += reversed(pieces)
        return "".join(out)

    def __reduce__(self):
        # copy and pickle rebuild each distinct node once, _simple empty, from
        # a postorder table: type and fields, an operand as (its row number,).
        rows, table = {}, []
        for node in postorder([self]):
            rows[id(node)] = len(table)
            table.append((type(node), *[
                (rows[id(f)],) if isinstance(f, Expr) else f for f in node._key()]))
        return _from_table, (table,)

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
        names = self._names
        if names is not None:
            return names
        # Each distinct node once, without postorder, whose order costs twice
        # as much; a subtree whose names are known is not walked.
        out, seen, stack = set(), set(), [self]
        while stack:
            node = stack.pop()
            if type(node) is Var:
                out.add(node.name)
            elif node._names is not None:
                out |= node._names
            elif id(node) not in seen:
                seen.add(id(node))
                stack += node.children()
        names = frozenset(out)
        _set_names(self, names)
        return names


def _from_table(table) -> "Expr":
    """The root, last, of the tree that ``Expr.__reduce__`` wrote as ``table``."""
    nodes = []
    for kind, *fields in table:
        nodes.append(kind(*[nodes[f[0]] if type(f) is tuple else f for f in fields]))
    return nodes[-1]


# Node constructors set each field through its slot's own setter, which,
# unlike _set, skips the lookup of the attribute by name.
_set_hash = Expr._hash.__set__
_set_simple = Expr._simple.__set__
_set_order_key = Expr._order_key.__set__
_set_flags = Expr._flags.__set__
_set_names = Expr._names.__set__


class Const(Expr):
    """Numeric literal.  ``value`` is exact, an int where it is integral and a
    Fraction otherwise, or a float (IEEE)."""

    __slots__ = ("value",)

    def __init__(self, value):
        kind = type(value)
        if kind is not int and kind is not Fraction and kind is not float:
            if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
                raise TypeError(f"bad constant {value!r}")
            value = (float if isinstance(value, float) else Fraction)(value)
            kind = type(value)
        if kind is Fraction:
            if value.denominator == 1:
                value = value.numerator
        elif kind is float and not math.isfinite(value):
            raise ValueError("constants must be finite")
        _set_value(self, value)
        # 2 == Fraction(2) == 2.0 holds and their hashes agree, so mixed exact
        # and float constants of equal value are equal nodes as well.
        _set_hash(self, hash((Const, value)))
        _set_simple(self, None)
        _set_order_key(self, None)
        _set_flags(self, _FLOAT if kind is float else 0)
        _set_names(self, None)

    def _key(self):
        return (self.value,)

    @property
    def is_exact(self) -> bool:
        return type(self.value) is not float


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str):
            raise TypeError("variable name must be a string")
        if not (name.isascii() and name.isidentifier()):
            raise ValueError(f"invalid variable name {name!r}")
        _set_var_name(self, name)
        _set_hash(self, hash((Var, name)))
        _set_simple(self, None)
        _set_order_key(self, None)
        _set_flags(self, 0)
        _set_names(self, None)

    def _key(self):
        return (self.name,)


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        if not isinstance(arg, Expr):
            raise TypeError("operand must be an expression")
        _set_arg(self, arg)
        _set_hash(self, hash((type(self), arg._hash)))
        _set_simple(self, None)
        _set_order_key(self, None)
        _set_flags(self, arg._flags)
        _set_names(self, None)

    def _key(self):
        return (self.arg,)

    def children(self):
        return (self.arg,)


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        if not isinstance(left, Expr) or not isinstance(right, Expr):
            raise TypeError("operands must be expressions")
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((type(self), left._hash, right._hash)))
        _set_simple(self, None)
        _set_order_key(self, None)
        _set_flags(self, left._flags | right._flags)
        _set_names(self, None)

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
        _set_base(self, base)
        _set_exponent(self, exponent)
        _set_hash(self, hash((Pow, base._hash, exponent)))
        _set_simple(self, None)
        _set_order_key(self, None)
        _set_flags(self, base._flags)
        _set_names(self, None)

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
        _set_fn_name(self, name)
        _set_arg(self, arg)
        _set_hash(self, hash((Fn, name, arg._hash)))
        _set_simple(self, None)
        _set_order_key(self, None)
        _set_flags(self, arg._flags | _ATOM)
        _set_names(self, None)

    def _key(self):
        return (self.name, self.arg)


_set_value = Const.value.__set__
_set_var_name = Var.name.__set__
_set_arg = _Unary.arg.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__
_set_base = Pow.base.__set__
_set_exponent = Pow.exponent.__set__
_set_fn_name = Fn.name.__set__


def sin(e) -> Fn:
    return Fn("sin", as_expr(e))


def cos(e) -> Fn:
    return Fn("cos", as_expr(e))


def exp(e) -> Fn:
    return Fn("exp", as_expr(e))


def ln(e) -> Fn:
    return Fn("ln", as_expr(e))


def postorder(roots, children=None):
    """Yield each distinct node of the trees ``roots`` once, after its operands.

    Nodes are distinct by identity.  ``children(node)`` gives the operands
    to walk, ``node.children()`` by default.  Roots and operands are pushed
    in order, so the last is walked first.  The walk keeps an explicit
    stack, so deep trees need no recursion.
    """
    children = children or operator.methodcaller("children")
    seen = set()
    todo = list(roots)  # a node under _READY is yielded when _READY is popped
    while todo:
        node = todo.pop()
        if node is _READY:
            yield todo.pop()
        elif id(node) not in seen:
            seen.add(id(node))
            operands = children(node)
            if operands:
                todo += (node, _READY, *operands)
            else:
                yield node


_READY = object()


def _sum_edges(node):
    kind = type(node)
    if kind is Add:
        return ((node.left, 1), (node.right, 1))
    if kind is Sub:
        return ((node.left, 1), (node.right, -1))
    if kind is Neg:
        return ((node.arg, -1),)
    return ()


def _leaves(pairs, edges) -> list:
    """The leaves below ``pairs``, left to right, each once with its count.

    ``pairs`` holds ``(count, root)`` pairs, and ``edges(node)`` the
    ``(operand, sign)`` pairs a node is flattened through, none for a leaf.
    A leaf's count sums the signs of the paths that reach it.  A node is
    flattened through once; reached again, it is a leaf, so a shared sum
    costs one walk.  A ``Neg``, one node over its operand, is flattened
    through each time.
    """
    if len(pairs) > 1:  # a root given twice is one root
        roots = {}
        for k, root in pairs:
            roots[id(root)] = (roots.get(id(root), (0,))[0] + k, root)
        pairs = list(roots.values())
    out, where, inner = [], {}, set()
    stack = pairs[::-1]
    while stack:
        k, node = stack.pop()
        below = () if id(node) in inner else edges(node)
        if below:
            if type(node) is not Neg:
                inner.add(id(node))
            stack += [(sign * k, op) for op, sign in reversed(below)]
        elif id(node) in where:
            i = where[id(node)]
            out[i] = (out[i][0] + k, node)
        else:
            where[id(node)] = len(out)
            out.append((k, node))
    return out


def summands(signed) -> list:
    """The ``(count, term)`` pairs of signed sums, left to right.

    ``signed`` holds ``(count, expression)`` pairs.  Each expression is
    flattened through its ``Add``, ``Sub`` and ``Neg`` nodes, which flip the
    sign of what they subtract or negate.  Each term comes once, with the
    sum of its signs (``x - x`` gives one term of count 0), and a sum node
    reached a second time is a term, so shared sums are walked once.
    """
    return _leaves(signed, _sum_edges)


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
    ``allowed`` is only asked whether it holds each name an entry uses, so a
    :class:`SymbolUniverse` serves for any dimension without listing its names.
    """
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
        stray = sorted(name for name in e.free_vars() if name not in allowed)
        if stray:
            raise ValueError(f"{what} references variables {stray} outside the universe")
        return e

    return entry(nest(value, 0), 0)


# --- parsing ---------------------------------------------------------------

MAX_DIGITS = 1000  # digits allowed in one numeric literal

# One alternative per token kind: a number, an identifier, an operator,
# whitespace, then any other character, which is an error.
_TOKEN_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*"
                       r"|[-+*/^(),]|\s+|.", re.DOTALL)
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_TOKEN_START = _DIGITS | _IDENT_START | frozenset("-+*/^(),")

# Binding strength and node of each infix operator.  A leading minus negates
# a whole term: it binds tighter than + and -, looser than * and /.
_BINDING = {"+": (1, Add), "-": (1, Sub), "*": (3, Mul), "/": (3, Div)}
_LEADING_MINUS = (2, Neg)


def _position(text: str, k: int) -> int:
    """1-based position in ``text`` of its token ``k`` that is not whitespace,
    or of its end when it has no more."""
    for m in _TOKEN_RE.finditer(text):
        if not m.group().isspace():
            if not k:
                return m.start() + 1
            k -= 1
    return len(text) + 1


def _reduce(pending, operands, strength):
    """Apply the pending operators, last first, that bind at least ``strength``."""
    while pending and pending[-1][0] >= strength:
        op = pending.pop()[1]
        if op is Neg:
            operands[-1] = Neg(operands[-1])
        else:
            right = operands.pop()
            operands[-1] = op(operands[-1], right)


def parse_expr(text: str, universe: SymbolUniverse) -> Expr:
    """Parse expression text, validating every identifier against ``universe``.

    Raises :class:`ParseError` (with a 1-based position) on malformed input,
    :class:`UnknownIdentifierError` for identifiers outside the universe and
    :class:`FunctionArityError` for multi-argument function calls.  A bad
    character, or a literal of more than ``MAX_DIGITS`` digits, is reported
    before any error of the grammar.  The text is lexed once, without
    positions: an error's position is found by scanning the text again.
    Each distinct name is looked up in ``universe`` once, and the root keeps
    the names it uses.
    """
    tokens = []  # the tokens other than whitespace, then "" for the end
    for word in _TOKEN_RE.findall(text):
        if word[0] in _TOKEN_START:
            if len(word) > MAX_DIGITS and word[0] in _DIGITS and (
                    sum(map(str.isdigit, word)) > MAX_DIGITS):
                raise ParseError(f"number of more than {MAX_DIGITS} digits",
                                 _position(text, len(tokens)))
            tokens.append(word)
        elif not word.isspace():
            raise ParseError(f"unexpected character {word!r}", _position(text, len(tokens)))
    tokens.append("")

    # Two stacks: the finished operands, and the open groups (the whole text,
    # a parenthesis or a function argument), each with its function name or
    # None and its pending operators.  Nesting takes no recursion.
    names = set()
    operands, groups, i, opened = [], [(None, [])], 0, True
    while True:
        word = tokens[i]
        if opened and word == "-":
            groups[-1][1].append(_LEADING_MINUS)
            i += 1
            word = tokens[i]
        opened = False
        if word[:1] in _DIGITS:
            # Scientific notation means float semantics were intended.  float()
            # rounds the literal correctly, without building its power of ten.
            if "e" in word or "E" in word:
                value = float(word)
                if value == math.inf:  # the lexer reads no sign
                    raise ParseError("number out of floating point range", _position(text, i))
            else:
                value = int(word) if word.isdigit() else Fraction(word)
            operands.append(Const(value))
        elif word in FUNCTIONS:
            if tokens[i + 1] != "(":
                raise ParseError("expected '('", _position(text, i + 1))
            if tokens[i + 2] == ")":
                raise FunctionArityError(f"{word}() takes exactly one argument",
                                         _position(text, i + 2))
            groups.append((word, []))
            i, opened = i + 2, True
            continue
        elif word[:1] in _IDENT_START:
            if word not in names:
                if word not in universe:
                    raise UnknownIdentifierError(f"unknown identifier {word!r}",
                                                 _position(text, i))
                names.add(word)
            operands.append(Var(word))
        elif word == "(":
            groups.append((None, []))
            i, opened = i + 1, True
            continue
        else:
            raise ParseError("expected a number, variable or '('", _position(text, i))
        i += 1
        # A base is complete: take its exponent, then an infix operator, or
        # end the group, whose value is a base of the group around it.
        while True:
            word = tokens[i]
            if word == "^":
                negative = tokens[i + 1] == "-"
                i += 1 + negative
                word = tokens[i]
                if not word.isdigit():
                    raise ParseError("expected an integer exponent", _position(text, i))
                operands[-1] = Pow(operands[-1], -int(word) if negative else int(word))
                i += 1
                word = tokens[i]
            if word in _BINDING:
                break
            name, pending = groups[-1]
            _reduce(pending, operands, 0)
            if len(groups) == 1:
                if not word:
                    _set_names(operands[0], frozenset(names))
                    return operands[0]
                raise ParseError(f"unexpected trailing input {word!r}", _position(text, i))
            if name and word == ",":
                raise FunctionArityError(f"{name}() takes exactly one argument",
                                         _position(text, i))
            if word != ")":
                raise ParseError("expected ')'", _position(text, i))
            groups.pop()
            if name:
                operands[-1] = Fn(name, operands[-1])
            i += 1
        strength, op = _BINDING[word]
        _reduce(groups[-1][1], operands, strength)
        groups[-1][1].append((strength, op))
        i += 1


# --- printing --------------------------------------------------------------

_LVL_SIGNED = 0
_LVL_SUM = 1
_LVL_TERM = 2
_LVL_POW = 3
_LVL_ATOM = 4


def _const_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    try:
        return _exact_text(value)
    except ValueError:  # a numerator or denominator past Python's limit for str(int)
        limit = sys.get_int_max_str_digits()
        raise SizeLimitError(f"a constant of more than {limit} digits cannot be printed") from None


def _exact_text(value: Fraction) -> str:
    q = value.denominator
    if q == 1:
        return str(value.numerator)
    twos = (q & -q).bit_length() - 1  # q = 2^twos * 5^fives * rest
    fives, rest = 0, q >> twos
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{value.numerator}/{q}"
    digits = max(twos, fives)  # the fractional digits that print value exactly
    sign = "-" if value < 0 else ""
    scaled = abs(value.numerator) * 10**digits // q
    text = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


_LEVELS = {Neg: _LVL_SIGNED, Add: _LVL_SUM, Sub: _LVL_SUM, Mul: _LVL_TERM, Div: _LVL_TERM,
           Pow: _LVL_POW, Fn: _LVL_ATOM}
_INFIX = {Add: (" + ", _LVL_SIGNED, _LVL_TERM), Sub: (" - ", _LVL_SIGNED, _LVL_TERM),
          Mul: ("*", _LVL_TERM, _LVL_POW), Div: ("/", _LVL_TERM, _LVL_POW)}


def to_text(e: Expr) -> str:
    """Render a tree to concrete syntax that parses back to the same shape.

    Parentheses are inserted exactly where precedence or associativity would
    otherwise change the tree.
    """
    # Strings to print and nodes, each under the level it needs, on a stack.
    # A sum is printed bare only where a leading minus is legal (at the start
    # of the text, of a parenthesis or of a function argument, or as the left
    # operand of such a sum), so its left operand may start with a minus too.
    out, stack = [], [e, _LVL_SIGNED]
    emit, pop = out.append, stack.pop
    while stack:
        need = pop()
        if type(need) is str:
            emit(need)
            continue
        e = pop()
        kind = type(e)
        if kind is Var:
            emit(e.name)
        elif kind is Const:  # a negative constant binds as a sign, p/q as a quotient
            text = _const_text(e.value)
            level = _LVL_SIGNED if e.value < 0 else _LVL_TERM if "/" in text else _LVL_ATOM
            emit(f"({text})" if level < need else text)
        elif kind not in _LEVELS:
            raise TypeError(f"not an expression: {e!r}")
        elif _LEVELS[kind] < need:
            stack += (")", e, _LVL_SIGNED, "(")
        elif kind is Neg:
            stack += (e.arg, _LVL_TERM, "-")
        elif kind is Pow:
            stack += (f"^{e.exponent}", e.base, _LVL_ATOM)
        elif kind is Fn:
            stack += (")", e.arg, _LVL_SIGNED, e.name + "(")
        else:
            op, left, right = _INFIX[kind]
            stack += (e.right, right, op, e.left, left)
    return "".join(out)


# --- differentiation, substitution and simplification ----------------------
#
# diff differentiates the canonical form term by term.  Its code is in
# _derive and simplify's in _simplify, which a command loads only when it
# differentiates or simplifies.  substitute is one walk of postorder that
# builds each distinct node's image from its operands' images: a shared
# subtree is handled once.

def diff(e: Expr, var: str, universe: SymbolUniverse = None) -> Expr:
    """Partial derivative with respect to ``var``, simplified.

    When a universe is supplied the variable name is checked against it
    first; otherwise any syntactically valid name is accepted.  The result
    is ``simplify(e)`` differentiated term by term (see
    :mod:`jetconn._derive`), so it does not depend on how ``e`` is grouped.
    """
    if universe is not None and var not in universe:
        raise ValueError(f"{var!r} is not a variable of this universe")
    Var(var)  # validates the name
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return _derive.derivative(e, var)


def substitute(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (simultaneously, not iteratively)."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    repl = {name: as_expr(value) for name, value in mapping.items()}
    done = {}  # id of a node -> its image
    for node in postorder([e]):
        if type(node) is Var:
            out = repl.get(node.name, node)
        elif type(node) is Const:
            out = node
        else:  # rebuilt from its fields, each operand replaced by its image
            out = type(node)(*[done[id(f)] if isinstance(f, Expr) else f for f in node._key()])
        done[id(node)] = out
    return done[id(e)]


def simplify(e: Expr) -> Expr:
    """The canonical form of ``e``, described in the module docstring."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    return _simplify.canonical(e)

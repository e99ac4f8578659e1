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
from functools import partial, reduce
from itertools import chain
from typing import Mapping

from . import _derive
from .errors import (
    DimensionMismatchError,
    FunctionArityError,
    ParseError,
    SizeLimitError,
    UnknownIdentifierError,
)

FUNCTIONS = ("sin", "cos", "exp", "ln")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
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
            if not _IDENT_RE.fullmatch(name):
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


class Expr:
    """Base class for expression nodes.  Instances are immutable.

    Each node class sets its fields, ``_hash`` and ``_has_float`` (whether a
    float constant is in the tree) in ``__init__``, lists its fields in
    ``_key()`` and its subtrees in ``children()``, and leaves the facts
    computed later unknown: ``_simple`` (the cache of :func:`simplify`),
    ``_order_key`` (of :func:`_order`) and ``_names`` (of :meth:`free_vars`).
    The hash and the float flag are built from the children's, so neither
    walks the tree.
    """

    __slots__ = ("_hash", "_simple", "_order_key", "_has_float", "_names")

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
        return _emit(self, _repr_pieces)

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
_set_has_float = Expr._has_float.__set__
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
        _set_has_float(self, kind is float)
        _set_names(self, None)

    def _key(self):
        return (self.value,)

    @property
    def is_exact(self) -> bool:
        return type(self.value) is not float


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        _set_var_name(self, name)
        _set_hash(self, hash((Var, name)))
        _set_simple(self, None)
        _set_order_key(self, None)
        _set_has_float(self, False)
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
        _set_has_float(self, arg._has_float)
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
        _set_has_float(self, left._has_float or right._has_float)
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
        _set_has_float(self, base._has_float)
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
        _set_has_float(self, arg._has_float)
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


_MINUS_ONE = Const(-1)


def _sum_edges(node):
    kind = type(node)
    if kind is Add:
        return ((node.left, 1), (node.right, 1))
    if kind is Sub:
        return ((node.left, 1), (node.right, -1))
    if kind is Neg:
        return ((node.arg, -1),)
    return ()


def _product_edges(node):
    kind = type(node)
    if kind is Mul:
        return ((node.left, 1), (node.right, 1))
    if kind is Neg:
        return ((node.arg, 1), (_MINUS_ONE, 1))
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


def _emit(e, pieces) -> str:
    """The strings of a stack of items, ``(e, _LVL_SIGNED)`` first, joined: a
    ``(node, need)`` item is replaced by the items of ``pieces(node, need)``."""
    out, stack = [], [(e, _LVL_SIGNED)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            stack += reversed(pieces(*item))
    return "".join(out)


# A sum is printed bare only where a leading minus is legal (at the start of
# the text, of a parenthesis or of a function argument, or as the left
# operand of such a sum), so its left operand may start with a minus too.
def _text_pieces(e, need) -> tuple:
    kind = type(e)
    if kind is Var:
        return (e.name,)
    if kind is Const:  # a negative constant binds as a sign, p/q as a quotient
        text = _const_text(e.value)
        level = _LVL_SIGNED if e.value < 0 else _LVL_TERM if "/" in text else _LVL_ATOM
        return ("(", text, ")") if level < need else (text,)
    if kind not in _LEVELS:
        raise TypeError(f"not an expression: {e!r}")
    if _LEVELS[kind] < need:
        return "(", (e, _LVL_SIGNED), ")"
    if kind is Neg:
        return "-", (e.arg, _LVL_TERM)
    if kind is Pow:
        return (e.base, _LVL_ATOM), f"^{e.exponent}"
    if kind is Fn:
        return e.name + "(", (e.arg, _LVL_SIGNED), ")"
    op, left, right = _INFIX[kind]
    return (e.left, left), op, (e.right, right)


def _repr_pieces(e, _need) -> list:
    out = [type(e).__name__ + "("]
    for field in e._key():
        out += ((field, None) if isinstance(field, Expr) else repr(field), ", ")
    out[-1] = ")"
    return out


def to_text(e: Expr) -> str:
    """Render a tree to concrete syntax that parses back to the same shape.

    Parentheses are inserted exactly where precedence or associativity would
    otherwise change the tree.
    """
    return _emit(e, _text_pieces)


# --- differentiation and substitution --------------------------------------
#
# diff differentiates the canonical form term by term; its code is in
# _derive, which a command loads only when it differentiates.  substitute is
# one walk of postorder that builds each distinct node's image from its
# operands' images: a shared subtree is handled once.

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


# --- simplification --------------------------------------------------------
#
# One walk of postorder.  The operands of a sum are its summands and those of
# a product its factors (_leaves, through Add, Sub and Neg or through Mul and
# Neg, a Neg being a factor -1), so each whole sum or product is combined
# once, into the form of the module docstring.  A term 1*S or -1*S, S a sum,
# stands for S's terms, and a quotient by an exact constant is a product.  A
# float coefficient that would leave double range is not folded (_fold):
# such like terms stay apart, and such a product keeps its constants, in
# order, in front of its factors, one opaque factor of its term.
#
# simplify keeps each call's result in the ``_simple`` slot of the call's
# root, as the symbolic commands simplify the same entries again and again,
# and marks every result _SIMPLE, its own simplified form.  No other input
# node is written: a comparison, which simplifies a new tree over its two
# sides, holds no copies, and the nodes a sum is flattened through, whose
# prefixes would cost memory quadratic in its length, keep nothing.  A node
# that keeps a result is an operand only where it would be one anyway: a
# sum or product is flattened through every node that is not itself a
# result.  So what was simplified before never changes a tree's form.
#
# Within one call, a tree with no float constant also shares results by
# structure: a dict maps each operand simplified so far to its result, and an
# operand equal to one of them takes that result without a walk, so
# ``0.5*(A) + 0.5*(B) - (0.5*(B) + 0.5*(A))`` simplifies A and B once each.
# The dict goes when the call returns, and the nodes it maps keep nothing.
# A float tree takes no share: ``2 == 2.0``, and float merges depend on
# their order.

_SIMPLE = object()


def simplify(e: Expr) -> Expr:
    """The canonical form of ``e``, described above."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression: {e!r}")
    done = {}  # id of a node -> its simplified form
    parts = {}  # id of a sum or product -> its (count, operand) pairs
    shared = None if e._has_float else {}  # operand -> its simplified form

    def operands(node):
        memo = node._simple
        if memo is not None or isinstance(node, (Const, Var)):
            done[id(node)] = memo if isinstance(memo, Expr) else node
            return ()
        if shared:
            out = shared.get(node)
            if out is not None:
                done[id(node)] = out
                return ()
        if not isinstance(node, (Add, Sub, Neg, Mul)):
            return node.children()
        edges = _product_edges if isinstance(node, Mul) else _sum_edges
        pairs = parts[id(node)] = _leaves(
            [(1, node)], lambda n: () if n._simple is _SIMPLE else edges(n))
        return [leaf for _, leaf in pairs]

    for node in postorder([e], operands):
        key = id(node)
        if key in done:
            continue
        if isinstance(node, (Add, Sub, Neg, Mul)):
            pairs = [(k, done[id(leaf)]) for k, leaf in parts.pop(key)]
            out = _product(pairs) if isinstance(node, Mul) else _sum(pairs)
        elif isinstance(node, Div):
            out = _quotient(done[id(node.left)], done[id(node.right)])
        elif isinstance(node, Pow):
            out = _power(done[id(node.base)], node.exponent)
        else:
            out = _function(node.name, done[id(node.arg)])
        _set_simple(out, _SIMPLE)
        done[key] = out
        if shared is not None:
            shared[node] = out
    out = done[id(e)]
    if out is not e:  # a result, constant or variable is its own form
        _set_simple(e, out)
    return out


_AT = {("sin", 0): 0, ("cos", 0): 1, ("exp", 0): 1, ("ln", 1): 0}  # f(c) for exact values


def _function(name: str, a: Expr) -> Expr:
    value = _AT.get((name, a.value)) if isinstance(a, Const) else None
    return Fn(name, a) if value is None else Const(value)


MAX_POWER_BITS = 1 << 16  # bit size allowed for one exact constant raised to a power


def bit_size(c) -> int:
    """Bits of the exact number ``c``: those of its numerator or denominator."""
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _power(base: Expr, n: int) -> Expr:
    if n == 0:
        return Const(1)
    if n == 1:
        return base
    if isinstance(base, Const) and (base.value != 0 or n > 0) and not (
            base.is_exact and abs(n) * bit_size(base.value) > MAX_POWER_BITS):
        folded = _fold(operator.pow, base.value, n)
        if folded is not None:
            return Const(folded)
    return Pow(base, n)


def _quotient(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value != 0:
        if isinstance(a, Const):
            value = _fold(operator.truediv, a.value, b.value)
            return Div(a, b) if value is None else Const(value)
        if type(b.value) is not float or abs(b.value) == 1:  # other floats stay divisors
            return _product([(1, Const(1 / Fraction(b.value))), (1, a)])
    if isinstance(a, Const) and a.value == 0 and not (isinstance(b, Const) and b.value == 0):
        return Const(0)
    return Div(a, b)


def _fold(op, a, b):
    """``op(a, b)`` on constant values, or None where a float result would
    not be finite (a float overflows, or meets an exact value beyond double
    range): such a fold is refused and its nodes are kept apart.  A quotient
    or negative power of ints is a Fraction, and an integral result an int."""
    if type(a) is int and (op is operator.truediv or op is operator.pow and b < 0):
        a = Fraction(a)
    try:
        value = op(a, b)
    except (OverflowError, ZeroDivisionError):
        return None
    kind = type(value)
    if kind is float:
        return value if math.isfinite(value) else None
    return value.numerator if kind is Fraction and value.denominator == 1 else value


def _coefficient(consts):
    """The product of the ``consts`` left to right: 1 for none, None if not finite."""
    coeff = consts[0].value if consts else 1
    for c in consts[1:]:
        coeff = _fold(operator.mul, coeff, c.value)
        if coeff is None:
            break
    return coeff


# The longest key a node keeps, in entries.  A key spells out its tree, so on
# a DAG it can be far larger than the nodes it stands for: prolong of a
# 300-deep sin(x1*...) chain kept 28 million entries and peaked at 250 MB
# when every key was kept, and at 41 MB with this bound, in 2.8 s either way
# (46 MB and 50 s when no key was kept).  On the algebra and sampling
# workloads (seed 7) the longest key has 154 entries.
_MAX_KEPT_KEY = 1024

_RANKS = {Const: 0, Var: 1, Fn: 2, Pow: 3, Mul: 4, Div: 5, Neg: 6, Add: 7, Sub: 8}


def _order(e: Expr) -> tuple:
    """A key that orders trees by structure: for each node of a pre-order
    walk, its type, then its value, name or exponent, then whether it is a
    float constant.  A key of at most ``_MAX_KEPT_KEY`` entries is kept in
    ``e``, and the walk takes the kept key of a subtree in place of walking
    it.  A variable keeps none, so an input's variables hold nothing once a
    call is done."""
    key = e._order_key
    if key is not None:
        return key
    if type(e) is Var:
        return ((1, e.name, False),)
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        key = node._order_key
        if key is not None:
            out += key
            continue
        kind = type(node)
        field = (node.name if kind in (Var, Fn) else node.value if kind is Const
                 else node.exponent if kind is Pow else 0)
        out.append((_RANKS[kind], field, type(field) is float))
        stack += reversed(node.children())
    key = tuple(out)
    if len(key) <= _MAX_KEPT_KEY:
        _set_order_key(e, key)
    return key


def _base_order(f: Expr) -> tuple:
    return (_order(f.base), f.exponent) if isinstance(f, Pow) else (_order(f), 1)


def _split(term: Expr):
    """The constants (a Neg is -1) and the other factors of a product, in order."""
    consts, factors = [], []
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Mul):
            stack += (node.right, node.left)
        elif isinstance(node, Neg):
            consts.append(_MINUS_ONE)
            stack.append(node.arg)
        else:
            (consts if isinstance(node, Const) else factors).append(node)
    return consts, tuple(factors)


def _term(coeff, factors) -> Expr:
    """The canonical product of ``coeff`` and sorted, merged ``factors``."""
    if not factors:
        return Const(coeff)
    if coeff < 0 and (coeff != -1 or len(factors) > 1 or not isinstance(factors[0], (Add, Sub))):
        return Neg(_term(-coeff, factors))  # but -1*S stays a product: -S is a sum
    if coeff != 1:
        if isinstance(factors[0], Mul):  # a product whose constants did not fold
            return _product([(1, Const(coeff)), (1, factors[0])])
        factors = (Const(coeff), *factors)
    return reduce(Mul, factors)


def _product(pairs) -> Expr:
    """The product of simplified operands, each to the power of its count."""
    consts, coeff, factors = _collect(pairs)
    if coeff is None:
        # Fresh constants: one node met twice would be a power the next time.
        return _term(1, tuple(Const(c.value) for c in consts) + factors)
    return Const(0) if coeff == 0 else _term(coeff, factors)


def _collect(pairs):
    """The constants of a product of simplified operands, each to the power
    of its count, in order; their product, None if not finite; and the other
    factors, equal bases merged, sorted."""
    consts = []
    powers = {}  # (base, exponent > 0) -> exponent
    for k, node in pairs:
        own, factors = _split(node)
        for c in own:
            power = _power(c, k)
            if isinstance(power, Const):
                consts.append(power)
            else:  # a power that does not fold is a factor
                factors += (c,)
        for f in factors:
            base, n = (f.base, f.exponent * k) if isinstance(f, Pow) else (f, k)
            powers[base, n > 0] = powers.get((base, n > 0), 0) + n
    merged = [base if n == 1 else Pow(base, n) for (base, _), n in powers.items()]
    if len(merged) > 1:  # a key walks the factor's whole tree
        merged.sort(key=_base_order)
    return consts, _coefficient(consts), tuple(merged)


def _terms(pairs):
    """The (coefficient, factors) of each summand of ``pairs``, times its count."""
    for k, node in summands(pairs):
        consts, factors = _split(node)
        coeff = _coefficient(consts)
        if coeff is None:
            coeff, factors = 1, (node,)
        if k != 1:
            scaled = _fold(operator.mul, coeff, k)
            if scaled is None:  # a term reached k times, past double range
                coeff, factors = 1, (_product([(1, Const(k)), (1, node)]),)
            else:
                coeff = scaled
        yield coeff, factors


def _sum(pairs, split=()) -> Expr:
    """The sum of simplified operands, each times its count, and of the
    terms ``split``, (coefficient, factors) pairs whose factors are sorted
    and merged as :func:`_collect` leaves them; like terms are merged, and
    a merge that would not be finite is refused."""
    terms = []  # [coefficient, factors], in order of first appearance
    latest = {}  # factors -> the last of terms with them; () for constants
    refused = set()  # factors of some refused merge
    while pairs or split:
        for coeff, factors in chain(split, _terms(pairs)):
            term = latest.get(factors)
            if term is None and not factors:
                coeff = 0 + coeff  # the constant part starts from exact 0
            elif term is not None:
                merged = _fold(operator.add, term[0], coeff)
                if merged is not None:
                    term[0] = merged
                    continue
                refused.add(factors)
            term = latest[factors] = [coeff, factors]
            terms.append(term)
        pairs, split = [], ()
        for term in terms:  # a term 1*S or -1*S, S a sum, stands for S's terms
            coeff, factors = term
            if abs(coeff) == 1 and len(factors) == 1 and isinstance(factors[0], (Add, Sub)):
                pairs.append((1 if coeff > 0 else -1, factors[0]))
                term[0] = 0

    # Later like terms merged into the last of a refused chain, which may now
    # fit with the one before it.  Merge neighbours until no merge is finite,
    # leaving out zeros as the output does, so a second pass finds none.
    for factors in refused:
        run = [term for term in terms if term[1] == factors and term[0] != 0]
        i = 0
        while i + 1 < len(run):
            merged = _fold(operator.add, run[i][0], run[i + 1][0])
            if merged is None:
                i += 1
                continue
            run[i][0] = merged
            run.pop(i + 1)[0] = 0
            if merged == 0:
                run.pop(i)
            i = max(i - 1, 0)

    # The sort is stable, so the terms of a refused chain keep their order.
    consts = [coeff for coeff, factors in terms if not factors]
    terms = [t for t in terms if t[1] and t[0] != 0]
    if len(terms) > 1:  # a key walks every factor's whole tree
        terms.sort(key=lambda term: [*map(_base_order, term[1])])
    terms += [(coeff, ()) for coeff in consts if coeff != 0]
    if not terms:
        return Const(consts[0] if consts else 0)
    out = _term(*terms[0])
    for coeff, factors in terms[1:]:
        out = Add(out, _term(coeff, factors)) if coeff > 0 else Sub(out, _term(-coeff, factors))
    return out

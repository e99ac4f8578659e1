"""The code of :func:`jetconn.expr.simplify`, whose merges :mod:`jetconn._derive` shares.

One walk of postorder.  The operands of a sum are its summands and those of
a product its factors (_leaves, through Add, Sub and Neg or through Mul and
Neg, a Neg being a factor -1), so each whole sum or product is combined
once, into the form the :mod:`jetconn.expr` docstring describes.  A term
1*S or -1*S, S a sum, stands for S's terms, and a quotient by an exact
constant is a product.  A float coefficient that would leave double range
is not folded (_fold): such like terms stay apart, and such a product keeps
its constants, in order, in front of its factors, one opaque factor of its
term.

simplify keeps each call's result in the ``_simple`` slot of the call's
root, as the symbolic commands simplify the same entries again and again,
and marks every result _SIMPLE, its own simplified form.  No other input
node is written: a comparison, which simplifies a new tree over its two
sides, holds no copies, and the nodes a sum is flattened through, whose
prefixes would cost memory quadratic in its length, keep nothing.  A node
that keeps a result is an operand only where it would be one anyway: a
sum or product is flattened through every node that is not itself a
result.  So what was simplified before never changes a tree's form.

Within one call, a tree with no float constant also shares results by
structure: a dict maps each operand simplified so far to its result, and an
operand equal to one of them takes that result without a walk, so
``0.5*(A) + 0.5*(B) - (0.5*(B) + 0.5*(A))`` simplifies A and B once each.
The dict goes when the call returns, and the nodes it maps keep nothing.
A float tree takes no share: ``2 == 2.0``, and float merges depend on
their order.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import chain

from .expr import (_FLOAT, Add, Const, Div, Expr, Fn, Mul, Neg, Pow, Sub, Var, _leaves,
                   _set_order_key, _set_simple, _sum_edges, postorder, summands)

_MINUS_ONE = Const(-1)


def _product_edges(node):
    kind = type(node)
    if kind is Mul:
        return ((node.left, 1), (node.right, 1))
    if kind is Neg:
        return ((node.arg, 1), (_MINUS_ONE, 1))
    return ()


_SIMPLE = object()


def canonical(e: Expr) -> Expr:
    """The canonical form of the expression ``e``, for :func:`jetconn.expr.simplify`."""
    done = {}  # id of a node -> its simplified form
    parts = {}  # id of a sum or product -> its (count, operand) pairs
    shared = None if e._flags & _FLOAT else {}  # operand -> its simplified form

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

"""Exact expansion of an expression into a quotient of sparse polynomials over Q.

:func:`expand` turns a tree into a numerator and a denominator, each a
sparse polynomial: a dict from monomial to nonzero rational coefficient
(an ``int`` where it is integral, a :class:`fractions.Fraction` otherwise).
A monomial is a tuple of exponents, one per generator.  The generators are
the variables and the atoms: each ``sin``/``cos``/``exp``/``ln`` node is one
opaque generator, keyed by the node itself, so two atoms are one generator
exactly when they are structurally equal (same function, same simplified
argument) and different atoms never merge.

A division cross-multiplies and nothing is ever cancelled, so the
denominator is the product of every divisor met, and it is the zero
polynomial exactly when one of those divisors expands to zero.

The work is bounded by :data:`BUDGET` coefficient products per expansion.
Every multiplication checks the size of its result's term table against
what is left before it starts, and a power first checks the multinomial
bound on its number of terms, so an expansion that would be too large
gives up at once.  More than :data:`MAX_GENERATORS` generators give up
too, which bounds the length of every monomial, and so does a float
constant: floats carry IEEE rounding, which exact arithmetic cannot stand for.

The tree is walked once by :func:`jetconn.expr.postorder`, on an explicit
stack, each node object once.  A sum's operands on that walk are its
counted summands (:func:`jetconn.expr.summands`), so a long sum is combined
in one pass, and a shared one once; an atom has none: its argument is never
expanded.
"""

from __future__ import annotations

from operator import add

from .expr import (MAX_POWER_BITS, Add, Const, Div, Expr, Fn, Mul, Neg, Pow, Sub, Var, bit_size,
                   postorder, summands)

BUDGET = 50_000  # coefficient products one expansion may spend
MAX_GENERATORS = 64  # variables and atoms in one expansion: the length of a monomial


class _GiveUp(Exception):
    """The expansion met a float constant, too many generators or its budget's end."""


def decide(difference: Expr):
    """Whether ``difference`` is identically zero, or None when undecided.

    True: the numerator expands to 0 over a nonzero denominator, so the
    difference vanishes wherever it is defined.  False: the numerator is a
    nonzero polynomial and the tree has no atom, so the difference is a
    nonzero rational function of its variables and differs from 0 on a
    dense set.  None otherwise: a nonzero numerator with an atom in the
    tree (``sin(x)^2 + cos(x)^2 - 1``), a float constant, a denominator
    that is the zero polynomial, too many generators, or a spent budget.
    """
    expansion = expand(difference)
    if expansion is None:
        return None
    numerator, denominator, atoms = expansion
    if not denominator:
        return None
    if not numerator:
        return True
    return None if atoms else False


def expand(e: Expr):
    """``(numerator, denominator, atoms)`` of ``e``, or None on giving up.

    ``atoms`` tells whether the tree holds a function node outside any
    atom's argument.
    """
    try:
        order, terms, generators = _walk(e)
        ring = _Ring(len(generators))
        values = {}
        for node in order:
            values[id(node)] = ring.node(node, values, terms, generators)
    except _GiveUp:
        return None
    numerator, denominator = values[id(e)]
    return numerator, denominator, any(isinstance(g, Fn) for g in generators)


def _walk(e: Expr):
    """The distinct nodes of ``e``, each after its operands, and the generators."""
    terms = {}  # id of a sum -> [(count, summand)]
    generators = {}  # Var or Fn node -> its position in a monomial

    def operands(node):
        if isinstance(node, (Add, Sub)):
            counted = terms[id(node)] = summands([(1, node)])
            return [summand for _, summand in counted]
        return () if isinstance(node, Fn) else node.children()

    order = []
    for node in postorder([e], operands):
        if isinstance(node, (Var, Fn)):
            generators.setdefault(node, len(generators))
            if len(generators) > MAX_GENERATORS:
                raise _GiveUp
        elif isinstance(node, Const) and isinstance(node.value, float):
            raise _GiveUp
        order.append(node)
    return order, terms, generators


class _Ring:
    """Sparse polynomials over ``n`` generators, with the budget left."""

    def __init__(self, n: int):
        self.unit = (0,) * n
        self.one = {self.unit: 1}
        self.left = BUDGET
        # The value of generator k, shared by every node that is that generator.
        self.generators = [
            ({self.unit[:k] + (1,) + self.unit[k + 1 :]: 1}, self.one) for k in range(n)
        ]

    def node(self, node, values, terms, generators):
        """``(numerator, denominator)`` of one node from its operands' values."""
        one = self.one
        if isinstance(node, Const):
            v = node.value
            return ({self.unit: v} if v else {}), one
        if isinstance(node, (Var, Fn)):
            return self.generators[generators[node]]
        if isinstance(node, (Add, Sub)):
            return self.sum((k, values[id(t)]) for k, t in terms[id(node)])
        if isinstance(node, Neg):
            num, den = values[id(node.arg)]
            return {m: -c for m, c in num.items()}, den
        if isinstance(node, Pow):
            num, den = values[id(node.base)]
            n = node.exponent
            if n == 0:  # 1 where the base is defined
                return one, (one if den else {})
            if n < 0:
                num, den, n = den, num, -n
            return self.power(num, n), self.power(den, n)
        left_num, left_den = values[id(node.left)]
        right_num, right_den = values[id(node.right)]
        if isinstance(node, Mul):
            return self.mul(left_num, right_num), self.mul(left_den, right_den)
        if isinstance(node, Div):
            return self.mul(left_num, right_den), self.mul(left_den, right_num)
        raise TypeError(f"not an expression: {node!r}")

    def sum(self, counted):
        """The sum of quotients, each times its integer count; equal
        denominators are not multiplied."""
        # num is built here, never ``one`` itself, so adding into it is safe.
        num, den = {}, self.one
        for k, (n, d) in counted:
            if d != den:
                num = self.mul(num, d)
                n = self.mul(n, den)
                den = self.mul(den, d)
            for m, c in n.items():
                c = num.get(m, 0) + c * k
                if c:
                    num[m] = c
                else:
                    num.pop(m, None)
        return num, den

    def mul(self, p, q):
        """The product ``p*q``: a new dict, or ``p`` or ``q`` when the other is ``one``."""
        if q is self.one:
            return p
        if p is self.one:
            return q
        cost = len(p) * len(q)
        if cost > self.left:
            raise _GiveUp
        self.left -= cost
        out = {}
        get = out.get
        for m1, c1 in p.items():
            for m2, c2 in q.items():
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        return {m: c for m, c in out.items() if c}

    def power(self, p, n: int):
        """``p^n`` for ``n >= 1``."""
        if n == 1 or not p or p is self.one:
            return p
        if len(p) == 1:
            [(m, c)] = p.items()
            if c not in (1, -1) and n * bit_size(c) > MAX_POWER_BITS:
                raise _GiveUp
            return {tuple(k * n for k in m): c**n}
        # p^n has at most C(n + t - 1, t - 1) terms, t the terms of p.
        size, bound = len(p) - 1 + n, 1
        for k in range(1, min(n, len(p) - 1) + 1):
            bound = bound * (size - k + 1) // k
            if bound > self.left:
                raise _GiveUp
        out = p
        for _ in range(n - 1):
            out = self.mul(out, p)
        return out

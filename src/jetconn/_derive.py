"""Derivatives of expression trees, for :func:`jetconn.expr.diff`.

:func:`derivative` differentiates the canonical form ``simplify(e)`` term
by term (Cohen, *Computer Algebra and Symbolic Computation: Elementary
Algorithms*, 2002, ch. 3), in one walk of :func:`~jetconn.expr.postorder`
whose operands are the terms of a sum, the bases of a product's factors
and the operands of a function or quotient; constants and variables are
not walked.  Each node's derivative is a list of terms, (coefficient,
factors) pairs as ``expr._collect`` gives them: a sum's are its terms'
times their counts, and a term c*f1^k1*...*fr^kr gives one for each base fi
that depends on the variable, the product of c*ki, fi^(ki - 1), fi' and the
other factors.  A base, function argument or quotient operand needs its
derivative as a slope: the (count, factor) pairs of one product, multiplied
out only where it is used.  The variable's slope is 1; a sum's or
product's is the ``_sum`` of its terms, as its derivative would simplify
alone; a quotient's or ``ln``'s is the one tree of the quotient rule
through ``_product``, ``_quotient`` and ``_power``; and ``sin``, ``cos`` and
``exp`` put ``cos(a)``, ``-sin(a)`` or ``exp(a)`` in front of their
argument's slope, so a chain of n functions is merged and sorted once, not
n times.  The whole derivative is one ``_sum``, so no binary product-rule
tree is built, and the result depends on ``simplify(e)``, not on how ``e``
was grouped.  ``ln(a)`` and ``a/b`` keep their rule when the inner slopes
are 0, so ``ln(0)`` and ``a/0`` still give the marker ``0/0``.
``simplify(e)`` keeps its result in ``e``'s slot from the first call, so
the m + n derivatives of one entry simplify it once.

A tree with a float constant, as its root's ``_has_float`` flag says,
keeps the binary route, ``simplify(product_rule_tree(e))``: float merges
depend on their order, and
``simplify`` may fold a float away (``1e0*x1`` is ``x1``) whose derivative,
``1.0``, would then print as ``1``.
"""

from __future__ import annotations

from .expr import (
    _MINUS_ONE,
    _SIMPLE,
    Add,
    Const,
    Div,
    Expr,
    Fn,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _coefficient,
    _collect,
    _function,
    _power,
    _product,
    _quotient,
    _set_simple,
    _split,
    _sum,
    postorder,
    simplify,
    summands,
)


def derivative(e: Expr, var: str) -> Expr:
    """The simplified partial derivative of ``e`` with respect to ``var``."""
    if e._has_float:
        return simplify(product_rule_tree(e, var))
    out = _sum((), _derivative_terms(simplify(e), var))
    _set_simple(out, _SIMPLE)
    return out


def _derivative_terms(e: Expr, var: str) -> list:
    """The (coefficient, factors) terms of the derivative of canonical ``e``."""
    d = {}  # id of a node -> the terms of its derivative
    parts = {}  # id of a sum -> its (count, term) pairs; of a term -> (c, factors)
    slopes = {}  # id of a node -> its slope, None for 0
    unit = [(1, Const(1))]

    def operands(node):  # those that are not a constant or a variable
        kind = type(node)
        if kind is Add or kind is Sub:
            pairs = parts[id(node)] = summands([(1, node)])
            nodes = [term for _, term in pairs]
        elif kind is Mul or kind is Neg or kind is Pow:
            consts, factors = _split(node)
            parts[id(node)] = (_coefficient(consts), factors)
            nodes = [f.base if type(f) is Pow else f for f in factors]
        else:
            nodes = node.children()
        return [n for n in nodes if type(n) is not Const and type(n) is not Var]

    def terms(node):
        kind = type(node)
        if kind is Var:
            return [(1, ())] if node.name == var else []
        if kind is Const:
            return []
        key = id(node)
        if key not in d:  # a function or quotient: its slope, multiplied out
            pairs = slopes[key]
            d[key] = [] if pairs is None else [_collect(pairs)[1:]]
        return d[key]

    def slope(node):
        kind = type(node)
        if kind is Var:
            return unit if node.name == var else None
        if kind is Const:
            return None
        key = id(node)
        if key not in slopes:  # a sum or a product: the _sum of its terms
            split = d[key]
            slopes[key] = [(1, _sum((), split))] if split else None
        return slopes[key]

    for node in postorder([e], operands):  # a constant or variable only as the root
        kind = type(node)
        if kind is Var or kind is Const:
            continue
        if kind is Add or kind is Sub:
            d[id(node)] = [(c if k == 1 else k * c, f)
                           for k, t in parts.pop(id(node)) for c, f in terms(t)]
        elif kind is Fn or kind is Div:
            slopes[id(node)] = _rule(node, slope)
        else:  # a term c * f1^k1 * ... * fr^kr
            coeff, factors = parts.pop(id(node))
            out = d[id(node)] = []
            for i, f in enumerate(factors):
                base, k = (f.base, f.exponent) if type(f) is Pow else (f, 1)
                inner = slope(base)
                if inner is unit:  # fi is the variable: fi^(ki - 1) takes its place,
                    # so the factors stay sorted and nothing merges
                    rest = (_power(base, k - 1),) if k != 1 else ()
                    out.append((coeff * k, factors[:i] + rest + factors[i + 1:]))
                elif inner is not None:
                    pairs = [(1, Const(coeff * k)), (1, _power(base, k - 1)), *inner]
                    pairs += [(1, g) for g in factors[:i] + factors[i + 1:]]
                    out.append(_collect(pairs)[1:])
    return terms(e)


def _rule(node, slope):
    """The slope of a function or quotient node from its operands' slopes."""
    if type(node) is Div:
        a, b = node.left, node.right
        da, db = slope(a), slope(b)
        num = [] if da is None else [(1, _product([*da, (1, b)]))]
        if db is not None:
            num.append((-1, _product([(1, a), *db])))
        return _nonzero(_quotient(_sum(num), _power(b, 2)))
    arg, inner = node.arg, slope(node.arg)
    if node.name == "ln":
        return _nonzero(_quotient(Const(0) if inner is None else _product(inner), arg))
    if inner is None:
        return None
    if node.name == "sin":
        return [(1, _function("cos", arg)), *inner]
    if node.name == "cos":
        return [(1, _MINUS_ONE), (1, _function("sin", arg)), *inner]
    return [(1, node), *inner]


def _nonzero(tree: Expr):
    """The slope ``[(1, tree)]``, or None if ``tree`` is the constant 0."""
    return None if type(tree) is Const and tree.value == 0 else [(1, tree)]


def product_rule_tree(e: Expr, var: str) -> Expr:
    """The binary product-rule and chain-rule tree of the derivative of ``e``,
    not simplified: the route of :func:`derivative` for trees with a float
    constant."""
    d = {}  # id of a node -> its derivative
    for node in postorder([e]):
        kind = type(node)
        if kind is Const:
            out = Const(0)
        elif kind is Var:
            out = Const(1 if node.name == var else 0)
        elif kind is Neg:
            out = Neg(d[id(node.arg)])
        elif kind is Add or kind is Sub:
            out = kind(d[id(node.left)], d[id(node.right)])
        elif kind is Mul:
            out = Add(Mul(d[id(node.left)], node.right), Mul(node.left, d[id(node.right)]))
        elif kind is Div:
            num = Sub(Mul(d[id(node.left)], node.right), Mul(node.left, d[id(node.right)]))
            out = Div(num, Pow(node.right, 2))
        elif kind is Pow:
            n, inner = node.exponent, d[id(node.base)]
            out = Mul(Mul(Const(n), Pow(node.base, n - 1)), inner) if n else Const(0)
        else:
            arg, inner = node.arg, d[id(node.arg)]
            if node.name == "sin":
                out = Mul(Fn("cos", arg), inner)
            elif node.name == "cos":
                out = Mul(Neg(Fn("sin", arg)), inner)
            elif node.name == "exp":
                out = Mul(Fn("exp", arg), inner)
            else:  # ln
                out = Div(inner, arg)
        d[id(node)] = out
    return d[id(e)]

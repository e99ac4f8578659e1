"""The exact expansion against sympy, a test-only dependency, as oracle.

Random rational expressions (``Div`` and negative powers included) are
compared in two ways: whether the numerator of ``a - b`` expands to zero
agrees with sympy's ``cancel`` of the difference, and every rewriting of
``a`` by sympy (``expand``, ``cancel``, ``factor``) is proved equal to it.
"""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetconn import simplify
from jetconn import _poly
from jetconn.expr import Add, Const, Div, Mul, Neg, Pow, Sub, Var, expr_sum

sympy = pytest.importorskip("sympy")

NAMES = ("x1", "x2", "y1")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}

constants = st.builds(
    lambda p, q: Const(Fraction(p, q)), st.integers(-4, 4), st.integers(1, 3)
)
leaves = st.one_of(constants, st.sampled_from([Var(name) for name in NAMES]))


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda t: Add(*t)),
        pairs.map(lambda t: Sub(*t)),
        pairs.map(lambda t: Mul(*t)),
        pairs.map(lambda t: Div(*t)),
        children.map(Neg),
        st.tuples(children, st.integers(-2, 3)).map(lambda t: Pow(*t)),
    )


rational_exprs = st.recursive(leaves, _extend, max_leaves=10)


def to_sympy(e):
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return SYMBOLS[e.name]
    if isinstance(e, Neg):
        return -to_sympy(e.arg)
    if isinstance(e, Pow):
        return to_sympy(e.base) ** e.exponent
    left, right = to_sympy(e.left), to_sympy(e.right)
    if isinstance(e, Add):
        return left + right
    if isinstance(e, Sub):
        return left - right
    if isinstance(e, Mul):
        return left * right
    return left / right


def from_sympy(s):
    if s.is_Symbol:
        return Var(s.name)
    if s.is_Rational:
        return Const(Fraction(int(s.p), int(s.q)))
    if s.is_Add:
        return expr_sum(from_sympy(arg) for arg in s.args)
    if s.is_Mul:
        return reduce(Mul, (from_sympy(arg) for arg in s.args))
    if s.is_Pow:
        return Pow(from_sympy(s.base), int(s.exp))
    raise TypeError(f"unexpected sympy node {s!r}")


def defined(s):
    return not s.has(sympy.zoo, sympy.nan, sympy.oo)


@settings(max_examples=150, deadline=None)
@given(rational_exprs, rational_exprs)
def test_zero_numerator_agrees_with_sympy(a, b):
    expansion = _poly.expand(simplify(Sub(a, b)))
    assume(expansion is not None)
    num, den, atoms = expansion
    assert not atoms
    difference = to_sympy(a) - to_sympy(b)
    assume(den and defined(difference))
    assert (not num) == (sympy.cancel(sympy.together(difference)) == 0)


@settings(max_examples=100, deadline=None)
@given(rational_exprs, st.sampled_from(["expand", "cancel", "factor"]))
def test_rewritten_by_sympy_is_equal(a, rewrite):
    s = to_sympy(a)
    assume(defined(s))
    b = from_sympy(getattr(sympy, rewrite)(s))
    expansion = _poly.expand(simplify(Sub(a, b)))
    assume(expansion is not None and expansion[1])
    assert not expansion[0]

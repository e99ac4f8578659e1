"""Outward-rounded interval enclosures of expression values at a point.

:func:`enclose` bounds the exact real value of expressions at a point of
floats by intervals ``(lo, hi)`` of floats (Moore, *Interval Analysis*,
1966; Rump, "Verification methods", *Acta Numerica* 2010):

- every ``+ - * /`` result is moved one step outward with
  :func:`math.nextafter`, which covers its round-to-nearest error;
- a rational constant that is not a double is widened by one step each way;
- an integer power is a chain of squarings and products, rounded as above;
- ``sin``/``cos`` are bounded by ``f(m) ± r`` for the midpoint ``m`` and
  the radius ``r`` of the argument's interval, since |f'| <= 1, and
  clamped to [-1, 1];
- ``exp``/``ln`` are bounded through monotonicity.

Every libm result is assumed within 1 ulp of the exact value and widened by
:data:`LIBM_STEPS` steps each way, which covers 1 ulp in every binade;
``tests/test_enclose.py`` checks the assumption against 50-digit values.

A point is undefined, and :func:`enclose` returns None, when a divisor's
interval holds 0, a ``ln`` argument's reaches <= 0, or a bound is not
finite.

The trees are walked by :func:`jetconn.expr.postorder`, so a shared
subtree is enclosed once and deep trees need no recursion.
"""

from __future__ import annotations

import math

from .expr import Add, Const, Fn, Mul, Neg, Pow, Sub, Var, postorder

LIBM_STEPS = 2  # nextafter steps each way around a libm result
_INF = math.inf


class _Undefined(Exception):
    """The point may be outside the domain, or a bound left double range."""


def _interval(lo, hi):
    if not -_INF < lo <= hi < _INF:  # also refuses NaN
        raise _Undefined
    return lo, hi


def _outward(lo, hi):
    return _interval(math.nextafter(lo, -_INF), math.nextafter(hi, _INF))


def _libm(v):
    """A libm result widened by ``LIBM_STEPS`` steps each way."""
    lo = hi = v
    for _ in range(LIBM_STEPS):
        lo, hi = math.nextafter(lo, -_INF), math.nextafter(hi, _INF)
    return lo, hi


def _const(value):
    v = float(value)  # OverflowError beyond double range
    return (v, v) if v == value else _outward(v, v)


def _mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _outward(min(p), max(p))


def _div(a, b):
    if b[0] <= 0.0 <= b[1]:
        raise _Undefined
    q = (a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1])
    return _outward(min(q), max(q))


def _square(a):
    small, big = sorted((abs(a[0]), abs(a[1])))
    if a[0] <= 0.0 <= a[1]:
        small = 0.0
    return _outward(small * small, big * big)


def _pow(a, n):
    if n < 0:
        return _div((1.0, 1.0), _pow(a, -n))
    out = (1.0, 1.0)
    while n:
        if n & 1:
            out = _mul(out, a)
        n >>= 1
        if n:
            a = _square(a)
    return out


def _periodic(f):
    def bound(a):
        m = 0.5 * a[0] + 0.5 * a[1]
        r = math.nextafter(max(m - a[0], a[1] - m), _INF)
        s_lo, s_hi = _libm(f(m))
        lo, hi = _outward(s_lo - r, s_hi + r)
        return max(-1.0, lo), min(1.0, hi)

    return bound


def _exp(a):
    # math.exp raises OverflowError past double range.
    return _interval(max(_libm(math.exp(a[0]))[0], 0.0), _libm(math.exp(a[1]))[1])


def _ln(a):
    if a[0] <= 0.0:
        raise _Undefined
    return _interval(_libm(math.log(a[0]))[0], _libm(math.log(a[1]))[1])


_FNS = {"sin": _periodic(math.sin), "cos": _periodic(math.cos), "exp": _exp, "ln": _ln}


def enclose(exprs, point):
    """Intervals holding each expression's exact value at ``point``, or None.

    ``point`` maps every free variable to a finite float.  None means the
    point may be undefined for one of the expressions (see the module
    docstring).
    """
    values = {}
    try:
        for node in postorder(exprs):
            kind = type(node)
            if kind is Var:
                v = point[node.name]
                out = v, v
            elif kind is Const:
                out = _const(node.value)
            elif kind is Pow:
                out = _pow(values[id(node.base)], node.exponent)
            elif kind is Fn:
                out = _FNS[node.name](values[id(node.arg)])
            elif kind is Neg:
                a = values[id(node.arg)]
                out = -a[1], -a[0]
            else:
                a, b = values[id(node.left)], values[id(node.right)]
                if kind is Mul:
                    out = _mul(a, b)
                elif kind is Add:
                    out = _outward(a[0] + b[0], a[1] + b[1])
                elif kind is Sub:
                    out = _outward(a[0] - b[1], a[1] - b[0])
                else:  # Div
                    out = _div(a, b)
            values[id(node)] = out
    except (_Undefined, OverflowError):
        return None
    return [values[id(e)] for e in exprs]


def separated(a, b, tol) -> bool:
    """Whether |x - y| > tol*(1 + |x|) for every x in interval ``a`` and y in ``b``.

    This is the negation of the sampling fallback's test at one point.
    """
    # A lower bound of |x - y|, <= 0 when x - y may vanish.  An overflow
    # to inf still bounds it: nextafter steps back to the largest double.
    gap = max(math.nextafter(a[0] - b[1], -_INF), -math.nextafter(a[1] - b[0], _INF))
    size = max(-a[0], a[1])  # upper bound of |x|
    return gap > math.nextafter(tol * math.nextafter(1.0 + size, _INF), _INF)

"""Numeric evaluation and expression equality: proved where it can be, else sampled."""

from __future__ import annotations

import math
import numbers
import random
from functools import lru_cache
from typing import Mapping

from . import _enclose, _poly, _tape
from .errors import EvalError, SamplingError
from .expr import Const, Expr, Fn, Sub, Value, postorder, simplify

SYMBOLIC = "symbolic"
PROBABILISTIC = "probabilistic"

# Sample points are drawn uniformly from [SAMPLE_LOW, SAMPLE_HIGH] per variable.
SAMPLE_LOW = -2.0
SAMPLE_HIGH = 2.0

# Points at which an interval enclosure may prove an inequality.
CERTIFY_POINTS = 4

# Largest sample count of one check, refused before any point is drawn.  It
# bounds time: points are evaluated _CHUNK per call, so memory stays flat.
MAX_SAMPLES = 10**6
_CHUNK = 64


class SamplePolicy(Value):
    """Settings for the certified-inequality and sampling routes of :func:`expr_equal`.

    ``tol`` is an absolute tolerance scaled by 1 + |left value| at each
    point: both routes call two sides unequal only where they differ by
    more.  ``seed`` draws the points of both.  Points where either side
    fails to evaluate (division by zero, ln domain, overflow to non-finite)
    are skipped.  ``points`` is the sample count.  Construction checks both
    settings with :func:`check_sampling`.
    """

    __slots__ = ("points", "tol", "seed")

    def __init__(self, points: int = 64, tol: float = 1e-9, seed: int = 0):
        check_sampling(points, tol)
        super().__init__(points, tol, seed)


def check_sampling(points, tol, names=("points", "tol")) -> None:
    """Raise ``ValueError`` unless ``points`` and ``tol`` are usable.

    ``points`` must be an int from 1 to ``MAX_SAMPLES``, ``tol`` finite
    and >= 0.  ``names`` are what the messages call the two settings.
    """
    if isinstance(points, bool) or not isinstance(points, numbers.Integral) or points < 1:
        raise ValueError(f"{names[0]} must be a positive integer")
    if points > MAX_SAMPLES:
        raise ValueError(f"{names[0]} must be at most {MAX_SAMPLES}")
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < math.inf:
        raise ValueError(f"{names[1]} must be a finite number >= 0")


class EqualityResult(Value):
    """Verdict of an equality check plus how it was reached.

    ``confidence`` is "symbolic" when the verdict is proved: exactly (the
    difference simplified to a constant, or its expansion over Q settled
    it), or by a verified enclosure (an outward-rounded interval
    evaluation showed the two sides apart at one point).  It is
    "probabilistic" when random sampling decided.
    """

    __slots__ = ("equal", "confidence")

    def __bool__(self) -> bool:
        return self.equal


@lru_cache(maxsize=512)
def _single_program(e: Expr) -> _tape.Program:
    return _tape.compile_program([e], tuple(sorted(e.free_vars())))


def sample_rows(program: _tape.Program, points: int, seed: int):
    """Yield ``(rows, *program.rows(rows))`` for ``points`` points, _CHUNK at a time.

    Each coordinate is drawn uniformly from [SAMPLE_LOW, SAMPLE_HIGH] by
    ``random.Random(seed)``, point after point.
    """
    # What Random.uniform computes, without its call per coordinate.
    draw, span = random.Random(seed).random, SAMPLE_HIGH - SAMPLE_LOW
    for first in range(0, points, _CHUNK):
        rows = [[SAMPLE_LOW + span * draw() for _ in program.var_names]
                for _ in range(min(_CHUNK, points - first))]
        yield (rows, *program.rows(rows))


def eval_expr(e: Expr, assignment: Mapping[str, float]) -> float:
    """Evaluate one expression at one point, IEEE double semantics.

    The assignment must cover every free variable; extra entries are
    ignored.  Division by zero and ln of a non-positive argument raise
    :class:`EvalError`.
    """
    prog = _single_program(e)
    try:
        point = [float(assignment[name]) for name in prog.var_names]
    except KeyError as missing:
        raise EvalError(f"missing value for variable {missing.args[0]!r}") from None
    values, status = prog.rows((point,))
    if status[0]:
        raise EvalError(_tape.STATUS_MESSAGES[status[0]])
    return values[0]


def _holds_atom(e: Expr) -> bool:
    # An atom has no operands on this walk, so the first one met ends it.
    walk = postorder([e], lambda node: () if isinstance(node, Fn) else node.children())
    return any(isinstance(node, Fn) for node in walk)


def _certified_unequal(a: Expr, b: Expr, policy: SamplePolicy) -> bool:
    """Whether enclosures at one of ``CERTIFY_POINTS`` seeded points prove a != b.

    Proved means |a - b| > tol*(1 + |a|) for every value in the two
    enclosures, the negation of the sampling route's test at that point.
    """
    names = sorted(a.free_vars() | b.free_vars())
    rng = random.Random(policy.seed)
    for _ in range(CERTIFY_POINTS):
        point = {name: rng.uniform(SAMPLE_LOW, SAMPLE_HIGH) for name in names}
        intervals = _enclose.enclose((a, b), point)
        if intervals is not None and _enclose.separated(*intervals, policy.tol):
            return True
    return False


def expr_equal(a: Expr, b: Expr, policy: SamplePolicy = None) -> EqualityResult:
    """Decide a = b, meaning equal wherever both sides are defined.

    Five routes, in order.  Two float-free sides of equal structure are
    equal at once, as simplify(a - b) would find; floats take the routes
    below, since ``Const(2) == Const(2.0)``.  simplify(a - b) collapsing to
    a constant decides.  Otherwise, when the difference holds a
    sin/cos/exp/ln atom, outward-rounded interval enclosures of a and b at
    up to ``CERTIFY_POINTS`` points drawn from ``random.Random(policy.seed)``
    may prove them apart by more than ``policy.tol`` scales to (see
    :mod:`jetconn._enclose`).  Next :func:`jetconn._poly.decide` expands
    the difference exactly over Q: a zero numerator proves equality, a
    nonzero one proves inequality when the difference holds no atom.  These
    four are symbolic.  Anything else (an identity through atoms, a float
    constant, a denominator that expands to 0, an expansion over its
    budget) is sampled: both sides are evaluated on ``policy.points``
    points of :func:`sample_rows` and compared within the scaled tolerance
    wherever both are finite; :class:`SamplingError` when they are nowhere.
    """
    if not (a._has_float or b._has_float) and a == b:
        return EqualityResult(True, SYMBOLIC)
    difference = simplify(Sub(a, b))
    if isinstance(difference, Const):
        return EqualityResult(difference.value == 0, SYMBOLIC)
    if policy is None:
        policy = SamplePolicy()
    if _holds_atom(difference) and _certified_unequal(a, b, policy):
        return EqualityResult(False, SYMBOLIC)
    exact = _poly.decide(difference)
    if exact is not None:
        return EqualityResult(exact, SYMBOLIC)

    program = _tape.compile_program([a, b], sorted(a.free_vars() | b.free_vars()))
    regular = failed = False
    for _, values, status in sample_rows(program, policy.points, policy.seed):
        failed = failed or any(status)
        for left, right in zip(values[::2], values[1::2]):
            if math.isfinite(left) and math.isfinite(right):  # a failed slot holds NaN
                regular = True
                if not abs(left - right) <= policy.tol * (1.0 + abs(left)):
                    return EqualityResult(False, PROBABILISTIC)
    if not regular:
        why = "defined" if failed else "finite: they overflowed at every sample point"
        raise SamplingError(f"equality sampling found no point where both sides are {why}")
    return EqualityResult(True, PROBABILISTIC)

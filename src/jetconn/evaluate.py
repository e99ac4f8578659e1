"""Numeric evaluation and expression equality: exact where it can be, else sampled."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from . import _poly
from ._tape import STATUS_MESSAGES, Program, compile_program
from .errors import EvalError, SamplingError
from .expr import Const, Expr, Sub, simplify

SYMBOLIC = "symbolic"
PROBABILISTIC = "probabilistic"

# Sample points are drawn uniformly from [SAMPLE_LOW, SAMPLE_HIGH] per variable.
SAMPLE_LOW = -2.0
SAMPLE_HIGH = 2.0

# Largest sample count of one check.  Every point is a row of floats held
# at once, so a count is refused before any point is drawn.
MAX_SAMPLES = 10**6


@dataclass(frozen=True)
class SamplePolicy:
    """Settings for the probabilistic equality fallback.

    ``tol`` is an absolute tolerance scaled by 1 + |left value| at each
    sample point.  Points where either side fails to evaluate (division by
    zero, ln domain, overflow to non-finite) are skipped.  Construction
    checks both settings with :func:`check_sampling`.
    """

    points: int = 64
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        check_sampling(self.points, self.tol)


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


@dataclass(frozen=True)
class EqualityResult:
    """Verdict of an equality check plus how it was reached.

    ``confidence`` is "symbolic" when exact arithmetic decided: the
    difference simplified to a constant, or its expansion over Q settled
    it.  It is "probabilistic" when random sampling decided.
    """

    equal: bool
    confidence: str

    def __bool__(self) -> bool:
        return self.equal


@lru_cache(maxsize=512)
def _single_program(e: Expr) -> Program:
    return compile_program([e], tuple(sorted(e.free_vars())))


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
        raise EvalError(STATUS_MESSAGES[status[0]])
    return values[0]


def expr_equal(a: Expr, b: Expr, policy: SamplePolicy = None) -> EqualityResult:
    """Decide a = b, meaning equal wherever both sides are defined.

    Three routes, in order.  simplify(a - b) collapsing to a constant
    decides.  Otherwise :func:`jetconn._poly.decide` expands the difference
    exactly over Q: a zero numerator proves equality, a nonzero one proves
    inequality when the difference holds no sin/cos/exp/ln atom.  Both are
    symbolic, and ``policy`` plays no part in them.  Anything else (an
    identity through atoms, a float constant, a denominator that expands
    to 0, an expansion over its budget) is sampled: both sides are
    evaluated on ``policy.points`` uniform random points per variable and
    compared within the scaled tolerance; raises :class:`SamplingError`
    when every sample point was singular.  Only this route imports numpy.
    """
    difference = simplify(Sub(a, b))
    if isinstance(difference, Const):
        return EqualityResult(difference.value == 0, SYMBOLIC)
    exact = _poly.decide(difference)
    if exact is not None:
        return EqualityResult(exact, SYMBOLIC)

    import numpy as np

    if policy is None:
        policy = SamplePolicy()
    names = tuple(sorted(a.free_vars() | b.free_vars()))
    program = compile_program([a, b], names)
    rng = np.random.default_rng(policy.seed)
    points = rng.uniform(SAMPLE_LOW, SAMPLE_HIGH, size=(policy.points, len(names)))
    values, status = program(points)
    regular = (status == 0).all(axis=1) & np.isfinite(values).all(axis=1)
    if not regular.any():
        raise SamplingError(
            "equality sampling found no point where both sides are defined"
        )
    left = values[regular, 0]
    right = values[regular, 1]
    threshold = policy.tol * (1.0 + np.abs(left))
    return EqualityResult(bool(np.all(np.abs(left - right) <= threshold)), PROBABILISTIC)

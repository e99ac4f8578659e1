"""Compiled programs and the evaluation kernel.

The kernel is checked against a reference that walks the expression tree
with :mod:`math` and gives C's results where :mod:`math` raises.  Both must
agree bit for bit and in status on every input: guarded failures travel
through the status plane, never through exceptions.
"""

import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetconn import (
    PROBABILISTIC,
    EvalError,
    SamplePolicy,
    SymbolUniverse,
    TwoFoldConnection,
    expr_equal,
    parse_expr,
    twofold_dual_coframe,
    twofold_universe,
)
from jetconn._tape import STATUS_DIV_BY_ZERO, STATUS_LN_DOMAIN, compile_program
from jetconn.evaluate import MAX_SAMPLES, check_sampling, sample_rows
from jetconn.expr import Add, Const, Div, Fn, Mul, Neg, Pow, Sub, Var

from conftest import random_expr

U = SymbolUniverse(2, 1)
NAMES = ("x1", "x2", "y1")
ROOT = pathlib.Path(__file__).resolve().parent.parent


class Guarded(Exception):
    def __init__(self, status):
        self.status = status


def _c_call(fn, x):
    # C returns nan for sin/cos of an infinity and inf when exp overflows.
    try:
        return fn(x)
    except ValueError:
        return math.nan
    except OverflowError:
        return math.inf


def _c_pow(x, n):
    try:
        return math.pow(x, n)
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def reference(e, env):
    """Value of ``e`` at ``env``, operands left to right as the program runs them."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -reference(e.arg, env)
    if isinstance(e, (Add, Sub, Mul, Div)):
        left = reference(e.left, env)
        right = reference(e.right, env)
        if isinstance(e, Add):
            return left + right
        if isinstance(e, Sub):
            return left - right
        if isinstance(e, Mul):
            return left * right
        if right == 0.0:
            raise Guarded(STATUS_DIV_BY_ZERO)
        return left / right
    if isinstance(e, Pow):
        base = reference(e.base, env)
        if e.exponent < 0 and base == 0.0:
            raise Guarded(STATUS_DIV_BY_ZERO)
        return _c_pow(base, e.exponent)
    x = reference(e.arg, env)
    if e.name == "ln":
        if x <= 0.0:
            raise Guarded(STATUS_LN_DOMAIN)
        return math.log(x)
    fn = {"sin": math.sin, "cos": math.cos, "exp": math.exp}[e.name]
    return _c_call(fn, x)


def reference_batch(exprs, points):
    values = np.empty((len(points), len(exprs)))
    status = np.zeros((len(points), len(exprs)), dtype=np.uint8)
    for r, point in enumerate(points):
        env = dict(zip(NAMES, (float(v) for v in point)))
        for c, e in enumerate(exprs):
            try:
                values[r, c] = reference(e, env)
            except Guarded as g:
                values[r, c] = math.nan
                status[r, c] = g.status
    return values, status


def assert_matches_reference(exprs, points):
    """Evaluate through the kernel; return its (values, status)."""
    pts = np.asarray(points, dtype=np.float64)
    values, status = compile_program(exprs, NAMES)(pts)
    ref_values, ref_status = reference_batch(exprs, pts)
    assert np.array_equal(status, ref_status)
    # nan != nan, so compare bit patterns
    assert np.array_equal(values.view(np.uint64), ref_values.view(np.uint64))
    return values, status


class TestParity:
    @given(st.integers(min_value=0, max_value=20000))
    @settings(max_examples=250, deadline=None)
    def test_kernel_matches_reference(self, seed):
        gen = np.random.default_rng(seed)
        exprs = [random_expr(gen, NAMES) for _ in range(3)]
        pts = gen.uniform(-3, 3, size=(8, 3)).tolist()
        # integer points hit exact zeros of divisors and ln arguments
        pts += gen.integers(-2, 3, size=(4, 3)).astype(float).tolist()
        assert_matches_reference(exprs, pts)

    def test_singular_points(self):
        exprs = [
            parse_expr("1/x1", U),
            parse_expr("ln(x1)", U),
            parse_expr("x1^-1", U),
        ]
        pts = [[0.0, 1.0, 1.0], [-2.0, 1.0, 1.0], [3.0, 1.0, 1.0]]
        _, status = assert_matches_reference(exprs, pts)
        assert status[0, 0] == STATUS_DIV_BY_ZERO
        assert status[1, 1] == STATUS_LN_DOMAIN
        assert status[0, 2] == STATUS_DIV_BY_ZERO  # 0^-1 guarded like division

    def test_overflow_matches_c_semantics(self):
        # C returns inf (or nan) where Python's math module raises
        exprs = [parse_expr(s, U) for s in ("exp(x1)", "x1^401", "sin(x2)")]
        pts = [[1000.0, math.inf, 0.0], [-10.0, 0.0, 0.0]]
        values, status = assert_matches_reference(exprs, pts)
        assert not status.any()
        assert values[0, 0] == math.inf
        assert values[1, 1] == -math.inf
        assert math.isnan(values[0, 2])


class TestProgram:
    def test_segment_values(self):
        prog = compile_program(
            [parse_expr("x1 + x2", U), parse_expr("x1*x2", U)], ("x1", "x2")
        )
        values, status = prog(np.array([[2.0, 3.0], [4.0, 5.0]]))
        assert values.tolist() == [[5.0, 6.0], [9.0, 20.0]]
        assert not status.any()

    def test_one_dim_point_reshaped(self):
        prog = compile_program([parse_expr("x1^2", U)], ("x1",))
        values, _ = prog(np.array([3.0]))
        assert values.tolist() == [[9.0]]

    def test_wrong_width_rejected(self):
        prog = compile_program([parse_expr("x1", U)], ("x1", "x2"))
        with pytest.raises(EvalError):
            prog(np.zeros((4, 3)))

    def test_unbound_variable_rejected(self):
        with pytest.raises(EvalError):
            compile_program([parse_expr("y1", U)], ("x1",))


class TestSamplePolicy:
    def test_hidden_zero_is_equal_by_default(self):
        u = SymbolUniverse(2, 0)
        left = parse_expr("(x1+x2)^2 - x1^2 - 2*x1*x2", u)
        assert expr_equal(left, parse_expr("x2^2", u), SamplePolicy()).equal

    @pytest.mark.parametrize(
        "settings, message",
        [({"points": 0}, "points must be a positive integer"),
         ({"points": -2}, "points must be a positive integer"),
         ({"points": True}, "points must be a positive integer"),
         ({"tol": -1.0}, "tol must be a finite number >= 0"),
         ({"tol": math.nan}, "tol must be a finite number >= 0"),
         ({"tol": math.inf}, "tol must be a finite number >= 0")],
    )
    def test_settings_checked_at_construction(self, settings, message):
        # A negative or NaN tolerance would make every sampled identity unequal.
        with pytest.raises(ValueError, match=f"^{message}$"):
            SamplePolicy(**settings)

    def test_count_bounded(self):
        assert SamplePolicy(points=MAX_SAMPLES).points == MAX_SAMPLES
        with pytest.raises(ValueError, match=f"^points must be at most {MAX_SAMPLES}$"):
            SamplePolicy(points=MAX_SAMPLES + 1)
        with pytest.raises(ValueError, match=f"^--samples must be at most {MAX_SAMPLES}$"):
            check_sampling(MAX_SAMPLES + 1, 0.0, ("--samples", "--tol"))

    def test_numpy_integer_count_accepted(self):
        assert SamplePolicy(points=np.int64(3)).points == 3

    def test_sample_rows_draws_seeded_points_in_chunks(self):
        program = compile_program([parse_expr("x1 + x2", U)], ("x1", "x2"))
        chunks = list(sample_rows(program, 130, 5))
        assert [len(rows) for rows, _, _ in chunks] == [64, 64, 2]
        rng = random.Random(5)
        points = [row for rows, _, _ in chunks for row in rows]
        assert points == [[rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)] for _ in range(130)]
        assert [v for _, values, _ in chunks for v in values] == [x + y for x, y in points]


def _twofold_check(points):
    u = twofold_universe((1, 1, 1, 1))
    one = lambda s: ((parse_expr(s, u),),)
    c = TwoFoldConnection((1, 1, 1, 1), one("v1"), one("w1*u1"), one("z1"), one("w1"), one("0"))
    twofold_dual_coframe(c, points=points)


def _sampled_equality(points):
    u = SymbolUniverse(1, 0)
    left = parse_expr("sin(x1)^2 + cos(x1)^2", u)
    result = expr_equal(left, Const(1), SamplePolicy(points=points))
    assert (result.equal, result.confidence) == (True, PROBABILISTIC)


@pytest.mark.parametrize("check", [_twofold_check, _sampled_equality])
def test_sampled_check_memory_is_flat_in_points(check):
    # Points are drawn and evaluated a chunk at a time, so the traced peak
    # of a check does not grow with its point count.
    def peak(points):
        check(1)  # loads what the first call loads
        tracemalloc.start()
        try:
            check(points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1_000), peak(20_000)
    assert large < 1.5 * small, (small, large)


def test_bench_kernel_runs():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    out = subprocess.run(
        [sys.executable, "benchmarks/bench_kernel.py",
         "--points", "200", "--steps", "200", "--repeat", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "start-up, validate, median of 5 processes" in out.stdout

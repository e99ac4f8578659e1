"""Single-row evaluation against the batch call of the same program.

``Program.row`` must equal ``Program.__call__`` slot for slot, in values
(bit for bit, NaN included) and in status.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetconn import EvalError, SymbolUniverse, parse_expr
from jetconn._tape import STATUS_DIV_BY_ZERO, STATUS_LN_DOMAIN, compile_program

from conftest import random_expr

NAMES = ("x1", "x2", "y1")
U = SymbolUniverse(2, 1)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def assert_rows_match_batch(prog, points):
    batch_values, batch_status = prog(np.asarray(points, dtype=np.float64))
    for p, point in enumerate(points):
        values, status = prog.row(list(point))
        assert type(values) is list and type(status) is list
        assert status == batch_status[p].tolist()
        assert bits(values) == bits(batch_values[p])


@given(st.integers(min_value=0, max_value=20000))
@settings(max_examples=200, deadline=None)
def test_row_equals_batch_on_random_programs(seed):
    gen = np.random.default_rng(seed)
    prog = compile_program([random_expr(gen, NAMES) for _ in range(4)], NAMES)
    points = gen.uniform(-3, 3, size=(6, 3)).tolist()
    # integer points hit exact zeros of divisors and ln arguments
    points += gen.integers(-2, 3, size=(6, 3)).astype(float).tolist()
    assert_rows_match_batch(prog, points)


def test_row_equals_batch_across_blocks():
    # The kernel converts a batch to and from numpy in blocks of rows.
    gen = np.random.default_rng(7)
    prog = compile_program([random_expr(gen, NAMES) for _ in range(3)], NAMES)
    points = gen.integers(-3, 4, size=(700, 3)).astype(float).tolist()
    assert_rows_match_batch(prog, points)


def test_row_equals_batch_on_singular_points():
    exprs = ["1/x1", "ln(x1)", "x1^-1", "ln(x2) + 1/x1", "exp(x1)", "sin(x2)*y1"]
    prog = compile_program([parse_expr(e, U) for e in exprs], NAMES)
    points = [
        [0.0, 1.0, 1.0],
        [-2.0, 0.0, 1.0],
        [3.0, -1.0, 2.0],
        [1000.0, math.inf, 0.5],
        [math.nan, 2.0, -1.0],
    ]
    assert_rows_match_batch(prog, points)
    values, status = prog.row(points[0])
    assert status[:3] == [STATUS_DIV_BY_ZERO, STATUS_LN_DOMAIN, STATUS_DIV_BY_ZERO]
    assert all(math.isnan(v) for v in values[:3])
    _, status = prog.row(points[1])
    assert status[3] == STATUS_LN_DOMAIN  # the first failure of the slot wins
    values, _ = prog.row(points[3])
    assert values[4] == math.inf


def test_row_checks_width():
    prog = compile_program([parse_expr("x1", U)], ("x1", "x2"))
    with pytest.raises(EvalError, match="expects 2 variables"):
        prog.row([1.0, 2.0, 3.0])

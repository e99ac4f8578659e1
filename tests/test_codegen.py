"""The generated straight-line functions at the edges of the compiler.

Each program is checked against the tree-walking reference of
``test_kernel`` bit for bit and in status, through the batch call and
through ``Program.rows``.  The compiler walks trees with an explicit stack,
so sums far deeper than the interpreter's recursion limit compile.
"""

import json
import math
import sys
import textwrap
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from jetconn import SymbolUniverse, _tape, kernel, parse_expr
from jetconn._tape import STATUS_DIV_BY_ZERO, STATUS_LN_DOMAIN, compile_program
from jetconn.cli import main
from jetconn.expr import Add, Const, Div, Fn, Mul, Neg, Pow, Sub, Var

from test_kernel import Guarded, reference

NAMES = ("x1", "x2", "y1")
U = SymbolUniverse(2, 1)
X = Var("x1")
INT_MAX = 2**31 - 1


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def expected(exprs, names, points, exact=None):
    """Reference values and status; ``exact`` stands in for trees at evaluation."""
    values, status = [], []
    for point in points:
        env = dict(zip(names, point))
        for e in exprs:
            try:
                values.append(reference(exact.get(e, e) if exact else e, env))
                status.append(0)
            except Guarded as g:
                values.append(math.nan)
                status.append(g.status)
    return values, status


def assert_generated_matches(exprs, names, points, exact=None):
    prog = compile_program(exprs, names)
    ref_values, ref_status = expected(exprs, names, points, exact)
    values, status = prog(np.asarray(points, dtype=np.float64).reshape(len(points), len(names)))
    assert values.shape == status.shape == (len(points), len(exprs))
    assert bits(values.ravel()) == bits(ref_values)
    assert status.ravel().tolist() == ref_status
    rows = [prog.rows([list(point)]) for point in points]
    assert bits([v for row, _ in rows for v in row]) == bits(ref_values)
    assert [s for _, row in rows for s in row] == ref_status
    return values, status


class TestEdges:
    def test_no_variables(self):
        exprs = [Const(3), Add(Const(Fraction(1, 3)), Const(2.5)), Fn("ln", Const(0))]
        _, status = assert_generated_matches(exprs, (), [[], []])
        assert status.tolist() == [[0, 0, STATUS_LN_DOMAIN]] * 2

    def test_no_expressions(self):
        values, _ = assert_generated_matches([], NAMES, [[1.0, 2.0, 3.0]] * 4)
        assert values.shape == (4, 0)
        assert compile_program([], NAMES).rows([[1.0, 2.0, 3.0]]) == ([], [])

    def test_signed_zero_and_extreme_constants(self):
        huge = Const(Fraction(10) ** 400)  # beyond double range: inf in the program
        exprs = [Const(0.0), Const(-0.0), Mul(Const(-0.0), X), Const(1e308),
                 Mul(Const(1e308), X), huge, Neg(huge), Sub(huge, huge)]
        exact = {huge: Pow(Const(10), 400)}
        exact[Neg(huge)] = Neg(exact[huge])
        exact[Sub(huge, huge)] = Sub(exact[huge], exact[huge])
        values, _ = assert_generated_matches(
            exprs, ("x1",), [[2.0], [-0.0], [math.inf]], exact)
        assert bits([values[0, 1]]) == bits([-0.0])
        assert values[0, 5] == math.inf and values[0, 6] == -math.inf
        assert bits(compile_program(exprs, ("x1",)).consts) == bits([0.0, -0.0, 1e308, math.inf])

    @pytest.mark.parametrize("n", [INT_MAX, -INT_MAX])
    def test_extreme_exponents(self, n):
        exprs = [Pow(X, n), Pow(Add(X, Const(1)), n)]
        points = [[1.0], [-1.0], [0.0], [2.0], [0.5], [-0.0], [math.nan]]
        assert_generated_matches(exprs, ("x1",), points)

    def test_failed_expression_leaves_the_next_alone(self):
        exprs = [parse_expr(s, U) for s in ("ln(x1) + 1/x2", "x1 + x2", "1/x2", "x1^-3")]
        points = [[0.0, 0.0, 0.0], [-1.0, 2.0, 0.0], [1.0, 0.0, 0.0]]
        values, status = assert_generated_matches(exprs, NAMES, points)
        assert status.tolist() == [
            [STATUS_LN_DOMAIN, 0, STATUS_DIV_BY_ZERO, STATUS_DIV_BY_ZERO],
            [STATUS_LN_DOMAIN, 0, 0, 0],
            [STATUS_DIV_BY_ZERO, 0, STATUS_DIV_BY_ZERO, 0],
        ]
        assert values[:, 1].tolist() == [0.0, 1.0, 1.0]

    def test_a_leaf_emits_no_statement(self, monkeypatch):
        sources = []

        def capture(source, *args):
            sources.append(source)
            return compile(source, *args)

        monkeypatch.setattr(_tape, "compile", capture, raising=False)
        exprs = [parse_expr(s, U) for s in ("x1*x2 + 3", "x1", "1/y1")]
        compile_program(exprs, NAMES)
        # v1 = x0: a whole expression that is one leaf; only 1/y1 is guarded.
        assert sources == [textwrap.dedent("""\
            def run(rows):
                [c0, c1] = _consts
                values = []
                status = []
                put_values = values.extend
                put_status = status.extend
                for [x0, x1, x2] in rows:
                    s0 = x0 * x1
                    v0 = s0 + c0
                    v1 = x0
                    t2 = 0
                    while True:
                        if x2 == 0.0: v2 = _nan; t2 = 1; break
                        v2 = c1 / x2
                        break
                    put_values((v0, v1, v2, ))
                    put_status((0, 0, t2, ))
                return values, status""")]
        assert_generated_matches(exprs, NAMES, [[1.0, 2.0, 0.0], [-0.5, 3.0, 4.0]])

    def test_right_nested_chain_needs_a_slot_per_level(self):
        chain = X
        for k in range(1000):
            chain = (Add, Mul, Sub, Div)[k % 4](Const(1 + k % 3), chain)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + 2000)  # the reference recurses
        try:
            assert_generated_matches([chain], ("x1",), [[0.5], [0.0], [-3.0]])
        finally:
            sys.setrecursionlimit(limit)


class TestIterativeCompile:
    @pytest.mark.parametrize("n_terms", [1000, 10_000])
    def test_long_sum_is_a_left_fold(self, n_terms):
        coeffs = [float(k) / 7 for k in range(1, n_terms + 1)]
        total = Mul(Const(coeffs[0]), X)
        for c in coeffs[1:]:
            total = Add(total, Mul(Const(c), X))
        prog = compile_program([total], ("x1",))
        assert len(prog.code) == 4 * n_terms - 1
        for x in (0.3, -1.7, 1e300):
            values, status = prog.rows([[x]])
            assert status == [0]
            assert bits(values) == bits([reduce(lambda acc, c: acc + c * x, coeffs[1:], coeffs[0] * x)])


class TestTracerContract:
    """What an outside profiler relies on: ops per entry, the lookup, shapes."""

    def test_one_code_entry_per_op(self):
        exprs = [parse_expr(s, U) for s in ("x1 + sin(x2)", "y1^-2", "3")]
        prog = compile_program(exprs, NAMES)
        ops = sum(1 for e in exprs for _ in walk_nodes(e))
        assert len(prog.code) == ops
        assert prog.n_exprs == len(exprs)

    def test_batches_go_through_active(self, monkeypatch):
        calls = []
        original = kernel.active

        def counting(name=None):
            evaluator = original(name)

            def counted(*args):
                calls.append(len(args))
                return evaluator(*args)

            return counted

        monkeypatch.setattr(kernel, "active", counting)
        prog = compile_program([parse_expr(s, U) for s in ("x1*x2", "1/y1")], NAMES)
        values, status = prog(np.ones((5, 3)))
        assert len(calls) == 1
        assert values.shape == status.shape == (5, 2)
        prog.rows([[1.0, 1.0, 1.0]] * 5)  # list rows skip the batch evaluator
        assert len(calls) == 1


def walk_nodes(e):
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def test_transport_on_a_thousand_term_sum(tmp_path, capsys, sample_dir):
    # F sums to 0.5005*x1*y1; along x1 = t, y = exp(0.25025 t^2).
    terms = " + ".join(f"{k}e-6*x1*y1" for k in range(1, 1001))
    conn = tmp_path / "long.json"
    conn.write_text(
        json.dumps({"order": 1, "base_dim": 1, "fiber_dim": 1, "F": [[terms]]}),
        encoding="utf-8",
    )
    curve = sample_dir / "curve_unit.json"
    code = main(["transport", "1", str(conn), str(curve), "--y0", "1", "--steps", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert float(out.splitlines()[-1].split(",")[1]) == pytest.approx(math.exp(0.25025), rel=1e-7)

"""Transport integrators: exact solutions, convergence, holonomy."""

import math
import tracemalloc

import numpy as np
import pytest

from jetconn import (
    AffineConnection,
    Connection1,
    Curve,
    CURVE_UNIVERSE,
    DimensionMismatchError,
    SymbolUniverse,
    TransportError,
    affine_to_general,
    ehresmann_prolongation,
    loop_holonomy,
    parse_expr,
    second_order_ode,
    transport1,
    transport2,
)
from jetconn import _tape
from jetconn._tape import compile_program
from jetconn.expr import Add, Const, Mul
from jetconn.transport import MAX_STEPS

from conftest import poly_expr, random_connection1

T = CURVE_UNIVERSE.var("t")


def curve_of(strings, t0, t1):
    comps = tuple(parse_expr(s, CURVE_UNIVERSE) for s in strings)
    return Curve(len(comps), comps, t0, t1)


def polar_affine():
    u = SymbolUniverse(2, 2)
    P = lambda s: parse_expr(s, u)
    zero = Const(0)
    chris = (
        ((zero, zero), (zero, P("-x1"))),
        ((zero, P("1/x1")), (P("1/x1"), zero)),
    )
    return affine_to_general(AffineConnection(2, chris))


class TestCurve:
    def test_component_count_checked(self):
        with pytest.raises(DimensionMismatchError):
            Curve(2, (T,), 0.0, 1.0)

    def test_only_t_allowed(self):
        u = SymbolUniverse(1, 1)
        with pytest.raises(ValueError, match="x1"):
            Curve(1, (parse_expr("x1", u),), 0.0, 1.0)

    def test_interval_ordering(self):
        with pytest.raises(ValueError, match="t0 < t1"):
            Curve(1, (T,), 1.0, 1.0)

    def test_reversed_swaps_trace(self):
        c = curve_of(("t^2",), 0.0, 2.0)
        r = c.reversed()
        assert r.t0 == 0.0 and r.t1 == 2.0
        # r(0) = c(2), r(2) = c(0)
        from jetconn import eval_expr

        assert eval_expr(r.components[0], {"t": 0.0}) == pytest.approx(4.0)
        assert eval_expr(r.components[0], {"t": 2.0}) == pytest.approx(0.0)


class TestTransport1:
    def test_zero_connection_is_constant(self):
        u = SymbolUniverse(2, 2)
        g = Connection1(u, ((Const(0), Const(0)), (Const(0), Const(0))))
        c = curve_of(("t", "t^2"), 0.0, 1.0)
        res = transport1(g, c, (1.25, -3.0), 50)
        assert res.values == ((1.25, -3.0),) * 51
        assert res.rhs_evaluations == 200

    def test_initial_row_bit_exact(self):
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((u.y(1),),))
        res = transport1(g, curve_of(("t",), 0.0, 1.0), (0.7,), 10)
        assert res.values[0][0] == 0.7

    def test_exponential_growth(self):
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((u.y(1),),))
        res = transport1(g, curve_of(("t",), 0.0, 1.0), (1.0,), 100)
        assert abs(res.values[-1][0] - math.e) < 1e-7

    def test_linearity_in_initial_value(self):
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((u.y(1),),))
        c = curve_of(("t",), 0.0, 1.0)
        one = transport1(g, c, (1.0,), 64)
        two = transport1(g, c, (2.0,), 64)
        assert two.values[-1][0] == pytest.approx(2 * one.values[-1][0], rel=1e-13)

    def test_convergence_ratio_is_fourth_order(self):
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((u.y(1),),))
        c = curve_of(("t",), 0.0, 1.0)
        errs = [
            abs(transport1(g, c, (1.0,), s).values[-1][0] - math.e)
            for s in (25, 50)
        ]
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_round_trip_reversal(self):
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((parse_expr("sin(x1)*y1", u),),))
        c = curve_of(("t",), 0.0, 1.0)
        fwd = transport1(g, c, (1.5,), 400)
        back = transport1(g, c.reversed(), fwd.values[-1], 400)
        assert abs(back.values[-1][0] - 1.5) < 1e-7

    def test_winding_circle_returns_to_start(self):
        # the unit circle parameterized by angle: transported components
        # rotate with period 2*pi, so a full turn is the identity
        g = polar_affine()
        c = curve_of(("1", "t"), 0.0, 2 * math.pi)
        res = transport1(g, c, (1.0, 0.0), 2000)
        assert max(abs(v - w) for v, w in zip(res.values[-1], (1.0, 0.0))) < 1e-8
        quarter = transport1(
            g, curve_of(("1", "t"), 0.0, math.pi / 2), (1.0, 0.0), 500
        )
        assert quarter.values[-1] == pytest.approx((0.0, -1.0), abs=1e-9)

    def test_singular_coefficient_names_time(self):
        g = polar_affine()
        c = curve_of(("t", "1"), -1.0, 1.0)
        with pytest.raises(TransportError, match=r"division by zero at t ="):
            transport1(g, c, (1.0, 0.0), 4)

    def test_shape_mismatches(self):
        u = SymbolUniverse(2, 1)
        g = Connection1(u, ((Const(0), Const(0)),))
        good = curve_of(("t", "t"), 0.0, 1.0)
        with pytest.raises(DimensionMismatchError, match="curve dimension"):
            transport1(g, curve_of(("t",), 0.0, 1.0), (1.0,), 5)
        with pytest.raises(DimensionMismatchError, match="length 1"):
            transport1(g, good, (1.0, 2.0), 5)
        with pytest.raises(ValueError, match="positive integer"):
            transport1(g, good, (1.0,), 0)

    @pytest.mark.parametrize("y0", [1.0, ((1.0,),), np.ones((1, 1)), ("1",), ()])
    def test_initial_value_must_be_a_vector_of_numbers(self, y0):
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((Const(0),),))
        message = "^initial fiber value must have length 1$"
        with pytest.raises(DimensionMismatchError, match=message):
            transport1(g, curve_of(("t",), 0.0, 1.0), y0, 5)

    def test_results_are_tuples_of_floats(self):
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((u.y(1),),))
        res = transport1(g, curve_of(("t",), 0.0, 1.0), np.array([1]), 4)
        assert type(res.times) is tuple and type(res.values) is tuple
        assert res.times == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert all(type(row) is tuple and type(row[0]) is float for row in res.values)

    def test_steps_bounded_before_allocation(self):
        # MAX_STEPS + 1 fails at once; an allocation of that many rows would
        # show as a slow test.
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((Const(0),),))
        message = f"^steps must be a positive integer, at most {MAX_STEPS}$"
        with pytest.raises(ValueError, match=message):
            transport1(g, curve_of(("t",), 0.0, 1.0), (1.0,), MAX_STEPS + 1)
        loop = curve_of(("cos(t)",), 0.0, 2 * math.pi)
        with pytest.raises(ValueError, match=message):
            loop_holonomy(g, loop, steps=MAX_STEPS + 1)


class TestTransport2:
    def test_y_component_reproduces_transport1_exactly(self):
        u = SymbolUniverse(2, 2)
        P = lambda s: parse_expr(s, u)
        g = Connection1(
            u,
            (
                (P("sin(x1)*y2"), P("x2")),
                (P("y1*y2/4"), P("cos(x2)")),
            ),
        )
        delta = ehresmann_prolongation(g)
        c = curve_of(("t", "sin(t)"), 0.0, 1.0)
        y0 = (0.5, -0.25)
        first = transport1(g, c, y0, 80)
        second = transport2(delta, c, y0, np.zeros((2, 2)), 80)
        assert second.values == first.values
        assert len(second.jet_values) == 81
        assert all(len(jet) == 2 and all(len(r) == 2 for r in jet) for jet in second.jet_values)

    def test_jet_slots_integrate_h(self):
        # F = 0 and constant H = 1 along x = t gives y_1(t) = t
        u = SymbolUniverse(1, 1)
        from jetconn import Connection2

        zero = ((Const(0),),)
        delta = Connection2(u, zero, zero, (((Const(1),),),))
        res = transport2(delta, curve_of(("t",), 0.0, 1.0), (0.0,), ((0.0,),), 100)
        assert res.jet_values[-1][0][0] == pytest.approx(1.0, abs=1e-12)
        assert res.values[-1][0] == 0.0  # y untouched by jet slots

    def test_jet_shape_checked(self):
        u = SymbolUniverse(2, 1)
        from jetconn import Connection2

        zero = Const(0)
        delta = Connection2(
            u,
            ((zero, zero),),
            ((zero, zero),),
            (((zero, zero), (zero, zero)),),
        )
        c = curve_of(("t", "t"), 0.0, 1.0)
        with pytest.raises(DimensionMismatchError, match="1x2"):
            transport2(delta, c, (0.0,), ((0.0,),), 5)


class TestSecondOrderOde:
    def test_constant_h_linear_growth(self):
        u = SymbolUniverse(1, 1)
        from jetconn import Connection2

        zero = ((Const(0),),)
        delta = Connection2(u, zero, zero, (((Const(1),),),))
        res = second_order_ode(delta, curve_of(("t",), 0.0, 1.0), (0.0,), 100)
        assert res.values[-1][0] == pytest.approx(1.0, abs=1e-12)

    def test_acceleration_couples_through_f(self):
        # x = t^2 has acceleration 2, so dy/dt = 2 y and y(1) = e^2 y0
        u = SymbolUniverse(1, 1)
        from jetconn import Connection2

        f = ((u.y(1),),)
        delta = Connection2(u, f, f, (((Const(0),),),))
        res = second_order_ode(delta, curve_of(("t^2",), 0.0, 1.0), (1.0,), 200)
        assert abs(res.values[-1][0] - math.e**2) < 1e-6


class TestHolonomy:
    def test_zero_connection_identity(self):
        u = SymbolUniverse(2, 2)
        zero = Const(0)
        g = Connection1(u, ((zero, zero), (zero, zero)))
        loop = curve_of(("cos(t)", "sin(t)"), 0.0, 2 * math.pi)
        res = loop_holonomy(g, loop, steps=50)
        assert res.defect == 0.0
        assert res.matrix == ((1.0, 0.0), (0.0, 1.0))

    def test_flat_polar_loop_defect_small(self):
        g = polar_affine()
        loop = curve_of(("2 + cos(t)", "sin(t)"), 0.0, 2 * math.pi)
        res = loop_holonomy(g, loop, steps=2000)
        assert res.defect < 1e-9
        assert res.steps == 2000

    def test_open_curve_rejected(self):
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((u.y(1),),))
        with pytest.raises(TransportError, match="not a loop"):
            loop_holonomy(g, curve_of(("t",), 0.0, 1.0), steps=10)

    def test_nonlinear_fiber_rejected(self):
        u = SymbolUniverse(1, 1)
        g = Connection1(u, ((parse_expr("y1^2", u),),))
        loop = curve_of(("sin(t)",), 0.0, 2 * math.pi)
        with pytest.raises(TransportError, match="linear in the fiber"):
            loop_holonomy(g, loop, steps=10)

    def test_custom_basis_columns(self):
        u = SymbolUniverse(2, 2)
        zero = Const(0)
        g = Connection1(u, ((zero, zero), (zero, zero)))
        loop = curve_of(("cos(t)", "sin(t)"), 0.0, 2 * math.pi)
        basis = np.array([[2.0], [1.0]])
        res = loop_holonomy(g, loop, basis=basis, steps=20)
        assert res.matrix == ((2.0,), (1.0,))
        with pytest.raises(DimensionMismatchError, match="2-row"):
            loop_holonomy(g, loop, basis=np.ones((3, 1)), steps=20)

    def test_memory_is_flat_in_steps(self):
        # Each column keeps only its state at the end of the loop, not its
        # trajectory, so the traced peak does not grow with the step count.
        g = polar_affine()
        loop = curve_of(("2 + cos(t)", "sin(t)"), 0.0, 2 * math.pi)

        def peak(steps):
            loop_holonomy(g, loop, steps=10)  # loads what the first call loads
            tracemalloc.start()
            try:
                loop_holonomy(g, loop, steps=steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(500), peak(2_000)
        assert large < 1.5 * small, (small, large)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_columns_are_transport1_bit_for_bit(self, dim):
        # Each column runs through the generated loop of transport1: column j
        # is transport1 of basis column j.
        g = random_linear_connection(np.random.default_rng(dim), dim, dim)
        loop = curve_of(("2 + cos(t)", "sin(t)", "cos(2*t)/3")[:dim], 0.0, 2 * math.pi)
        basis = np.random.default_rng(10 + dim).normal(size=(dim, dim))
        for b in (None, basis):
            columns = np.eye(dim) if b is None else b
            res = loop_holonomy(g, loop, basis=b, steps=64)
            for j in range(dim):
                end = transport1(g, loop, columns[:, j], 64).values[-1]
                assert [row[j].hex() for row in res.matrix] == [v.hex() for v in end]

    def test_first_failing_column_is_reported(self):
        # Column 1 fails earlier on the loop than column 0, but column 0's
        # failure is reported, as when each column is transported in turn.
        u = SymbolUniverse(1, 2)
        g = Connection1(u, ((parse_expr("300*y1", u),), (parse_expr("600*y2", u),)))
        loop = curve_of(("sin(t)",), 0.0, 2 * math.pi)
        basis = ((1e200, 0.0), (0.0, 1e200))
        messages = []
        for column in zip(*basis):
            with pytest.raises(TransportError) as err:
                transport1(g, loop, column, 64)
            messages.append(str(err.value))
        times = [float(message.rsplit(" ", 1)[1]) for message in messages]
        assert times[1] < times[0], messages
        with pytest.raises(TransportError) as err:
            loop_holonomy(g, loop, basis=basis, steps=64)
        assert str(err.value) == messages[0]

    @pytest.mark.parametrize("basis", [((1.0, 0.0), (1.0,)), ((), ()), (1.0, 2.0), np.ones(2)])
    def test_basis_must_be_a_matrix(self, basis):
        u = SymbolUniverse(2, 2)
        zero = Const(0)
        g = Connection1(u, ((zero, zero), (zero, zero)))
        loop = curve_of(("cos(t)", "sin(t)"), 0.0, 2 * math.pi)
        with pytest.raises(DimensionMismatchError, match="^basis must be an 2-row matrix"):
            loop_holonomy(g, loop, basis=basis, steps=20)


def random_linear_connection(rng, m, n):
    """F_i^p = sum_q A_iq^p(x) y^q with random polynomial A: linear in the fiber."""
    u = SymbolUniverse(m, n)
    base = list(u.base_names)

    def entry():
        terms = [Mul(poly_expr(rng, base), u.y(q)) for q in range(1, n + 1)]
        out = terms[0]
        for term in terms[1:]:
            out = Add(out, term)
        return out

    return Connection1(u, tuple(tuple(entry() for _ in range(m)) for _ in range(n)))


class TestGeneratedLoop:
    """The source of the generated RK4 loop: its size and what it holds."""

    @staticmethod
    def sources(monkeypatch, run):
        captured = []

        def capture(source, name, *args):
            if name == "<jetconn integrator>":
                captured.append(source)
            return compile(source, name, *args)

        monkeypatch.setattr(_tape, "compile", capture, raising=False)
        run()
        return captured

    @staticmethod
    def connection(n):
        """F over 2 base and n fiber dimensions, 2n entries, each with its own constant."""
        u = SymbolUniverse(2, n)
        rows = tuple(
            tuple(parse_expr(f"{p * 2 + i + 11}.3125*x{i + 1}*y{p + 1}", u) for i in range(2))
            for p in range(n)
        )
        return Connection1(u, rows)

    def test_source_grows_linearly_in_f(self, monkeypatch):
        # Each F entry is written once per stage, with its dot product term:
        # the cost of one more entry must not grow with the size of F.
        c = curve_of(("t", "sin(t)"), 0.0, 1.0)
        lengths = []
        for n in (2, 8, 32):  # 4, 16 and 64 entries
            g = self.connection(n)
            [source] = self.sources(monkeypatch, lambda: transport1(g, c, (1.0,) * n, 4))
            lengths.append(len(source))
        entries = (4, 16, 64)
        per_entry = [
            (lengths[k + 1] - lengths[k]) / (4 * (entries[k + 1] - entries[k])) for k in range(2)
        ]
        assert per_entry[1] < 1.25 * per_entry[0], (lengths, per_entry)
        assert per_entry[1] < 200, per_entry  # characters per entry and stage

    def test_no_constant_text_in_source(self, monkeypatch):
        g = self.connection(3)
        c = curve_of(("t", "1.4375*t"), 0.0, 1.0)
        runs = (
            lambda: transport1(g, c, (1.0, 2.0, 3.0), 4),
            lambda: transport2(ehresmann_prolongation(g), c, (1.0, 2.0, 3.0), np.zeros((3, 2)), 4),
            lambda: second_order_ode(ehresmann_prolongation(g), c, (1.0, 2.0, 3.0), 4),
            lambda: loop_holonomy(g, curve_of(("cos(t)", "sin(t)"), 0.0, 2 * math.pi), steps=4),
        )
        for run in runs:
            [source] = self.sources(monkeypatch, run)
            assert "3125" not in source and "4375" not in source

    @staticmethod
    def diagonal(coeffs):
        """F^p = c_p*y_p over one base dimension: each slot moves on its own."""
        u = SymbolUniverse(1, len(coeffs))
        rows = tuple((parse_expr(f"{c}*y{p + 1}", u),) for p, c in enumerate(coeffs))
        return Connection1(u, rows)

    def test_long_sums_continue_in_a_second_statement(self, monkeypatch):
        # 65 slots: the finiteness sums run past _tape._FOLD terms and continue
        # in a second statement, which rounds the same; each slot is its own
        # one-dimensional transport, bit for bit.
        coeffs = [0.25 + p / 32 for p in range(65)]
        c = curve_of(("sin(t)",), 0.0, 2.0)
        y0 = tuple(1.0 + p / 8 for p in range(65))
        g = self.diagonal(coeffs)
        [source] = self.sources(monkeypatch, lambda: transport1(g, c, y0, 16))
        assert "f = f + " in source
        res = transport1(g, c, y0, 16)
        for p, coeff in enumerate(coeffs):
            alone = transport1(self.diagonal([coeff]), c, (y0[p],), 16)
            assert [row[p].hex() for row in res.values] == [row[0].hex() for row in alone.values]

    def test_long_sums_report_the_failing_slot(self):
        # Slot 40 overflows; the whole state fails where that slot would alone.
        coeffs = [0.5] * 65
        coeffs[40] = 300
        c = curve_of(("sin(t)",), 0.0, 2 * math.pi)
        y0 = [1.0] * 65
        y0[40] = 1e200
        with pytest.raises(TransportError) as alone:
            transport1(self.diagonal([300]), c, (1e200,), 64)
        with pytest.raises(TransportError) as err:
            transport1(self.diagonal(coeffs), c, y0, 64)
        assert str(err.value) == str(alone.value)


def numpy_transport1(g, y0, t1, steps):
    """Reference RK4 on numpy arrays with BLAS products, along x = (t, sin t)."""
    u = g.universe
    m, n = u.base_dim, u.fiber_dim
    flat = [g.F[p][i] for p in range(n) for i in range(m)]
    prog = compile_program(flat, u.base_names + u.fiber_names)

    def rhs(t, y):
        x, xdot = np.array([t, math.sin(t)]), np.array([1.0, math.cos(t)])
        values, status = prog(np.concatenate((x, y)))
        assert not status.any()
        return values[0].reshape(n, m) @ xdot

    h = t1 / steps
    y = np.array(y0, dtype=np.float64)
    for k in range(steps):
        t = k * h
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + (h / 2) * k1)
        k3 = rhs(t + h / 2, y + (h / 2) * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


@pytest.mark.parametrize("seed", range(8))
def test_list_rk4_agrees_with_numpy_reference(seed):
    # The same scheme in the same order; only the dot products may round
    # differently (a BLAS kernel may fuse them), so the two agree to a few ulps.
    g = random_connection1(np.random.default_rng(seed), 2, 2)
    y0 = (0.1, -0.2)
    res = transport1(g, curve_of(("t", "sin(t)"), 0.0, 0.25), y0, 32)
    ref = numpy_transport1(g, y0, 0.25, 32)
    assert max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(res.values[-1], ref)) < 1e-12


class TestLeftFoldDot:
    """F*x' is summed left to right, one rounding per operation.

    The row (1e16, 1, -1e16) against x' = (1, 1, 1) sums to 0.0 that way:
    1e16 + 1 rounds back to 1e16.  A compensated sum (``math.fsum``, or
    ``sum`` from Python 3.12) gives 1.0, and a BLAS kernel may give either.
    """

    ROW = (1e16, 1.0, -1e16)

    @staticmethod
    def fold(row, vec):
        acc = row[0] * vec[0]
        acc += row[1] * vec[1]
        acc += row[2] * vec[2]
        return acc

    def expected(self, y0, steps, rate):
        """RK4 by hand for a constant right-hand side ``rate``."""
        h = 1.0 / steps
        values = [y0]
        for _ in range(steps):
            values.append(values[-1] + h / 6 * (rate + 2.0 * rate + 2.0 * rate + rate))
        return values

    def test_fold_and_fsum_differ(self):
        assert self.fold(self.ROW, (1.0, 1.0, 1.0)) == 0.0
        assert math.fsum(self.ROW) == 1.0

    @pytest.mark.parametrize("velocity", [(1.0, 1.0, 1.0), (3.0, 0.5, 1.25)])
    def test_transport1_matches_the_fold_bit_for_bit(self, velocity):
        u = SymbolUniverse(3, 1)
        g = Connection1(u, (tuple(Const(v) for v in self.ROW),))
        c = curve_of(tuple(f"{v}*t" for v in velocity), 0.0, 1.0)
        res = transport1(g, c, (0.5,), 8)
        rate = self.fold(self.ROW, velocity)
        assert [row[0] for row in res.values] == self.expected(0.5, 8, rate)

    def test_second_order_forms_fold_too(self):
        # H_ij = ROW[j] on every row i and F = ROW: H x' is the fold per row.
        u = SymbolUniverse(3, 1)
        from jetconn import Connection2

        row = tuple(Const(v) for v in self.ROW)
        delta = Connection2(u, (row,), (row,), ((row, row, row),))
        c = curve_of(("t", "t", "t"), 0.0, 1.0)
        fold = self.fold(self.ROW, (1.0, 1.0, 1.0))
        res = transport2(delta, c, (0.5,), ((0.0, 0.0, 0.0),), 8)
        assert [r[0] for r in res.values] == self.expected(0.5, 8, fold)
        for i in range(3):
            assert [jet[0][i] for jet in res.jet_values] == self.expected(0.0, 8, fold)
        # ode2: (H x') x' + F x'' with x'' = 0, each product a fold.
        ode = second_order_ode(delta, c, (0.5,), 8)
        quadratic = self.fold((fold, fold, fold), (1.0, 1.0, 1.0))
        assert [r[0] for r in ode.values] == self.expected(0.5, 8, quadratic + 0.0)


class TestFailureOrder:
    """The first failure in time order is reported, whether F or the curve.

    Each stage evaluates the curve at its node, then F there, so an F
    failure at an earlier node must win over a curve failure at a later
    one, even when the later node is already evaluated in a batch.  The
    messages were recorded from the step-by-step integrator.  1024 steps
    on [0, 1] make every node time exact and span several curve batches.
    """

    CASES = {
        "F early, curve late": (
            "y1/(x1 - 0.75)", ("t", "ln(0.9 - t)"), 1024,
            "division by zero at t = 0.75",
        ),
        "curve early, F late": (
            "y1/(x1 - 0.95)", ("t", "ln(0.9 - t)"), 1024,
            "ln of a non-positive argument at t = 0.900390625",
        ),
        "F at a midpoint, curve at the same step's end": (
            "y1/(x1 - 0.68408203125)", ("t", "ln(0.6845703125 - t)"), 1024,
            "division by zero at t = 0.68408203125",
        ),
        "curve at a midpoint": (
            "y1", ("t", "1/(t - 0.68408203125)"), 1024,
            "division by zero at t = 0.68408203125",
        ),
        "curve before F at the same node": (
            "y1/(x1 - 0.5)", ("t", "ln(0.5 - t)"), 4,
            "ln of a non-positive argument at t = 0.5",
        ),
        "F non-finite": (
            "exp(1000*x1)", ("t", "ln(0.9 - t)"), 1024,
            {
                "1": "non-finite expression value at t = 0.7099609375",
                "2": "non-finite expression value at t = 0.703125",
                "ode2": "non-finite expression value at t = 0.703125",
            },
        ),
        "curve non-finite": (
            "y1", ("t", "exp(exp(10*t))"), 600,
            {
                "1": "non-finite expression value at t = 0.6558333333333334",
                "2": "non-finite expression value at t = 0.6558333333333334",
                "ode2": "non-finite expression value at t = 0.6541666666666667",
            },
        ),
        # In variants 2 and ode2 the rows of H, derived from F, follow F's.
        # Here ln fails in the F row's left operand, and a division both in
        # its right operand and in the H rows.
        "ln before a division at the same stage": (
            "ln(0.5 - x1) + y1/(x1 - 0.5)", ("t", "t"), 4,
            "ln of a non-positive argument at t = 0.5",
        ),
        # F overflows to inf at t = 0.75, and 1e-200 keeps its divisor from
        # 0.0; H's divisor, simplified, is x1 - 0.75, so its guard fails at
        # the same stage, after the F row.
        "F inf before an H row's guard at the same stage": (
            "exp(1000*x1) + 1/(x1 - 0.75 + 1e-200)", ("t", "t"), 4,
            {
                "1": "non-finite expression value at t = 0.75",
                "2": "division by zero at t = 0.75",
                "ode2": "division by zero at t = 0.75",
            },
        ),
        "two curve components at the same node": (
            "y1", ("ln(0.5 - t)", "1/(t - 0.5)"), 4,
            "ln of a non-positive argument at t = 0.5",
        ),
    }

    @pytest.mark.parametrize("variant", ["1", "2", "ode2"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_failure_reported(self, case, variant):
        f, comps, steps, expected = self.CASES[case]
        if isinstance(expected, dict):
            expected = expected[variant]
        u = SymbolUniverse(2, 1)
        g = Connection1(u, ((parse_expr(f, u), Const(0)),))
        c = curve_of(comps, 0.0, 1.0)
        with pytest.raises(TransportError) as err:
            if variant == "1":
                transport1(g, c, (1.0,), steps)
            elif variant == "2":
                transport2(ehresmann_prolongation(g), c, (1.0,), ((0.0, 0.0),), steps)
            else:
                second_order_ode(ehresmann_prolongation(g), c, (1.0,), steps)
        assert str(err.value) == expected

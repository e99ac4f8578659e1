"""Transport integrators: exact solutions, convergence, holonomy."""

import math

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
from jetconn.expr import Const
from jetconn.transport import MAX_STEPS

from conftest import random_connection1

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
        assert np.all(res.values == res.values[0])
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
        assert np.abs(res.values[-1] - (1.0, 0.0)).max() < 1e-8
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
        assert np.array_equal(first.values, second.values)
        assert second.jet_values.shape == (81, 2, 2)

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
        assert np.array_equal(res.matrix, np.eye(2))

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
        assert np.array_equal(res.matrix, basis)
        with pytest.raises(DimensionMismatchError, match="2-row"):
            loop_holonomy(g, loop, basis=np.ones((3, 1)), steps=20)


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
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TransportError) as err:
                if variant == "1":
                    transport1(g, c, (1.0,), steps)
                elif variant == "2":
                    transport2(ehresmann_prolongation(g), c, (1.0,), ((0.0, 0.0),), steps)
                else:
                    second_order_ode(ehresmann_prolongation(g), c, (1.0,), steps)
        assert str(err.value) == expected

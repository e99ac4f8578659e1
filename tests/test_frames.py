"""Adapted frames, two-fold frames, dual coframes, Jacobian structure."""

from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from jetconn import (
    Connection1,
    EvalError,
    FrameVerificationError,
    LinearTwoFoldCoefficients,
    SymbolUniverse,
    TwoFoldConnection,
    TwofoldTransform,
    adapted_frame,
    ehresmann_prolongation,
    eval_expr,
    expr_equal,
    horizontal_lift_field,
    linear_twofold,
    parse_expr,
    simplify,
    twofold_dual_coframe,
    twofold_frame,
    twofold_universe,
    validate_twofold_jacobian,
)
from jetconn.expr import Add, Const, Mul, Sub, Var, contract
from jetconn.frames import MAX_TWOFOLD_SIZE, identity_matrix, symbolic_matmul

from conftest import poly_expr, random_connection1


def zero_grid(universe, rows, cols):
    return tuple(tuple(Const(0) for _ in range(cols)) for _ in range(rows))


class TestAdaptedFrame:
    def test_duality_both_sides(self, rng):
        g = random_connection1(rng, 2, 2)
        built = adapted_frame(g)
        size = 4
        eye = identity_matrix(size)
        assert symbolic_matmul(built.coframe, built.frame) == eye
        assert symbolic_matmul(built.frame, built.coframe) == eye

    def test_lower_left_block_is_connection(self, rng):
        g = random_connection1(rng, 2, 1)
        built = adapted_frame(g)
        m, n = 2, 1
        for p in range(n):
            for i in range(m):
                assert built.frame[m + p][i] == g.F[p][i]
                assert expr_equal(
                    built.coframe[m + p][i], Sub(Const(0), g.F[p][i])
                )

    def test_base_block_untouched(self, rng):
        g = random_connection1(rng, 2, 1)
        built = adapted_frame(g)
        assert built.frame[0][:2] == (Const(1), Const(0))
        assert built.frame[1][:2] == (Const(0), Const(1))
        assert built.frame[0][2] == Const(0)  # upper-right block stays zero


# Entries of the random matrices below: exact and float constants, with 0
# most often, and monomials of those coefficients.
COEFFS = [Const(0)] * 4 + [Const(c) for c in (1, -1, Fraction(1, 2), Fraction(3, 7),
                                              1e300, -1e300, 1e-300, -1e-300)]


def dense_matmul(a, b):
    """The product summed over every k, zero products included."""
    columns = tuple(zip(*b))
    return tuple(tuple(contract(row, column) for column in columns) for row in a)


def random_entry(rng, names):
    coeff = COEFFS[int(rng.integers(len(COEFFS)))]
    if rng.random() < 0.5:
        return coeff
    factors = [Var(str(rng.choice(names))) for _ in range(int(rng.integers(1, 3)))]
    return simplify(reduce(Mul, factors, coeff))


class TestSymbolicMatmul:
    names = ("x1", "x2", "y1")

    def matrix(self, rng, size, unit_lower):
        def entry(r, c):
            if unit_lower and r <= c:
                return Const(1) if r == c else Const(0)
            return random_entry(rng, self.names)

        return tuple(tuple(entry(r, c) for c in range(size)) for r in range(size))

    def test_equals_the_dense_product(self, rng):
        for _ in range(60):
            size = int(rng.integers(1, 6))
            lower, dense = (self.matrix(rng, size, unit) for unit in (True, False))
            for a, b in [(lower, dense), (dense, lower), (lower, lower), (dense, dense)]:
                product, reference = symbolic_matmul(a, b), dense_matmul(a, b)
                assert product == reference
                assert repr(product) == repr(reference)

    @pytest.mark.parametrize("other", [
        "1e300*10^400*x1",  # a product whose constants did not fold
        "-(1e300*10^400*x1)",
        "x1 + x2",  # -1 times a sum stays a product alone, and is expanded in a sum
    ])
    def test_zero_products_beside_awkward_entries(self, other):
        u = SymbolUniverse(2, 1)
        e = simplify(parse_expr(other, u))
        zero, one, minus = Const(0), Const(1), Const(-1)
        for a, b in [(((zero, minus),), ((e,), (e,))),
                     (((zero, one),), ((e,), (e,))),
                     (((e, minus),), ((zero,), (e,)))]:
            for left, right in [(a, b), (tuple(zip(*b)), tuple(zip(*a)))]:
                product, reference = symbolic_matmul(left, right), dense_matmul(left, right)
                assert product == reference
                assert repr(product) == repr(reference)


class TestTwofoldFrame:
    def test_block_placement(self):
        dims = (1, 1, 1, 1)
        u = twofold_universe(dims)
        P = lambda s: parse_expr(s, u)
        c = TwoFoldConnection(
            dims,
            ((P("v1"),),),
            ((P("w1*u1"),),),
            ((P("z1"),),),
            ((P("w1"),),),
            ((P("2"),),),
        )
        M = twofold_frame(c)
        assert M[0][0] == Const(1)
        assert M[1][0] == P("v1")  # first fiber rows against base columns
        assert M[2][0] == P("w1*u1")
        assert M[3][0] == P("z1")
        assert M[3][1] == P("w1")  # doubled rows against first fiber
        assert M[3][2] == Const(2)
        # strictly lower triangular otherwise
        assert M[1][2] == Const(0)
        assert M[2][1] == Const(0)

    def test_gamma_bar_relation(self):
        dims = (1, 1, 1, 1)
        u = twofold_universe(dims)
        P = lambda s: parse_expr(s, u)
        c = TwoFoldConnection(
            dims,
            ((P("v1"),),),
            ((P("u1"),),),
            ((P("z1"),),),
            ((P("w1"),),),
            ((P("v1"),),),
        )
        dual = twofold_dual_coframe(c)
        expected = P("z1 - w1*v1 - v1*u1")
        assert expr_equal(dual.gamma_bar[0][0], expected)

    def test_numeric_duality_random_blocks(self, rng):
        for _ in range(5):
            dims = tuple(int(rng.integers(1, 3)) for _ in range(4))
            u = twofold_universe(dims)
            names = u.variable_names
            n, r1, r2, r12 = dims

            def grid(rows, cols):
                return tuple(
                    tuple(simplify(poly_expr(rng, names)) for _ in range(cols))
                    for _ in range(rows)
                )

            c = TwoFoldConnection(
                dims,
                grid(r1, n),
                grid(r2, n),
                grid(r12, n),
                grid(r12, r1),
                grid(r12, r2),
            )
            dual = twofold_dual_coframe(c, points=40)
            assert dual.max_deviation < 1e-10
            assert dual.checked_points == 40

    def test_impossible_tolerance_reports_point(self):
        doc_dims = (1, 1, 1, 1)
        u = twofold_universe(doc_dims)
        P = lambda s: parse_expr(s, u)
        # A nonzero g12_f2 leaves rounding in the residuals at tol = 0.
        c = TwoFoldConnection(
            doc_dims,
            ((P("v1"),),),
            ((P("w1*u1"),),),
            ((P("z1"),),),
            ((P("w1"),),),
            ((P("z1"),),),
        )
        with pytest.raises(FrameVerificationError, match="deviation"):
            twofold_dual_coframe(c, tol=0.0)

    def test_non_finite_frame_is_not_verified(self):
        # exp(1000) overflows at every point.  The products of frame and
        # coframe would hold NaN, which must not pass as a small deviation.
        u = twofold_universe((1, 1, 1, 1))
        one = lambda s: ((parse_expr(s, u),),)
        c = TwoFoldConnection((1, 1, 1, 1), one("exp(1000)"), one("0"), one("z1"),
                              one("w1"), one("0"))
        with pytest.raises(FrameVerificationError, match=r"\(deviation inf\)$"):
            twofold_dual_coframe(c, points=3)

    @staticmethod
    def connection(dims, *blocks):
        u = twofold_universe(dims)
        return TwoFoldConnection(
            dims, *(tuple(tuple(parse_expr(s, u) for s in row) for row in b) for b in blocks))

    @pytest.mark.parametrize("blocks, settings, message", [
        # Rounding that only a nonzero g2_base leaves, and exp(-10000*u1^2)
        # is 0 but for |u1| < 0.28: the first failure is point 74.
        ((["v1"], ["w1*u1*exp(-10000*u1^2)"], ["z1"], ["w1"], ["z1"]),
         {"tol": 0.0, "seed": 9},
         "{'u1': 0.05657590932692402, 'v1': -1.6036221842993474, 'w1': 0.8676733077525243,"
         " 'z1': -0.8613673473099772} (deviation 1.110e-16)"),
        # An entry that overflows first at point 85.
        ((["exp(100*u1*v1*w1*z1)"], ["0"], ["z1"], ["w1"], ["0"]),
         {"seed": 0},
         "{'u1': -1.3946625261084358, 'v1': 1.954759555943026, 'w1': 1.9319568421811284,"
         " 'z1': -1.4063919316558806} (deviation inf)"),
    ])
    def test_first_failing_point_past_the_first_chunk(self, blocks, settings, message):
        c = self.connection((1, 1, 1, 1), *([row] for row in blocks))
        with pytest.raises(FrameVerificationError) as failed:
            twofold_dual_coframe(c, points=100, **settings)
        assert str(failed.value) == f"coframe is not inverse to the frame at {message}"

    def test_finite_values_whose_sum_overflows_pass(self):
        # The two alpha1 entries are near 1.5e308 at every point, so each
        # chunk's sum overflows and its points are checked one by one.
        huge = [["1.5e308*exp(-u1^2/100)"], ["1.5e308*exp(-v1^2/100)"]]
        c = self.connection((1, 2, 1, 1), huge, [["w1*u1/3"]], [["z1"]], [["0", "0"]], [["z1/7"]])
        dual = twofold_dual_coframe(c, points=200, seed=3)
        assert (dual.max_deviation, dual.checked_points) == (4.440892098500626e-16, 200)

    def test_constant_frame_checks_every_point(self):
        # No entry to evaluate and no residual left, over more than one chunk.
        zero = ((Const(0),),)
        dual = twofold_dual_coframe(TwoFoldConnection((1, 1, 1, 1), *[zero] * 5), points=130)
        assert (dual.max_deviation, dual.checked_points) == (0.0, 130)

    def test_failed_entry_raises_with_its_reason(self):
        # A failed evaluation is an EvalError naming why, not a deviation.
        u = twofold_universe((1, 1, 1, 1))
        one = lambda s: ((parse_expr(s, u),),)
        for entry, reason in [("ln(u1)", "ln of a non-positive argument"),
                              ("1/(u1 - u1)", "division by zero")]:
            c = TwoFoldConnection((1, 1, 1, 1), one(entry), one("0"), one("z1"),
                                  one("w1"), one("0"))
            with pytest.raises(EvalError, match=f"^{reason}$"):
                twofold_dual_coframe(c)

    @pytest.mark.parametrize(
        "settings, message",
        [({"points": 0}, "points must be a positive integer"),
         ({"points": -2}, "points must be a positive integer"),
         ({"points": 2.0}, "points must be a positive integer"),
         ({"tol": -1.0}, "tol must be a finite number >= 0"),
         ({"tol": float("nan")}, "tol must be a finite number >= 0"),
         ({"tol": float("inf")}, "tol must be a finite number >= 0")],
    )
    def test_sampling_settings_checked(self, settings, message):
        zero = ((Const(0),),)
        c = TwoFoldConnection((1, 1, 1, 1), zero, zero, zero, zero, zero)
        with pytest.raises(ValueError, match=f"^{message}$"):
            twofold_dual_coframe(c, **settings)

    def test_gamma12_override(self):
        # A gamma12_base grid takes the g12_base slot at load, so the frame
        # and the dual are built on that block.
        dims = (1, 1, 1, 1)
        u = twofold_universe(dims)
        P = lambda s: parse_expr(s, u)
        zero = ((Const(0),),)
        c = TwoFoldConnection(dims, zero, zero, ((P("u1^2"),),), zero, zero)
        M = twofold_frame(c)
        assert M[3][0] == P("u1^2")
        dual = twofold_dual_coframe(c)
        assert expr_equal(dual.gamma_bar[0][0], P("u1^2"))
        assert dual.frame == M  # the frame the coframe was verified against

    def test_size_bound(self):
        at_bound = (MAX_TWOFOLD_SIZE - 3, 1, 1, 1)
        assert len(twofold_universe(at_bound).extra_symbols) == MAX_TWOFOLD_SIZE
        with pytest.raises(ValueError, match=f"sum to 65, above the bound {MAX_TWOFOLD_SIZE}"):
            twofold_universe((MAX_TWOFOLD_SIZE - 2, 1, 1, 1))
        with pytest.raises(ValueError, match="positive"):
            twofold_universe((1, 0, 1, 1))


class TestLinearTwofold:
    @staticmethod
    def coeffs(rng, dims):
        n, r1, r2, r12 = dims

        def tensor(*shape):
            flat = rng.integers(-2, 3, size=int(np.prod(shape)))
            arr = np.asarray(flat, dtype=object).reshape(shape)

            def build(a):
                if a.ndim == 1:
                    return tuple(Const(int(v)) for v in a)
                return tuple(build(sub) for sub in a)

            return build(arr)

        return LinearTwoFoldCoefficients(
            dims,
            tensor(r1, n, r1),
            tensor(r2, n, r2),
            tensor(r12, r1, r2),
            tensor(r12, r2, r1),
            tensor(r12, n, r1, r2),
            tensor(r12, n, r12),
        )

    def test_expansion_shapes(self, rng):
        dims = (2, 1, 2, 1)
        lin = self.coeffs(rng, dims)
        c = linear_twofold(lin)
        assert len(c.g1_base) == 1 and len(c.g1_base[0]) == 2
        assert len(c.g12_f2) == 1 and len(c.g12_f2[0]) == 2

    def test_two_term_coefficient_relation(self, rng):
        # the derived base block differs from the input one by both mixed
        # contractions; verified through the expanded expressions
        dims = (1, 1, 1, 1)
        lin = self.coeffs(rng, dims)
        c = linear_twofold(lin)
        dual = twofold_dual_coframe(c)
        u = c.universe
        t1 = Mul(c.g12_f1[0][0], c.g1_base[0][0])
        t2 = Mul(c.g12_f2[0][0], c.g2_base[0][0])
        expected = simplify(Sub(Sub(c.g12_base[0][0], t1), t2))
        assert expr_equal(dual.gamma_bar[0][0], expected)

    def test_one_term_form_when_first_block_vanishes(self, rng):
        # sub-case: no w-linear mixed block, single remaining contraction
        dims = (1, 1, 1, 1)
        zero3 = (((Const(0),),),)
        lin = self.coeffs(rng, dims)
        lin = LinearTwoFoldCoefficients(
            dims, lin.c1, lin.c2, zero3, lin.c12_f2f1, lin.c12_jf1f2, lin.c12_jf12
        )
        c = linear_twofold(lin)
        dual = twofold_dual_coframe(c)
        only = Mul(c.g12_f2[0][0], c.g2_base[0][0])
        expected = simplify(Sub(c.g12_base[0][0], only))
        assert expr_equal(dual.gamma_bar[0][0], expected)


class TestJacobian:
    def test_valid_transform(self):
        dims = (1, 1, 1, 1)
        u = twofold_universe(dims)
        P = lambda s: parse_expr(s, u)
        t = TwofoldTransform(
            dims, (P("u1 + 1"), P("v1 + u1^2"), P("2*w1"), P("z1 + v1*w1"))
        )
        report = validate_twofold_jacobian(t)
        assert report.valid
        assert bool(report)
        assert report.confidence == "symbolic"
        assert report.violations == ()

    def test_base_row_must_not_see_fibers(self):
        dims = (1, 1, 1, 1)
        u = twofold_universe(dims)
        P = lambda s: parse_expr(s, u)
        t = TwofoldTransform(dims, (P("u1 + v1"), P("v1"), P("w1"), P("z1")))
        report = validate_twofold_jacobian(t)
        assert not report.valid
        assert ("component 1", "v1") in report.violations

    def test_first_fiber_must_not_see_second(self):
        dims = (1, 1, 1, 1)
        u = twofold_universe(dims)
        P = lambda s: parse_expr(s, u)
        t = TwofoldTransform(dims, (P("u1"), P("v1*w1"), P("w1"), P("z1")))
        report = validate_twofold_jacobian(t)
        assert not report.valid
        assert ("component 2", "w1") in report.violations


class TestHorizontalLift:
    def test_first_order_coefficients_match_hand_rule(self):
        # affine rule: the dy coefficient along direction i is -G^k_{il} y^l
        u = SymbolUniverse(2, 2)
        P = lambda s: parse_expr(s, u)
        zero = Const(0)
        chris = (
            ((zero, zero), (zero, P("-x1"))),
            ((zero, P("1/x1")), (P("1/x1"), zero)),
        )
        from jetconn import AffineConnection, affine_to_general

        g = affine_to_general(AffineConnection(2, chris))
        delta = ehresmann_prolongation(g)
        rows = horizontal_lift_field(delta)
        point = {"x1": 1.5, "x2": 0.25, "y1": 2.0, "y2": -1.0}
        gamma_num = {
            (1, 2, 2): -1.5,
            (2, 1, 2): 1 / 1.5,
            (2, 2, 1): 1 / 1.5,
        }
        yvals = (2.0, -1.0)
        for row in rows:
            i = row.direction
            for k in range(2):
                want = -sum(
                    gamma_num.get((k + 1, i, l + 1), 0.0) * yvals[l]
                    for l in range(2)
                )
                assert eval_expr(row.dy[k], point) == pytest.approx(want)

    def test_second_order_block_is_product_h(self, rng):
        g = random_connection1(rng, 2, 1)
        delta = ehresmann_prolongation(g)
        rows = horizontal_lift_field(delta)
        assert len(rows) == 2
        for row in rows:
            i = row.direction - 1
            for p in range(1):
                for j in range(2):
                    assert row.dyj[p][j] == delta.H[p][i][j]

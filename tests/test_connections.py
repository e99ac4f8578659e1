"""Connection products, curvature, exchange, family, classification.

The product's H grid is checked against a hand-rolled finite-difference
oracle before anything symbolic is trusted: dF along the base, plus the
fiber directional derivative along the second connection.
"""

import copy

import numpy as np
import pytest

from jetconn import (
    HOLONOMIC,
    NONHOLONOMIC,
    PROBABILISTIC,
    SEMIHOLONOMIC,
    SYMBOLIC,
    AffineConnection,
    Connection1,
    Connection2,
    DimensionMismatchError,
    LinearConnection1,
    SymbolUniverse,
    affine_to_general,
    classify,
    curvature,
    diff,
    ehresmann_prolongation,
    eval_expr,
    exchange,
    expr_equal,
    family,
    is_fiber_linear,
    linear_to_general,
    parse_expr,
    product,
    simplify,
)
from jetconn.expr import Const, Sub, Var

from conftest import fd_product_entry, poly_expr, random_connection1

U21 = SymbolUniverse(2, 1)


def conn(universe, rows):
    grid = tuple(
        tuple(parse_expr(text, universe) for text in row) for row in rows
    )
    return Connection1(universe, grid)


class TestProduct:
    def test_matches_finite_difference_oracle(self, rng):
        for _ in range(8):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            gamma = random_connection1(rng, m, n)
            gamma_bar = random_connection1(rng, m, n)
            delta = product(gamma, gamma_bar)
            for _ in range(4):
                point = {
                    name: float(rng.uniform(-1.5, 1.5))
                    for name in gamma.universe.variable_names
                }
                p = int(rng.integers(0, n))
                i = int(rng.integers(0, m))
                j = int(rng.integers(0, m))
                got = eval_expr(delta.H[p][i][j], point)
                want = fd_product_entry(gamma, gamma_bar, p, i, j, point)
                assert got == pytest.approx(want, rel=1e-5, abs=1e-5)

    def test_known_grid(self):
        g = conn(U21, [["y1", "x1"]])
        d = ehresmann_prolongation(g)
        assert d.F == g.F
        assert d.G == g.F
        assert d.H[0][0][0] == Var("y1")
        assert d.H[0][0][1] == Var("x1")
        assert d.H[0][1][0] == Const(1)
        assert d.H[0][1][1] == Const(0)

    def test_zero_connection(self):
        g = conn(U21, [["0", "0"]])
        d = ehresmann_prolongation(g)
        assert all(e == Const(0) for row in d.H for cell in row for e in cell)

    def test_second_factor_keeps_its_results(self):
        # Each entry of gamma_bar is simplified once, as a root, and keeps
        # its result for every H entry that holds it.
        g = conn(U21, [["y1^2", "x1*y1"]])
        g_bar = conn(U21, [["x1 + x1", "2*(y1 + x2) - y1"]])
        fresh = [simplify(copy.deepcopy(e)) for e in g_bar.F[0]]
        product(g, g_bar)
        assert [e._simple for e in g_bar.F[0]] == fresh

    def test_universe_mismatch(self):
        a = conn(SymbolUniverse(2, 1), [["0", "0"]])
        b = conn(SymbolUniverse(1, 1), [["0"]])
        with pytest.raises(DimensionMismatchError, match=r"\(2,1\).*\(1,1\)"):
            product(a, b)

    def test_entries_restricted_to_universe(self):
        stray = Var("x3")  # built directly; the parser would refuse it
        with pytest.raises(ValueError):
            Connection1(U21, ((stray, Const(0)),))


class TestCurvature:
    def test_example_entry(self):
        g = conn(U21, [["y1", "x1"]])
        R = curvature(g)
        assert R[0][0][1] == simplify(parse_expr("x1 - 1", U21))
        assert R[0][0][0] == Const(0)

    def test_antisymmetry(self, rng):
        for _ in range(10):
            g = random_connection1(rng, 2, 2)
            R = curvature(g)
            for p in range(2):
                for i in range(2):
                    for j in range(2):
                        s = simplify(
                            parse_expr("0", g.universe) + R[p][i][j] + R[p][j][i]
                        )
                        assert s == Const(0)

    def test_gradient_connection_is_flat(self, rng):
        u = SymbolUniverse(2, 1)
        phi = poly_expr(rng, u.base_names, max_terms=4)
        g = Connection1(u, ((diff(phi, "x1"), diff(phi, "x2")),))
        R = curvature(g)
        for grid_i in R[0]:
            for entry in grid_i:
                assert entry == Const(0)


class TestClassify:
    def test_zero_is_holonomic_symbolic(self):
        g = conn(U21, [["0", "0"]])
        c = classify(ehresmann_prolongation(g))
        assert c.verdict == HOLONOMIC
        assert c.confidence == SYMBOLIC
        assert str(c) == "holonomic (symbolic)"

    def test_spec_semillonomic_example(self):
        # H_12 and H_21 are polynomials, so the exact expansion settles them.
        c = classify(ehresmann_prolongation(conn(U21, [["y1", "x1"]])))
        assert c.verdict == SEMIHOLONOMIC
        assert c.confidence == SYMBOLIC

    def test_asymmetry_through_an_atom_is_certified(self):
        # H_12 - H_21 keeps sin(x2) and cos(x2), so the exact expansion
        # cannot tell; an interval enclosure at one point proves them apart.
        c = classify(ehresmann_prolongation(conn(U21, [["sin(x2)*y1", "x1"]])))
        assert c.verdict == SEMIHOLONOMIC
        assert c.confidence == SYMBOLIC

    def test_hidden_trig_identity_is_sampled_holonomic(self):
        u = SymbolUniverse(2, 1)
        P = lambda s: parse_expr(s, u)
        F = ((P("y1"), P("x1")),)
        H = (((P("0"), P("sin(x1)^2 + cos(x1)^2")), (P("1"), P("0"))),)
        c = classify(Connection2(u, F, F, H))
        assert c.verdict == HOLONOMIC
        assert c.confidence == PROBABILISTIC

    def test_gradient_prolongs_holonomic(self, rng):
        u = SymbolUniverse(2, 1)
        for _ in range(5):
            phi = poly_expr(rng, u.base_names, max_terms=4)
            g = Connection1(u, ((diff(phi, "x1"), diff(phi, "x2")),))
            assert classify(ehresmann_prolongation(g)).verdict == HOLONOMIC

    def test_distinct_projections_nonholonomic(self):
        f = conn(U21, [["y1", "x1"]])
        gbar = conn(U21, [["y1 + 1", "x1"]])
        assert classify(product(f, gbar)).verdict == NONHOLONOMIC

    def test_semiholonomy_iff_equal_projections(self, rng):
        for k in range(12):
            gamma = random_connection1(rng, 2, 1)
            if k % 2 == 0:
                gamma_bar = gamma
            else:
                gamma_bar = random_connection1(rng, 2, 1)
            d = product(gamma, gamma_bar)
            same = all(
                expr_equal(gamma.F[p][i], gamma_bar.F[p][i])
                for p in range(1)
                for i in range(2)
            )
            verdict = classify(d).verdict
            assert (verdict in (SEMIHOLONOMIC, HOLONOMIC)) == same


class TestExchange:
    def test_swaps_and_transposes(self):
        d = ehresmann_prolongation(conn(U21, [["y1", "x1"]]))
        e = exchange(d)
        assert e.F == d.G
        assert e.G == d.F
        assert e.H[0][0][1] == d.H[0][1][0]

    def test_involution(self, rng):
        for _ in range(10):
            d = product(
                random_connection1(rng, 2, 2), random_connection1(rng, 2, 2)
            )
            assert exchange(exchange(d)) == d


class TestFamily:
    def test_endpoints(self, rng):
        g = random_connection1(rng, 2, 1)
        d = ehresmann_prolongation(g)
        assert family(g, 1) == Connection2(d.universe, d.F, d.G, d.H)
        assert family(g, 0) == exchange(d)

    def test_midpoint_holonomic(self, rng):
        for _ in range(6):
            g = random_connection1(rng, 2, 2)
            c = classify(family(g, 0.5))
            assert c.verdict == HOLONOMIC
            assert c.confidence == SYMBOLIC

    def test_flat_family_is_k_independent(self, rng):
        u = SymbolUniverse(2, 1)
        phi = poly_expr(rng, u.base_names, max_terms=4)
        g = Connection1(u, ((diff(phi, "x1"), diff(phi, "x2")),))
        members = [family(g, k) for k in (0, 0.3, 1)]
        for other in members[1:]:
            for p in range(1):
                for i in range(2):
                    for j in range(2):
                        assert expr_equal(
                            members[0].H[p][i][j], other.H[p][i][j]
                        )

    def test_rejects_bool_parameter(self, rng):
        g = random_connection1(rng, 1, 1)
        with pytest.raises(TypeError):
            family(g, True)


class TestConversions:
    def test_linear_to_general(self):
        u = SymbolUniverse(2, 2)
        coeff = (
            ((Const(0), Const(1)), (Const(0), Const(0))),
            ((Const(0), Const(0)), (Const(1), Const(0))),
        )
        lin = LinearConnection1(u, coeff)
        g = linear_to_general(lin)
        assert g.F[0][0] == Var("y2")
        assert g.F[0][1] == Const(0)
        assert g.F[1][0] == Const(0)
        assert g.F[1][1] == Var("y1")
        assert is_fiber_linear(g)

    def test_affine_polar_grid(self):
        u = SymbolUniverse(2, 2)
        zero = Const(0)
        chris = (
            ((zero, zero), (zero, parse_expr("-x1", u))),
            ((zero, parse_expr("1/x1", u)), (parse_expr("1/x1", u), zero)),
        )
        g = affine_to_general(AffineConnection(2, chris))
        point = {"x1": 2.0, "x2": 0.3, "y1": 1.5, "y2": -0.5}
        assert eval_expr(g.F[0][1], point) == pytest.approx(2.0 * -0.5)
        assert eval_expr(g.F[1][0], point) == pytest.approx(0.5 * 0.5)
        assert eval_expr(g.F[1][1], point) == pytest.approx(-1.5 / 2.0)
        assert g.F[0][0] == Const(0)

    def test_affine_base_only_enforced(self):
        u = SymbolUniverse(2, 2)
        with pytest.raises(ValueError):
            AffineConnection(
                2,
                (
                    ((parse_expr("y1", u), Const(0)), (Const(0), Const(0))),
                    ((Const(0), Const(0)), (Const(0), Const(0))),
                ),
            )

    def test_fiber_linearity_detection(self):
        assert not is_fiber_linear(conn(U21, [["y1", "x1"]]))  # affine shift
        assert is_fiber_linear(conn(U21, [["y1*x2", "3*y1"]]))
        assert not is_fiber_linear(conn(U21, [["y1^2", "0"]]))

"""Expression layer: parser, printer, differentiation, simplification."""

import gc
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from jetconn import (
    Add,
    Const,
    Div,
    EvalError,
    Fn,
    FunctionArityError,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    SymbolUniverse,
    UnknownIdentifierError,
    Var,
    as_expr,
    diff,
    eval_expr,
    expr_equal,
    parse_expr,
    simplify,
    substitute,
    to_text,
)

from jetconn.expr import expr_sum

from conftest import random_expr

U21 = SymbolUniverse(2, 1)
U33 = SymbolUniverse(3, 3)


def assert_fixed_point(once):
    """``once`` simplifies to itself, and so does a copy with fresh inner nodes.

    ``repr`` tells ``Const(10)`` from ``Const(10.0)``, which ``==`` does not.
    """
    assert simplify(once) is once
    assert repr(simplify(substitute(once, {}))) == repr(once)


class TestUniverse:
    def test_names(self):
        u = SymbolUniverse(2, 1, frozenset({"t"}))
        assert u.base_names == ("x1", "x2")
        assert u.fiber_names == ("y1",)
        assert u.variable_names == ("x1", "x2", "y1", "t")

    def test_membership(self):
        assert "x2" in U21
        assert "y1" in U21
        assert "x3" not in U21
        assert "y2" not in U21

    def test_rejects_colliding_extra(self):
        with pytest.raises(ValueError):
            SymbolUniverse(2, 1, frozenset({"x1"}))
        with pytest.raises(ValueError):
            SymbolUniverse(1, 1, frozenset({"y1"}))
        # out of range: no collision with this universe's coordinates
        assert "y7" in SymbolUniverse(1, 1, frozenset({"y7"}))

    def test_rejects_bad_extra_name(self):
        with pytest.raises(ValueError):
            SymbolUniverse(1, 1, frozenset({"2bad"}))

    def test_zero_dims_allowed(self):
        u = SymbolUniverse(0, 0, frozenset({"t"}))
        assert u.variable_names == ("t",)


# One node of each type, with its repr as the printed form to keep.
NODES = {
    "Const": (Const(Fraction(1, 3)), "Const(Fraction(1, 3))"),
    "Const float": (Const(0.5), "Const(0.5)"),
    "Var": (Var("x1"), "Var('x1')"),
    "Neg": (Neg(Var("x1")), "Neg(Var('x1'))"),
    "Add": (Add(Var("x1"), Const(2)), "Add(Var('x1'), Const(Fraction(2, 1)))"),
    "Sub": (Sub(Var("x1"), Const(2)), "Sub(Var('x1'), Const(Fraction(2, 1)))"),
    "Mul": (Mul(Var("x1"), Var("x2")), "Mul(Var('x1'), Var('x2'))"),
    "Div": (Div(Var("x1"), Var("x2")), "Div(Var('x1'), Var('x2'))"),
    "Pow": (Pow(Var("x1"), -3), "Pow(Var('x1'), -3)"),
    "Fn": (Fn("sin", Var("x1")), "Fn('sin', Var('x1'))"),
}


class TestNodes:
    def test_structural_equality_and_hash(self):
        a = Add(Var("x1"), Const(2))
        b = Add(Var("x1"), Const(2))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Add(Const(2), Var("x1"))
        # Exact and float constants of equal value are equal nodes.
        assert Const(Fraction(2)) == Const(2.0)
        assert hash(Const(Fraction(2))) == hash(Const(2.0))
        assert Add(Var("x1"), Const(2)) == Add(Var("x1"), Const(2.0))
        # Equal fields under a different node type or function are unequal.
        x, y = Var("x1"), Var("x2")
        assert Add(x, y) != Sub(x, y)
        assert Mul(x, y) != Div(x, y)
        assert Neg(x) != Fn("sin", x)
        assert Fn("sin", x) != Fn("cos", x)
        assert Pow(x, 2) != Pow(x, 3)
        # A 1000-term sum nests 1000 deep; hashing it must not recurse.
        text = " + ".join(f"{k}*x1*y1" for k in range(1, 1001))
        assert hash(parse_expr(text, U21)) == hash(parse_expr(text, U21))

    def test_repr(self):
        for node, text in NODES.values():
            assert repr(node) == text

    def test_immutable(self):
        e = Mul(Var("x1"), Var("x2"))
        with pytest.raises(AttributeError):
            e.left = Const(0)
        fields = ("_hash", "value", "name", "arg", "left", "right", "base", "exponent")
        for node, _ in NODES.values():
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(node, name, Const(0))

    def test_const_normalizes_int_to_fraction(self):
        c = Const(3)
        assert isinstance(c.value, Fraction)
        assert c.is_exact
        assert not Const(3.5).is_exact

    def test_const_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Const(float("inf"))
        with pytest.raises(ValueError):
            Const(float("nan"))

    def test_pow_exponent_is_int(self):
        with pytest.raises(TypeError):
            Pow(Var("x1"), 2.0)

    def test_operator_sugar(self):
        x = Var("x1")
        assert x + 1 == Add(x, Const(1))
        assert 2 * x == Mul(Const(2), x)
        assert x**3 == Pow(x, 3)
        assert -x == Neg(x)

    def test_as_expr_rejects_bool(self):
        with pytest.raises(TypeError):
            as_expr(True)

    def test_free_vars(self):
        e = parse_expr("x1*y1 + sin(x2)", U21)
        assert e.free_vars() == frozenset({"x1", "x2", "y1"})


class TestParser:
    def test_precedence_ladder(self):
        e = parse_expr("x1 + x2*x3^2", U33)
        assert e == Add(Var("x1"), Mul(Var("x2"), Pow(Var("x3"), 2)))

    def test_unary_minus_binds_loosest(self):
        assert parse_expr("-x1^2", U21) == Neg(Pow(Var("x1"), 2))
        assert parse_expr("-x1 + x2", U21) == Add(Neg(Var("x1")), Var("x2"))

    def test_left_associative_sub_div(self):
        assert parse_expr("x1 - x2 - x3", U33) == Sub(
            Sub(Var("x1"), Var("x2")), Var("x3")
        )
        assert parse_expr("x1/x2/x3", U33) == Div(Div(Var("x1"), Var("x2")), Var("x3"))

    def test_parens_override(self):
        assert parse_expr("(x1 + x2)*x3", U33) == Mul(
            Add(Var("x1"), Var("x2")), Var("x3")
        )

    def test_functions(self):
        assert parse_expr("sin(x1)*cos(x2)", U21) == Mul(
            Fn("sin", Var("x1")), Fn("cos", Var("x2"))
        )

    def test_decimal_literal_is_exact(self):
        e = parse_expr("0.1", U21)
        assert e == Const(Fraction(1, 10))

    def test_scientific_literal_is_float(self):
        e = parse_expr("1e3", U21)
        assert isinstance(e, Const)
        assert not e.is_exact
        assert e.value == 1000.0

    def test_negative_exponent_accepted(self):
        assert parse_expr("x1^-2", U21) == Pow(Var("x1"), -2)

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x1 + + x2", U21)
        assert exc.value.position == 6
        assert "position 6" in str(exc.value)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse_expr("x1 + q7", U21)
        assert exc.value.position == 6

    def test_out_of_range_variable(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("x3", U21)

    def test_function_arity(self):
        with pytest.raises(FunctionArityError):
            parse_expr("sin()", U21)
        with pytest.raises(FunctionArityError):
            parse_expr("sin(x1, x2)", U21)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x1 x2", U21)
        assert exc.value.position == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expr("(x1 + x2", U21)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expr("", U21)
        with pytest.raises(ParseError):
            parse_expr("   ", U21)


class TestPrinter:
    def test_needs_parens_for_grouping(self):
        assert to_text(Pow(Add(Var("x1"), Var("x2")), 2)) == "(x1 + x2)^2"
        assert to_text(Mul(Var("x1"), Add(Var("x2"), Var("x3")))) == "x1*(x2 + x3)"

    def test_no_spurious_parens(self):
        e = parse_expr("x1 + x2*x3^2", U33)
        assert to_text(e) == "x1 + x2*x3^2"

    def test_head_minus(self):
        assert to_text(Neg(Pow(Var("x1"), 2))) == "-x1^2"
        assert to_text(Sub(Const(1), Neg(Var("x1")))) == "1 - (-x1)"

    def test_fraction_decimal_form(self):
        assert to_text(Const(Fraction(1, 4))) == "0.25"
        assert to_text(Const(Fraction(1, 3))) == "1/3"

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_after_simplify(self, seed):
        # parse(print(e)) == e up to simplify on both sides
        gen = np.random.default_rng(seed)
        e = random_expr(gen, ("x1", "x2", "y1"))
        text = to_text(e)
        back = parse_expr(text, U21)
        assert simplify(back) == simplify(e)


class TestSubstitute:
    def test_simultaneous(self):
        e = parse_expr("x1 + y1", U21)
        swapped = substitute(e, {"x1": Var("y1"), "y1": Var("x1")})
        assert swapped == Add(Var("y1"), Var("x1"))

    def test_value_coercion(self):
        e = parse_expr("x1^2", U21)
        assert substitute(e, {"x1": 3}) == Pow(Const(3), 2)


class TestDiff:
    def test_polynomial(self):
        e = parse_expr("x1^2*x2", U33)
        d = diff(e, "x1")
        assert simplify(Sub(d, parse_expr("2*x1*x2", U33))) == Const(0)

    def test_chain_rule(self):
        d = diff(parse_expr("sin(x1^2)", U21), "x1")
        expected = parse_expr("cos(x1^2)*2*x1", U21)
        assert simplify(Sub(d, expected)) == Const(0)

    def test_quotient(self):
        d = diff(parse_expr("x1/x2", U21), "x2")
        x1, x2 = 1.7, 0.9
        got = eval_expr(d, {"x1": x1, "x2": x2})
        assert got == pytest.approx(-x1 / x2**2, rel=1e-12)

    def test_ln_and_exp(self):
        assert simplify(diff(parse_expr("ln(x1)", U21), "x1")) == Div(
            Const(1), Var("x1")
        )
        d = diff(parse_expr("exp(2*x1)", U21), "x1")
        val = eval_expr(d, {"x1": 0.3, "x2": 0.0, "y1": 0.0})
        assert val == pytest.approx(2 * math.exp(0.6), rel=1e-12)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            diff(parse_expr("x1", U21), "x9", U21)

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=120, deadline=None)
    def test_against_central_differences(self, seed):
        """diff agrees with a finite-difference oracle at benign points."""
        gen = np.random.default_rng(seed)
        e = random_expr(gen, ("x1", "x2"), depth=3)
        d = diff(e, "x1")
        h = 1e-6
        checked = 0
        for _ in range(8):
            point = {
                "x1": float(gen.uniform(0.2, 1.5)),
                "x2": float(gen.uniform(0.2, 1.5)),
            }
            try:
                up = eval_expr(e, {**point, "x1": point["x1"] + h})
                dn = eval_expr(e, {**point, "x1": point["x1"] - h})
                sym = eval_expr(d, point)
            except EvalError:
                continue  # singular sample, skip
            fd = (up - dn) / (2 * h)
            if not (math.isfinite(fd) and math.isfinite(sym)):
                continue
            if max(abs(up), abs(dn)) > 1e6:
                continue  # FD cancellation dominates, oracle unusable
            assert sym == pytest.approx(fd, rel=5e-4, abs=5e-4)
            checked += 1
        # most seeds give at least one usable point; quietly pass otherwise


class TestSimplify:
    def test_like_terms(self):
        assert simplify(parse_expr("2*x1 + 3*x1", U21)) == parse_expr("5*x1", U21)

    def test_identities(self):
        assert simplify(parse_expr("x1*1 + 0", U21)) == Var("x1")
        assert simplify(parse_expr("x1*0", U21)) == Const(0)
        assert simplify(parse_expr("x1^0", U21)) == Const(1)
        assert simplify(parse_expr("x1 - x1", U21)) == Const(0)

    def test_constant_folding_exact(self):
        assert simplify(parse_expr("2/3 + 1/3", U21)) == Const(1)
        assert simplify(parse_expr("0.1 + 0.2", U21)) == Const(Fraction(3, 10))

    def test_double_negation(self):
        assert simplify(Neg(Neg(Var("x1")))) == Var("x1")

    def test_function_special_values(self):
        assert simplify(parse_expr("sin(0)", U21)) == Const(0)
        assert simplify(parse_expr("cos(0)", U21)) == Const(1)
        assert simplify(parse_expr("ln(1)", U21)) == Const(0)

    def test_no_division_by_zero_folding(self):
        e = parse_expr("x1/0", U21)
        assert isinstance(simplify(e), Div)

    @pytest.mark.parametrize(
        "text, expected",
        [("1e308*y1 + 1e308*y1", "1e+308*y1 + 1e+308*y1"),
         ("-y1*1e308 - 1e308*y1", "-1e+308*y1 - 1e+308*y1"),
         ("1e308 + 1e308", "1e+308 + 1e+308"),
         ("1e308*y1 + 1e308*y1 - 1e308*y1", "1e+308*y1"),
         ("1e308*10*y1 + y1", "1e+308*10*y1 + y1"),
         ("1e308*10*0*y1", "1e+308*10*0*y1"),
         ("1e308*10*(-y1) + 1e308*10*(-y1)", "2*(1e+308*10*(-y1))"),
         ("10^400*1e308*x1 + x1", "10^400*1e+308*x1 + x1"),
         ("10^400/1e-308", "10^400/1e-308"),
         ("1e-308/10^-400", "1e-308/0." + "0" * 399 + "1"),
         # A later term merged into the last of a refused chain; the chain
         # is merged again, so a second pass finds nothing left to merge.
         ("1e308 - x1 + 1e308 - 5e307", "-x1 + 1.5e+308"),
         ("1e308*x1 + 1e308*x1 - 5e307*x1", "1.5e+308*x1"),
         ("1e308 + 1e308 - 9e307", "1.1e+308")],
    )
    def test_fold_past_double_range_is_refused(self, text, expected):
        # A coefficient or constant that would leave double range is not
        # folded; the summands or factors stay apart.
        once = simplify(parse_expr(text, U21))
        assert to_text(once).replace(str(10**400), "10^400") == expected
        assert_fixed_point(once)

    @given(st.integers(min_value=0, max_value=20000))
    @settings(max_examples=200, deadline=None)
    def test_constants_at_the_edge_of_double_range(self, seed):
        # Folding these overflows a float, or meets a Fraction no float holds.
        gen = np.random.default_rng(seed)
        edge = (1e308, -1e308, 1e-308, Fraction(10) ** 400, Fraction(1, 10**400), -0.0)
        e = substitute(
            random_expr(gen, ("x1", "x2", "y1", "y2")),
            {"y1": Const(edge[int(gen.integers(6))]), "y2": Const(edge[int(gen.integers(6))])},
        )
        assert_fixed_point(simplify(e))

    @given(st.integers(min_value=0, max_value=5000))
    @example(533)  # 6*(x1*x2) once came back as 6*x1*x2 on the second pass
    # With x2 -> 1.5 and y1 -> 1e308 the second pass once merged 1e308 and
    # 5e307, which a refused merge had left apart.
    @example(17540)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, seed):
        gen = np.random.default_rng(seed)
        e = random_expr(gen, ("x1", "x2", "y1"))
        assert_fixed_point(simplify(e))
        assert_fixed_point(simplify(substitute(e, {"x2": Const(1.5), "y1": Const(1e308)})))

    @staticmethod
    def held_after(run):
        """Bytes allocated by ``run()`` that are still held when it returns."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    @staticmethod
    def long_sum(n, reverse=False):
        ks = range(n, 0, -1) if reverse else range(1, n + 1)
        return expr_sum(Var("x1") ** k for k in ks)

    def test_cache_grows_linearly_with_a_sum(self):
        # The second pass keeps the sum's result and each summand's, but no
        # simplified prefix for the inner nodes of the sum, which would grow
        # as n^2 (about 16x from n = 50 to n = 200).
        held = []
        for n in (50, 200):
            e = self.long_sum(n)
            held.append(self.held_after(lambda: (simplify(e), simplify(e))))
        assert held[1] <= 6 * held[0]

    def test_one_comparison_keeps_no_copies(self):
        # expr_equal simplifies each node of both sides once, and a first
        # visit keeps no result.
        a, b = self.long_sum(160), self.long_sum(160, reverse=True)
        assert self.held_after(lambda: expr_equal(a, b)) <= 2048

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=150, deadline=None)
    def test_value_preserving(self, seed):
        gen = np.random.default_rng(seed)
        e = random_expr(gen, ("x1", "x2"), depth=3)
        s = simplify(e)
        for _ in range(6):
            point = {
                "x1": float(gen.uniform(-1.5, 1.5)),
                "x2": float(gen.uniform(-1.5, 1.5)),
            }
            try:
                a = eval_expr(e, point)
                b = eval_expr(s, point)
            except EvalError:
                continue
            if not (math.isfinite(a) and math.isfinite(b)):
                continue
            assert b == pytest.approx(a, rel=1e-9, abs=1e-9)

"""The exact route of ``expr_equal``: sparse expansion over Q.

Equal means equal wherever both sides are defined.  The expansion proves
equality when the numerator of ``a - b`` vanishes over a nonzero
denominator, and inequality when the numerator does not vanish and the
difference holds no atom (``sin``, ``cos``, ``exp``, ``ln``); everything
else is left to sampling.  ``test_poly_oracle`` checks the expansion
against sympy.
"""

import ast
import pathlib
import time

import pytest

from jetconn import (
    PROBABILISTIC,
    SYMBOLIC,
    SamplePolicy,
    SamplingError,
    SymbolUniverse,
    expr_equal,
    parse_expr,
    simplify,
)
from jetconn import _poly
from jetconn.evaluate import EqualityResult
from jetconn.expr import Add, Const, Fn, Mul, Neg, Pow, Sub, Var, expr_sum

U = SymbolUniverse(2, 1)
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetconn"


def P(text):
    return parse_expr(text, U)


def verdict(a, b):
    return _poly.decide(simplify(Sub(P(a), P(b))))


def outcome(a, b, policy=None):
    result = expr_equal(P(a), P(b), policy)
    return result.equal, result.confidence


class TestDecides:
    @pytest.mark.parametrize(
        "a, b",
        [("x1*x2 + y1", "y1 + x2*x1"),
         ("(x1 + x2)^2 - x1^2 - 2*x1*x2 - x2^2", "0"),
         ("(x1 + 1)^3", "x1^3 + 3*x1^2 + 3*x1 + 1"),
         ("x1/x1", "1"),
         ("(x1^2 - 1)/(x1 - 1)", "x1 + 1"),
         ("1/x1 + 1/x2", "(x1 + x2)/(x1*x2)"),
         ("x1^-2*x1^3", "x1"),
         ("x1/3 + x1/6", "x1/2")],
    )
    def test_polynomial_identities_are_symbolic(self, a, b):
        assert outcome(a, b) == (True, SYMBOLIC)
        assert verdict(a, b) is True

    @pytest.mark.parametrize(
        "a, b", [("(x1 + x2)^2", "x1^2 + x2^2"), ("1/x1", "1/x2"), ("x1/x2", "x2/x1")]
    )
    def test_polynomial_inequalities_are_symbolic(self, a, b):
        assert outcome(a, b) == (False, SYMBOLIC)

    def test_atoms_that_cancel_are_symbolic(self):
        a, b = "sin(x1)*(x2 + 1)^2", "sin(x1)*x2^2 + 2*x2*sin(x1) + sin(x1)"
        assert outcome(a, b) == (True, SYMBOLIC)

    def test_different_atoms_never_merge(self):
        for a, b in [("sin(x1)", "sin(x2)"), ("exp(x1)", "ln(x1)"),
                     ("cos(x1 + x2)", "cos(x1) + cos(x2)")]:
            assert verdict(a, b) is None

    def test_an_atom_anywhere_keeps_inequality_undecided(self):
        # The atoms cancel, but ln(-1 - x2^2) is defined nowhere over the
        # reals, so x1 != 0 cannot be claimed for the sides as written.
        a = "x1 + ln(-1 - x2^2)*(y1 + 1)^2"
        assert verdict(a, "ln(-1 - x2^2)*(y1^2 + 2*y1 + 1)") is None


class TestFallsBackToSampling:
    @pytest.mark.parametrize(
        "a, b", [("sin(x1)^2 + cos(x1)^2", "1"), ("exp(x1)*exp(x2)", "exp(x1 + x2)")]
    )
    def test_identities_through_atoms_sample(self, a, b):
        assert verdict(a, b) is None
        assert outcome(a, b) == (True, PROBABILISTIC)

    def test_float_constants_sample(self):
        # 0.1 + 0.2 is not 0.3 in floats, so a float coefficient is left over.
        a, b = "1e-1*x1 + 2e-1*x1", "3e-1*x1"
        assert _poly.expand(simplify(Sub(P(a), P(b)))) is None
        assert outcome(a, b) == (True, PROBABILISTIC)

    def test_float_half_cancels_exactly(self):
        # 0.5 is 1/2 exactly, and the sorted products are like terms.
        assert outcome("5e-1*x1*x2", "x2*x1/2") == (True, SYMBOLIC)

    def test_zero_denominator_still_raises(self):
        # simplify leaves x1/0; the expansion's denominator is the zero
        # polynomial, so sampling decides, and it finds no regular point.
        for a, b in [("x1/(x1 - x1)", "1"), ("(x1 - x1)/(x1 - x1)", "0")]:
            assert verdict(a, b) is None
            with pytest.raises(SamplingError):
                expr_equal(P(a), P(b))

    def test_hidden_zero_denominator_is_not_decided(self):
        assert verdict("x1/((x1 + 1)^2 - x1^2 - 2*x1 - 1)", "1") is None


class TestGivesUp:
    def test_large_multinomial_power(self):
        u = SymbolUniverse(6, 0)
        e = Pow(parse_expr("x1 + x2 + x3 + x4 + x5 + x6", u), 20)
        assert _poly.expand(e) is None

    def test_huge_exponent(self):
        x = Var("x1")
        assert _poly.expand(Pow(Add(x, Const(1)), 2**31 - 1)) is None
        assert _poly.expand(Pow(Mul(Const(2), x), 2**31 - 1)) is None

    def test_huge_exponent_of_a_unit_monomial_is_cheap(self):
        num, den, atoms = _poly.expand(Pow(Neg(Var("x1")), 2**31 - 1))
        assert num == {(2**31 - 1,): -1} and den == {(0,): 1} and not atoms

    def test_too_many_generators(self):
        x = Var("x1")
        atoms = [Fn("sin", Mul(Const(k), x)) for k in range(1, _poly.MAX_GENERATORS + 1)]
        assert _poly.expand(expr_sum(atoms)) is not None
        assert _poly.expand(expr_sum(atoms + [Fn("cos", x)])) is None

    def test_budget_is_checked_before_multiplying(self, monkeypatch):
        square = Pow(P("x1 + x2 + y1 + 1"), 2)
        assert _poly.expand(square) is not None
        monkeypatch.setattr(_poly, "BUDGET", 15)
        assert _poly.expand(square) is None


class TestIterative:
    def test_long_sum_does_not_recurse(self):
        x = Var("x1")
        e = expr_sum(Mul(Const(k), Pow(x, k)) for k in range(1, 10_001))
        num, den, _ = _poly.expand(e)
        assert len(num) == 10_000 and num[(10_000,)] == 10_000
        assert den == {(0,): 1}

    def test_shared_subtrees_are_expanded_once(self):
        # 2^60 paths through 61 nodes; the atom is one generator, its
        # argument never expanded.
        atom = Fn("sin", P("x1 + y1"))
        e = atom
        for _ in range(60):
            e = Mul(e, e)
        assert _poly.expand(Sub(e, Neg(atom))) == ({(2**60,): 1, (1,): 1}, {(0,): 1}, True)

    def test_long_difference_cancels(self):
        terms = [Pow(Var("x1"), k) for k in range(10_000)]
        e = Sub(expr_sum(terms), expr_sum(reversed(terms)))
        assert _poly.decide(e) is True

    def test_difference_too_deep_to_simplify(self):
        # The sums nest 2000 deep, past the interpreter's recursion limit;
        # simplify(a - b) flattens them on a stack and settles both.
        terms = [Pow(Var("x1"), k) for k in range(2000)]
        a, b = expr_sum(terms), expr_sum(reversed(terms))
        assert expr_equal(a, b) == EqualityResult(True, SYMBOLIC)
        assert expr_equal(a, Add(b, Const(1))) == EqualityResult(False, SYMBOLIC)


    def test_equal_deep_atom_arguments(self):
        # Two distinct 5000-term sums, equal as trees: == compares them on a
        # stack, so the two atoms are one generator.
        def long_sum():
            return expr_sum(Mul(Const(k), Pow(Var("x1"), k)) for k in range(1, 5001))

        verdict = _poly.decide(Sub(Fn("sin", long_sum()), Fn("sin", long_sum())))
        assert verdict is True

    def test_shared_sums_are_expanded_once(self):
        e = Var("x1")
        for _ in range(40):
            e = Add(e, e)
        start = time.perf_counter()
        verdict = _poly.decide(Sub(e, Mul(Const(2**40), Var("x1"))))
        seconds = time.perf_counter() - start
        assert verdict is True and seconds < 0.1


class TestTolerance:
    def test_tiny_polynomial_difference_is_unequal(self):
        # Sampling within --tol called these equal; the exact route does not.
        a, b = "(x1 + 1)^2", "x1^2 + 2*x1 + 1.000000000001"
        assert outcome(a, b, SamplePolicy(tol=1e-9)) == (False, SYMBOLIC)


def test_jetconn_does_not_import_sympy():
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            assert not any(name.split(".")[0] == "sympy" for name in names), path.name

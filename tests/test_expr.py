"""Expression layer: parser, printer, differentiation, simplification."""

import copy
import functools
import gc
import math
import os
import pathlib
import pickle
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from jetconn import (
    PROBABILISTIC,
    SYMBOLIC,
    Add,
    Const,
    Div,
    EqualityResult,
    EvalError,
    Expr,
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

from jetconn import _derive, _poly, evaluate
from jetconn.expr import _ATOM, _FLOAT, MAX_DIGITS, expr_sum, postorder, summands

from conftest import random_entries, random_expr

U21 = SymbolUniverse(2, 1)
U33 = SymbolUniverse(3, 3)


@functools.lru_cache(maxsize=None)
def long_sum():
    """The simplified sum of ``k*x1^k*y1``, k = 1..10 000: it nests 10 000 deep."""
    return simplify(parse_expr(" + ".join(f"{k}*x1^{k}*y1" for k in range(1, 10_001)), U21))


def doubling_dag(n):
    """``e = e + e*y1`` done ``n`` times from ``x1``: 2^n paths through 2n + 2 nodes."""
    e, y1 = Var("x1"), Var("y1")
    for _ in range(n):
        e = Add(e, Mul(e, y1))
    return e


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

    @pytest.mark.parametrize("name, dims, member", [
        ("x0", (12, 12), False),
        ("x01", (12, 12), False),
        ("x10", (10, 1), True),
        ("x10", (9, 1), False),
        ("y1", (2, 0), False),
        ("y1", (0, 1), True),
        ("X1", (2, 1), False),
        ("x\u0661", (2, 1), False),  # an Arabic-Indic digit one, which int() reads
        pytest.param("x" + "1" * 5000, (2, 1), False, id="x11...1"),  # more digits than int() reads
    ])
    def test_coordinate_names(self, name, dims, member):
        assert (name in SymbolUniverse(*dims)) is member

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
        with pytest.raises(TypeError):
            SymbolUniverse(1, 1, frozenset({3}))

    def test_zero_dims_allowed(self):
        u = SymbolUniverse(0, 0, frozenset({"t"}))
        assert u.variable_names == ("t",)


# One node of each type, with its repr as the printed form to keep.
NODES = {
    "Const": (Const(Fraction(1, 3)), "Const(Fraction(1, 3))"),
    "Const float": (Const(0.5), "Const(0.5)"),
    "Var": (Var("x1"), "Var('x1')"),
    "Neg": (Neg(Var("x1")), "Neg(Var('x1'))"),
    "Add": (Add(Var("x1"), Const(2)), "Add(Var('x1'), Const(2))"),
    "Sub": (Sub(Var("x1"), Const(2)), "Sub(Var('x1'), Const(2))"),
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
        # A 1000-term sum nests 1000 deep; hashing and comparing it must not recurse.
        text = " + ".join(f"{k}*x1*y1" for k in range(1, 1001))
        a, b = parse_expr(text, U21), parse_expr(text, U21)
        assert hash(a) == hash(b) and a == b
        assert a != parse_expr(text.replace("1*x1", "1*x2", 1), U21)

    def test_repr(self):
        for node, text in NODES.values():
            assert repr(node) == text

    @pytest.mark.parametrize("name", [*sorted(NODES), "long sum"])
    def test_copy_and_pickle_rebuild_the_node(self, name):
        node, text = NODES[name] if name in NODES else (long_sum(), repr(long_sum()))
        simplify(node)
        simplify(node)  # the root keeps its result in its _simple slot
        for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(twin) is type(node) and repr(twin) == text
            assert twin == node and hash(twin) == hash(node)
            assert all(n._simple is None for n in postorder([twin]))

    def test_copy_keeps_shared_nodes_shared(self):
        e = doubling_dag(40)
        for twin in (copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert twin is not e and twin.left is twin.right.left
            assert len(list(postorder([twin]))) == 82 and twin._hash == e._hash

    def test_immutable(self):
        e = Mul(Var("x1"), Var("x2"))
        with pytest.raises(AttributeError):
            e.left = Const(0)
        fields = ("_hash", "value", "name", "arg", "left", "right", "base", "exponent")
        for node, _ in NODES.values():
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(node, name, Const(0))

    def test_const_keeps_an_integral_value_as_int(self):
        for value in (3, Fraction(3), Fraction(6, 2)):
            c = Const(value)
            assert type(c.value) is int and c.value == 3
            assert c.is_exact
        assert not Const(3.5).is_exact

    def test_const_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Const(float("inf"))
        with pytest.raises(ValueError):
            Const(float("nan"))

    def test_variable_names_are_ascii_identifiers(self):
        # The pattern the names were once checked with, against the check
        # that replaced it, on random strings over identifier characters,
        # edge characters and whitespace.
        pattern = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
        rng = np.random.default_rng(9)
        alphabet = list("aZx1_9-é٣ \t\n\0$") + ["", "\u00a0"]
        names = ["", "x1", "_", "1x", "if", "x1\n", "\u0661"]
        names += ["".join(rng.choice(alphabet, int(rng.integers(1, 5)))) for _ in range(20_000)]
        for name in names:
            if pattern.fullmatch(name):
                assert Var(name).name == name
            else:
                with pytest.raises(ValueError, match="invalid variable name"):
                    Var(name)
        for name in (3, None, b"x1"):
            with pytest.raises(TypeError):
                Var(name)

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

    def test_equality_takes_a_shared_subtree_once(self):
        e = doubling_dag(40)
        start = time.perf_counter()
        assert copy.deepcopy(e) == e
        # 1 and 2^61 hash alike, so every pair above the leaves agrees in hash.
        one, other = (substitute(e, {"x1": Const(c)}) for c in (1, 2**61))
        assert hash(one) == hash(other)
        assert one != other
        assert time.perf_counter() - start < 0.1

    def test_free_vars(self):
        e = parse_expr("x1*y1 + sin(x2)", U21)
        assert e.free_vars() == frozenset({"x1", "x2", "y1"})

    def test_free_vars_and_substitute_take_a_shared_subtree_once(self):
        e = doubling_dag(40)
        start = time.perf_counter()
        names = e.free_vars()
        image = substitute(e, {"y1": Var("x2")})
        seconds = time.perf_counter() - start
        assert names == {"x1", "y1"} and image.free_vars() == {"x1", "x2"}
        assert image.left is image.right.left and len(list(postorder([image]))) == 82
        assert seconds < 0.1


class TestWalks:
    def test_postorder_yields_a_shared_subtree_once(self):
        x, y = Var("x1"), Var("y1")
        s = Mul(x, y)
        e = Add(s, Neg(s))
        # Operands come before their node, and the last operand is walked first.
        expected = [id(n) for n in (y, x, s, e.right, e)]
        assert [id(n) for n in postorder([e])] == expected
        assert [id(n) for n in postorder([s, e, s])] == expected
        assert list(postorder([x, y])) == [y, x]

    def test_postorder_children(self):
        e = parse_expr("sin(x1) + y1*x2", U21)
        # No operands for a function node: its argument is not walked.
        walk = postorder([e], lambda n: () if isinstance(n, Fn) else n.children())
        assert [to_text(n) for n in walk] == ["x2", "y1", "y1*x2", "sin(x1)", to_text(e)]

    def test_postorder_walks_a_deep_chain_without_recursion(self):
        e = Var("x1")
        for _ in range(10_000):
            e = Neg(e)
        walk = list(postorder([e]))
        assert len(walk) == 10_001 and walk[0] == Var("x1") and walk[-1] is e

    def test_transforms_walk_a_long_sum_without_recursion(self):
        s = long_sum()
        text = to_text(s)
        assert parse_expr(text, U21) == s
        assert repr(s).count("Var('y1')") == 10_000
        assert to_text(substitute(s, {"y1": Var("x2")})) == text.replace("y1", "x2")
        derivative = " + ".join(f"{k * k}*x1^{k - 1}*y1" for k in range(1, 10_001))
        assert diff(s, "x1") == simplify(parse_expr(derivative, U21))

    def test_summands_carry_their_signs(self):
        x1, x2, y1 = Var("x1"), Var("x2"), Var("y1")
        e = Add(Sub(x1, Sub(x2, y1)), Neg(Add(Var("x1"), y1)))  # x1 - (x2 - y1) + -(x1 + y1)
        # A term object met twice is one term with the sum of its signs.
        assert summands([(1, e), (-1, x2)]) == [(1, x1), (-2, x2), (0, y1), (-1, Var("x1"))]
        assert [id(t) for _, t in summands([(1, e)])][:3] == [id(x1), id(x2), id(y1)]

    def test_summands_take_a_shared_sum_once(self):
        # 2^60 paths through 61 sums: each sum is flattened through once, and
        # reached again it is a term.  Only ids are compared, as the repr of
        # such a tree is as long as its paths.
        x1, y1 = Var("x1"), Var("y1")
        sums = [Sub(x1, y1)]
        for _ in range(60):
            sums.append(Add(sums[-1], sums[-1]))
        e = sums[-1]
        out = summands([(1, e), (3, Neg(e))])
        assert [k for k, _ in out] == [1, -1] + [1] * 60 + [-3]
        assert [id(t) for _, t in out] == [id(x1), id(y1)] + [id(s) for s in sums]
        once = simplify(Sub(e, parse_expr(f"{2**60}*x1 - {2**60}*y1", U21)))
        assert once == Const(0)

    def test_flags_agree_with_a_walk(self):
        # The float and atom flags are set from the operands' at construction.
        for seed in range(200):
            for e in random_entries(seed, floats=seed % 2 == 1, count=4):
                for node in (e, simplify(e)):
                    nodes = list(postorder([node]))
                    floats = any(type(n) is Const and type(n.value) is float for n in nodes)
                    atoms = any(isinstance(n, Fn) for n in nodes)
                    assert node._flags == floats * _FLOAT + atoms * _ATOM


class TestParser:
    def test_precedence_ladder(self):
        e = parse_expr("x1 + x2*x3^2", U33)
        assert e == Add(Var("x1"), Mul(Var("x2"), Pow(Var("x3"), 2)))

    def test_leading_minus_negates_a_whole_term(self):
        assert parse_expr("-x1^2", U21) == Neg(Pow(Var("x1"), 2))
        assert parse_expr("-x1 + x2", U21) == Add(Neg(Var("x1")), Var("x2"))
        assert parse_expr("-x1*x2 + y1", U21) == Add(Neg(Mul(Var("x1"), Var("x2"))), Var("y1"))
        assert parse_expr("x1 - (-x2/y1)", U21) == Sub(Var("x1"), Neg(Div(Var("x2"), Var("y1"))))

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

    @pytest.mark.parametrize("word", ["1e3", "2E-2", "1.5e-3", "12345678901234567890e-5",
                                      "4.9e-324", "1.7976931348623157e308", "0.1e1"])
    def test_scientific_literal_is_rounded_once(self, word):
        assert parse_expr(word, U21).value.hex() == float(Fraction(word)).hex()

    def test_scientific_literal_takes_no_power_of_ten(self):
        # float() rounds the literal itself: an exact 10^-9999999 or
        # 10^9999999 would take seconds to build.
        start = time.perf_counter()
        assert repr(parse_expr("1e-9999999*y1", U21)) == "Mul(Const(0.0), Var('y1'))"
        with pytest.raises(ParseError) as exc:
            parse_expr("x1 + 1e9999999*y1", U21)
        assert str(exc.value) == "number out of floating point range (at position 6)"
        with pytest.raises(ParseError, match=r"^number out of floating point range \(at position 1\)$"):
            parse_expr("1e400", U21)
        assert time.perf_counter() - start < 1.0

    def test_negative_exponent_accepted(self):
        assert parse_expr("x1^-2", U21) == Pow(Var("x1"), -2)

    def test_error_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x1 + + x2", U21)
        assert exc.value.position == 6
        assert "position 6" in str(exc.value)

    @pytest.mark.parametrize("text", ["x1 + é", "x1 + ²"])
    def test_non_ascii_character_is_a_parse_error(self, text):
        # A letter or digit outside ASCII starts no token.
        with pytest.raises(ParseError) as exc:
            parse_expr(text, U21)
        assert exc.value.position == 6

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("x1 + ) @", ParseError, "unexpected character '@' (at position 8)"),
            ("sin x1", ParseError, "expected '(' (at position 5)"),
            ("sin()", FunctionArityError, "sin() takes exactly one argument (at position 5)"),
            ("cos(x1, y1)", FunctionArityError,
             "cos() takes exactly one argument (at position 7)"),
            ("(x1 + y1", ParseError, "expected ')' (at position 9)"),
            ("(x1, y1)", ParseError, "expected ')' (at position 4)"),
            ("sin(x1^2^3)", ParseError, "expected ')' (at position 9)"),
            ("x1 y1", ParseError, "unexpected trailing input 'y1' (at position 4)"),
            ("(x1))", ParseError, "unexpected trailing input ')' (at position 5)"),
            ("x1^2^3", ParseError, "unexpected trailing input '^' (at position 5)"),
            ("x1^1.5", ParseError, "expected an integer exponent (at position 4)"),
            ("x1^--2", ParseError, "expected an integer exponent (at position 5)"),
            ("x1*-y1", ParseError, "expected a number, variable or '(' (at position 4)"),
            ("--x1", ParseError, "expected a number, variable or '(' (at position 2)"),
            ("", ParseError, "expected a number, variable or '(' (at position 1)"),
            ("x1 + q7", UnknownIdentifierError, "unknown identifier 'q7' (at position 6)"),
            # Whitespace of every kind, a no-break space (U+00A0) too, counts
            # one position per character.
            ("x1\t+\t\t@", ParseError, "unexpected character '@' (at position 7)"),
            ("x1 +\n\n)", ParseError, "expected a number, variable or '(' (at position 7)"),
            ("\n\tx1\t*\n(y1 +\t)", ParseError,
             "expected a number, variable or '(' (at position 14)"),
            ("x1\u00a0+\u00a0q7", UnknownIdentifierError,
             "unknown identifier 'q7' (at position 6)"),
            ("x1\u00a0\u00a0y1", ParseError, "unexpected trailing input 'y1' (at position 5)"),
            ("\u00a0sin\u00a0x1", ParseError, "expected '(' (at position 6)"),
            # Names used twice: the first use of an unknown one is reported.
            ("q7 + q7", UnknownIdentifierError, "unknown identifier 'q7' (at position 1)"),
            ("x1*x1 + q7*q7", UnknownIdentifierError, "unknown identifier 'q7' (at position 9)"),
            ("x1 + x1 + ) ", ParseError, "expected a number, variable or '(' (at position 11)"),
            ("y1*y1*y1^x1", ParseError, "expected an integer exponent (at position 10)"),
            # A letter or digit outside ASCII.
            ("x1 + ٣", ParseError, "unexpected character '٣' (at position 6)"),
            ("x1*é", ParseError, "unexpected character 'é' (at position 4)"),
            ("x1 + 2٣", ParseError, "unexpected character '٣' (at position 7)"),
            ("é + ٣", ParseError, "unexpected character 'é' (at position 1)"),
            ("sin(٣)", ParseError, "unexpected character '٣' (at position 5)"),
        ],
    )
    def test_messages_and_positions(self, text, error, message):
        with pytest.raises(ParseError) as exc:
            parse_expr(text, U21)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_first_lexical_error_is_reported(self):
        # A long literal and a bad character: whichever comes first, in
        # either order, and before any error of the grammar.
        long = "1" + "9" * MAX_DIGITS
        too_long = f"number of more than {MAX_DIGITS} digits"
        for text, message, position in [
            (f"x1 + {long} @", too_long, 6),
            (f"x1 @ {long}", "unexpected character '@'", 4),
            (f"x1 + ) {long}", too_long, 8),
            (f"x1\t+ {long}é", too_long, 6),
            (f"{long}٣{long}", too_long, 1),
            (f"\u00a0٣{long}", "unexpected character '٣'", 2),
        ]:
            with pytest.raises(ParseError) as exc:
                parse_expr(text, U21)
            assert str(exc.value) == f"{message} (at position {position})"
            assert exc.value.position == position

    def test_deep_nesting_parses_without_recursion(self):
        deep = "(" * 100_000 + "x1*y1" + ")" * 100_000
        assert parse_expr(deep, U21) == Mul(Var("x1"), Var("y1"))
        for prefix, node in (("-(", Neg), ("sin(", functools.partial(Fn, "sin"))):
            expected = Var("x1")
            for _ in range(5000):
                expected = node(expected)
            assert parse_expr(prefix * 5000 + "x1" + ")" * 5000, U21) == expected

    def test_literal_digits_are_bounded(self):
        longest = "9" * MAX_DIGITS
        assert parse_expr(f"x1^{longest}", U21) == Pow(Var("x1"), int(longest))
        exact = Const(Fraction(int(longest), 10 ** (MAX_DIGITS - 1)))
        assert parse_expr(f"9.{longest[1:]}", U21) == exact
        # A lexical error: reported before the unbalanced parenthesis after it.
        message = rf"^number of more than {MAX_DIGITS} digits \(at position 6\)$"
        with pytest.raises(ParseError, match=message):
            parse_expr(f"x1 + 1{longest} + )", U21)

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

    @pytest.mark.parametrize(
        "e, text",
        [(Add(Neg(Var("x1")), Var("y1")), "-x1 + y1"),
         (Sub(Const(-2), Var("x1")), "-2 - x1"),
         (Fn("sin", Sub(Neg(Var("x1")), Const(1))), "sin(-x1 - 1)"),
         (Mul(Add(Neg(Var("x1")), Const(1)), Var("y1")), "(-x1 + 1)*y1"),
         (Add(Add(Neg(Var("x1")), Var("y1")), Const(-1)), "-x1 + y1 + (-1)"),
         (Sub(Var("y1"), Add(Neg(Var("x1")), Const(1))), "y1 - (-x1 + 1)")],
    )
    def test_signed_left_operand(self, e, text):
        # A sum's left operand may start with a minus wherever the sum may.
        assert to_text(e) == text

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


def opaque_zero_quotients(e):
    """``e`` with each distinct quotient by the constant 0 replaced by a variable."""
    names, done = {}, {}
    for node in postorder([e]):
        if type(node) in (Const, Var):
            out = node
        else:
            out = type(node)(*[done[id(f)] if isinstance(f, Expr) else f for f in node._key()])
            if type(out) is Div and out.right == Const(0):
                out = names.setdefault(out, Var(f"zero{len(names)}"))
        done[id(node)] = out
    return done[id(e)]


def compare_with_binary_route(seeds, names=("x1", "x2", "y1")):
    """Counts of (tree, variable) pairs by how ``diff`` and the binary route compare."""
    counts = {"equal": 0, "proved": 0, "unproved": 0}
    for seed in seeds:
        e = random_expr(np.random.default_rng(seed), names)
        for v in names:
            new, old = diff(e, v), simplify(_derive.product_rule_tree(e, v))
            if repr(new) == repr(old):
                counts["equal"] += 1
            elif _poly.decide(opaque_zero_quotients(Sub(new, old))):
                counts["proved"] += 1
            else:
                counts["unproved"] += 1
    return counts


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

    @pytest.mark.parametrize(
        "a, b, expected",
        [("sin(x1)*x1*y1", "y1*x1*sin(x1)", "x1*y1*cos(x1) + y1*sin(x1)"),
         ("(x1 + 1)*(x1 + 1)", "(x1 + 1)^2", "2*(x1 + 1)"),
         ("x2*(x1*y1)^2", "(x2*x1)*(y1*(x1*y1))", "2*x1*x2*y1^2")],
    )
    def test_grouping_does_not_change_the_derivative(self, a, b, expected):
        # diff works on simplify(e), so inputs with one canonical form agree.
        first, second = (diff(parse_expr(text, U21), "x1") for text in (a, b))
        assert repr(first) == repr(second)
        assert to_text(first) == expected

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_derivative_of_the_canonical_form(self, seed):
        e = random_expr(np.random.default_rng(seed), ("x1", "x2", "y1"))
        for v in ("x1", "x2", "y1"):
            d = diff(e, v)
            assert repr(d) == repr(diff(simplify(e), v))
            assert_fixed_point(d)

    @pytest.mark.parametrize("prefix", ["ln(", "sin(", "exp(", "1/(1 + "])
    def test_a_chain_of_functions_is_merged_once(self, prefix):
        # Each link's slope is built on its argument's, not merged again:
        # 500 nested ln took 9 s when every link sorted the quotient below it.
        e = parse_expr(prefix * 300 + "x1*y1" + ")" * 300, U21)
        start = time.perf_counter()
        d = diff(e, "x1")
        assert time.perf_counter() - start < 1.0
        assert repr(d) == repr(simplify(_derive.product_rule_tree(e, "x1")))

    def test_zero_markers_are_kept(self):
        # ln(0) and a/0 differentiate to 0/0 though no variable is in them.
        e = parse_expr("ln(0)*y1 + x1/0 + ln(x2 - x2)", U21)
        assert to_text(diff(e, "x1")) == "y1*(0/0) + 2*(0/0)"
        assert to_text(diff(parse_expr("sin(x2)/0", U21), "x1")) == "0/0"

    def test_float_constant_keeps_the_binary_route(self):
        # simplify folds 1e0 away, but the derivative keeps its float 1.0.
        e = parse_expr("1e0*x1 + 2.5e0*x1*x1", U21)
        assert repr(diff(e, "x1")) == repr(simplify(_derive.product_rule_tree(e, "x1")))
        assert to_text(diff(e, "x1")) == "5.0*x1 + 1.0"

    def test_against_the_binary_route(self):
        """``diff`` against ``simplify`` of the binary product-rule tree.

        Where the two differ in grouping, as in ``y1*(x1*cos(x1) + sin(x1))``
        against ``x1*y1*cos(x1) + y1*sin(x1)``, the exact expansion must
        prove them equal, a quotient by the constant 0 standing for a
        variable of its own.
        """
        counts = compare_with_binary_route(range(2000))
        assert counts["unproved"] == 0
        assert counts["equal"] > 0.98 * sum(counts.values())

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
         ("1e308*10*y1 + y1", "y1 + 1e+308*10*y1"),
         ("1e308*10*0*y1", "1e+308*10*0*y1"),
         # A product whose constants do not fold keeps them in their order,
         # a Neg among them as -1, in front of its factors.
         ("1e308*10*(-y1) + 1e308*10*(-y1)", "2*1e+308*10*(-1)*y1"),
         ("10^400*1e308*x1 + x1", "x1 + 10^400*1e+308*x1"),
         ("10^400/1e-308", "10^400/1e-308"),
         ("1e-308/10^-400", "1e-308/0." + "0" * 399 + "1"),
         # A later term merged into the last of a refused chain; the chain
         # is merged again, so a second pass finds nothing left to merge.
         ("1e308 - x1 + 1e308 - 5e307", "-x1 + 1.5e+308"),
         ("1e308*x1 + 1e308*x1 - 5e307*x1", "1.5e+308*x1"),
         ("1e308 + 1e308 - 9e307", "1.1e+308"),
         # A refused chain that merges back to zero leaves nothing of it.
         ("1e308*y1 + 1e308*y1 - 1e308*y1 - 1e308*y1", "0"),
         ("1e308*y1 + 1e308*y1 - 1e308*y1 - 1e308*y1 + x1", "x1"),
         # A quotient whose fold overflowed stays one opaque factor of its term.
         ("1e300/(1/10^10) + 1e300/(1/10^10)", "2*(1e+300/0.0000000001)")],
    )
    def test_fold_past_double_range_is_refused(self, text, expected):
        # A coefficient or constant that would leave double range is not
        # folded; the summands or factors stay apart.
        once = simplify(parse_expr(text, U21))
        assert to_text(once).replace(str(10**400), "10^400") == expected
        assert_fixed_point(once)

    @pytest.mark.parametrize(
        "a, b", [("x1*y1", "y1*x1"), ("x1*x1", "x1^2"), ("sin(x1 + x2)", "sin(x2 + x1)")]
    )
    def test_commuted_operands_cancel(self, a, b):
        assert simplify(Sub(parse_expr(a, U21), parse_expr(b, U21))) == Const(0)

    def test_equal_atoms_are_settled_symbolically(self):
        a, b = parse_expr("sin(x1 + x2)", U21), parse_expr("sin(x2 + x1)", U21)
        assert expr_equal(a, b) == EqualityResult(True, SYMBOLIC)

    def test_powers_merge_only_with_the_same_sign(self):
        # x1*x1^-1 is undefined at 0, so it does not become 1.
        assert to_text(simplify(parse_expr("x1*x1^-1*x1^2*x1^-2", U21))) == "x1^-3*x1^3"
        assert to_text(simplify(parse_expr("-x2*x1*3*x1", U21))) == "-3*x1^2*x2"

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=100, deadline=None)
    def test_reordered_polynomial_has_one_form(self, seed):
        # Terms shuffled and each term's factors reversed, as the benchmark's
        # sampling workload writes H_ji from H_ij.
        gen = np.random.default_rng(seed)
        names = ("x1", "x2", "y1")

        def factors():
            return [str(gen.choice(names)) for _ in range(int(gen.integers(0, 4)))]

        terms = [(int(gen.integers(-9, 10)), factors()) for _ in range(int(gen.integers(1, 8)))]
        text = " + ".join("*".join([f"({c})"] + f) for c, f in terms)
        gen.shuffle(terms)
        shuffled = " + ".join("*".join(f[::-1] + [f"({c})"]) for c, f in terms)
        once = simplify(parse_expr(text, U21))
        assert repr(simplify(parse_expr(shuffled, U21))) == repr(once)
        assert_fixed_point(once)

    def test_long_sum_without_recursion(self):
        # 10^4 terms nest 10^4 deep; the same terms, built again in the
        # opposite order, cancel them.
        def terms(ks):
            return expr_sum(Mul(Const(k), Mul(Pow(Var("x1"), k), Var("y1"))) for k in ks)

        once = simplify(terms(range(1, 10_001)))
        assert [k for k, _ in summands([(1, once)])] == [1] * 10_000
        difference = simplify(Sub(terms(range(1, 10_001)), terms(range(10_000, 0, -1))))
        assert difference == Const(0)

    def test_shared_sums_are_flattened_once(self):
        e = Var("x1")
        for _ in range(40):
            e = Add(e, e)
        start = time.perf_counter()
        once = simplify(e)
        seconds = time.perf_counter() - start
        assert once == parse_expr("1099511627776*x1", U21) and seconds < 0.1

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
        # The first pass keeps the sum's result, which the second reads, but
        # no simplified prefix for the inner nodes of the sum, which would
        # grow as n^2 (about 16x from n = 50 to n = 200).
        held = []
        for n in (50, 200):
            e = self.long_sum(n)
            held.append(self.held_after(lambda: (simplify(e), simplify(e))))
        assert held[1] <= 6 * held[0]

    def test_one_comparison_keeps_no_copies(self):
        # expr_equal simplifies one new tree over both sides, and only its
        # root, which the comparison drops, keeps a result.
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


class TestIdenticalSides:
    """``expr_equal`` settles two float-free sides of equal structure at once."""

    @staticmethod
    def counted(monkeypatch):
        """The calls of ``simplify`` that ``expr_equal`` makes from now on."""
        calls = []

        def counting(e):
            calls.append(e)
            return simplify(e)

        monkeypatch.setattr(evaluate, "simplify", counting)
        return calls

    @pytest.mark.parametrize("text", ["x1*y1 + sin(x2)/3", "ln(0*x1) - 0.5*x1^-2",
                                      "1/(x1 - x1)", "exp(1000 + x1^2)", "7"])
    def test_decided_without_simplify(self, monkeypatch, text):
        a, b = parse_expr(text, U21), parse_expr(text, U21)

        def refuse(e):
            raise AssertionError("simplify was called")

        monkeypatch.setattr(evaluate, "simplify", refuse)
        assert expr_equal(a, b) == EqualityResult(True, SYMBOLIC)
        assert expr_equal(a, a) == EqualityResult(True, SYMBOLIC)

    def test_unequal_sides_take_the_full_route(self, monkeypatch):
        calls = self.counted(monkeypatch)
        a, b = parse_expr("x1*y1", U21), parse_expr("y1*x1", U21)
        assert expr_equal(a, b) == EqualityResult(True, SYMBOLIC)
        assert expr_equal(a, Add(b, Const(1))) == EqualityResult(False, SYMBOLIC)
        assert len(calls) == 2

    @pytest.mark.parametrize("text, expected", [
        # Float merges depend on their order: 0.1 + 0.2 - 0.1 - 0.2 is not 0.
        ("1e-1*x1 + 2e-1*x1", EqualityResult(True, PROBABILISTIC)),
        ("1.5e0*x1", EqualityResult(True, SYMBOLIC)),
    ])
    def test_float_sides_take_the_full_route(self, monkeypatch, text, expected):
        calls = self.counted(monkeypatch)
        assert expr_equal(parse_expr(text, U21), parse_expr(text, U21)) == expected
        assert len(calls) == 1

    def test_exact_against_float_takes_the_full_route(self, monkeypatch):
        # Const(2) == Const(2.0), so these sides are equal in structure.
        calls = self.counted(monkeypatch)
        exact, inexact = Mul(Var("x1"), Const(2)), Mul(Var("x1"), Const(2.0))
        assert exact == inexact
        assert expr_equal(exact, inexact) == EqualityResult(True, SYMBOLIC)
        assert expr_equal(inexact, exact) == EqualityResult(True, SYMBOLIC)
        assert expr_equal(Const(2), Const(2.0)) == EqualityResult(True, SYMBOLIC)
        assert len(calls) == 3


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(*argv):
    """Run a script of the checkout from its root, importing jetconn from its ``src``."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    out = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stdout + out.stderr
    return out


def test_bench_simplify_runs():
    out = run_script("benchmarks/bench_simplify.py", "--sizes", "10,20", "--depth", "10",
                     "--repeat", "1")
    lines = out.stdout.splitlines()
    assert lines[0] == "| n | 10 | 20 |"
    assert [line.split(",")[0] for line in lines[2:7]] == [
        "| simplify", "| diff", "| diff (parsed)", "| to_text", "| parse"]
    assert lines[-3].endswith("against a deepcopy -> True")
    assert lines[-2].endswith("-> 1024")  # d/dx1 of 2^10*x1
    assert lines[-1].endswith("-> 1024*x1")


def test_parse_differential_runs():
    # Against this checkout's own src, so every text must agree.
    out = run_script("benchmarks/parse_differential.py", "src", "--texts", "300", "--seed", "1")
    assert out.stdout.startswith("300 texts, seed 1: ")
    assert "valid" in out.stdout and "ParseError" in out.stdout


def test_equal_differential_runs():
    # Against this checkout's own src, so every pair must agree.
    out = run_script("benchmarks/equal_differential.py", "src", "--seeds", "0-6")
    found = re.fullmatch(r"\d+ pairs identical: seeds 0-6, exact and float; (.*)\n", out.stdout)
    counts = dict(part.rsplit(" ", 1) for part in found[1].split(", "))
    assert {"equal symbolic", "unequal symbolic", "unequal probabilistic"} <= counts.keys()


def test_equal_differential_counts_every_change(tmp_path):
    # Against a copy of src that calls a proof "proved", so every symbolic
    # outcome differs; each is printed and counted by change.
    other = tmp_path / "jetconn"
    shutil.copytree(ROOT / "src" / "jetconn", other)
    evaluate = other / "evaluate.py"
    text = evaluate.read_text()
    evaluate.write_text(text.replace('SYMBOLIC = "symbolic"', 'SYMBOLIC = "proved"'))
    argv = [sys.executable, "benchmarks/equal_differential.py", str(tmp_path), "--seeds", "0-2"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    *lines, summary = out.stdout.splitlines()
    assert len(lines) > 1 and all(" differs: " in line for line in lines)
    found = re.fullmatch(r"(\d+) pairs differ and (\d+) are identical: seeds 0-2, exact and "
                         r"float; \(False, 'proved'\) -> \(False, 'symbolic'\) (\d+), "
                         r"\(True, 'proved'\) -> \(True, 'symbolic'\) (\d+)", summary)
    assert found, summary
    assert int(found[1]) == len(lines) == int(found[3]) + int(found[4])


def test_tape_differential_runs():
    # Against this checkout's own src, so every program and integration must agree.
    out = run_script("benchmarks/tape_differential.py", "src", "--seeds", "0-6")
    assert re.fullmatch(r"7 programs at 729 points and 21 integrations \(\d+ failed\) "
                        r"identical: seeds 0-6\n", out.stdout)


def test_derived_differential_runs():
    # Against this checkout's own src, so every derived connection must agree.
    out = run_script("benchmarks/derived_differential.py", "src", "--seeds", "0-39")
    assert out.stdout == "80 connections identical: seeds 0-39, exact and float\n"

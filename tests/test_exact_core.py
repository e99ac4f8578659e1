"""The exact core: integral constants as ints, and results shared by structure.

``simplify`` shares the result of an operand with every equal operand of
the same call when the tree holds no float constant.  The corpus below
repeats random pieces under ``+``, ``-`` and ``*``, half of them with
scientific literals, and pins the printed ``simplify`` and ``diff`` of each
text by one digest.  The digest and the printed forms were captured from
the code before integral constants became ints and results were shared.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from jetconn.expr import (_MAX_KEPT_KEY, Const, Div, Mul, SymbolUniverse, Var, _order, diff,
                          parse_expr, simplify, to_text)

from conftest import random_expr

U = SymbolUniverse(2, 1)
NAMES = ("x1", "x2", "y1")
SCIENTIFIC = ("2.0e0", "1e0", "5e-1", "2.5e-1", "3e0", "0.0e0", "1e300", "1.5e-300")
CORPUS_DIGEST = "6ac4d61f519875b1278ca2e1904bcdd68e50d2e69d33732683b4867f01c00795"


def corpus(count=1500, seed=20261020):
    """Texts of three random pieces, each used again, joined by + - and *;
    every second text scales some pieces by a scientific literal."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        pieces = [to_text(random_expr(rng, NAMES, depth=3)) for _ in range(3)]
        if i % 2:
            for j in rng.choice(3, size=int(rng.integers(1, 3)), replace=False):
                pieces[j] = f"{rng.choice(SCIENTIFIC)}*({pieces[j]})"
        picks = [int(k) for k in rng.integers(0, 3, size=int(rng.integers(2, 5)))]
        picks += picks[:2]  # at least two pieces come twice
        text = f"({pieces[picks[0]]})"
        for k in picks[1:]:
            text += f" {rng.choice(['+', '-', '*'])} ({pieces[k]})"
        yield text


def printed(text):
    """The text of ``simplify`` and of ``diff`` by each name, of one parse each."""
    out = []
    for run in [simplify] + [lambda e, v=v: diff(e, v) for v in NAMES]:
        try:
            out.append(to_text(run(parse_expr(text, U))))
        except Exception as err:  # a failure is part of what is pinned
            out.append(type(err).__name__)
    return out


def test_corpus_prints_as_before():
    h = hashlib.sha256()
    for text in corpus():
        h.update(("\n".join([text, *printed(text)]) + "\n").encode("utf-8"))
    assert h.hexdigest() == CORPUS_DIGEST


class TestExactValues:
    @pytest.mark.parametrize("text, value", [
        ("2^-3", Fraction(1, 8)),
        ("(2/3)^-2", Fraction(9, 4)),
        ("6/4", Fraction(3, 2)),
        ("4/2", 2),
        ("2.50", Fraction(5, 2)),
        ("007", 7),
    ])
    def test_constants_fold_exactly(self, text, value):
        c = simplify(parse_expr(text, U))
        assert type(c) is Const and c.is_exact
        assert c.value == value and type(c.value) is type(value)

    def test_quotient_by_an_int_is_an_exact_coefficient(self):
        e = simplify(parse_expr("x1/2", U))
        assert e == Mul(Const(Fraction(1, 2)), Var("x1"))
        assert type(e.left.value) is Fraction and to_text(e) == "0.5*x1"

    def test_equal_values_are_equal_nodes(self):
        nodes = [Const(2), Const(Fraction(2)), Const(2.0)]
        assert all(a == b and hash(a) == hash(b) for a in nodes for b in nodes)
        assert [c.is_exact for c in nodes] == [True, True, False]


class TestOnceAStructure:
    def test_equal_operands_share_a_result_without_floats(self):
        e = simplify(parse_expr("(x1 + y1)/(x1 + y1)", U))
        assert type(e) is Div and e.left is e.right
        e = simplify(parse_expr("(x1 + 2.0e0)/(x1 + 2.0e0)", U))
        assert type(e) is Div and e.left == e.right and e.left is not e.right

    def test_a_node_keeps_only_a_short_order_key(self):
        short = parse_expr("sin(x1*y1)", U)
        assert _order(short) is _order(short) and short._order_key is not None
        long = parse_expr(" + ".join(f"sin({k}*x1)" for k in range(1, 400)), U)
        assert len(_order(long)) > _MAX_KEPT_KEY and long._order_key is None


# Text, printed simplify, printed d/dx1: floats beside equal exact values.
MIXED = [
    ("2*x1 + 2.0e0*x1", "4.0*x1", "4.0"),
    ("2.0e0*x1 - 2*x1 + x1*2", "2.0*x1", "2.0"),
    ("(2*x1)*(2.0e0*x1) + 2*x1^2", "6.0*x1^2", "12.0*x1"),
    ("(2*x1 + 2.0e0*y1)*(2.0e0*x1 + 2*y1)", "(2*x1 + 2.0*y1)^2", "4.0*(2.0*x1 + 2*y1)"),
    ("-0.0e0*x1 + x1", "x1", "1"),
    ("-0.0e0", "0.0", "0"),
    ("x1*(-0.0e0) - 2*x1", "-2*x1", "-2"),
    ("0.0e0*x1 + (-0.0e0)*y1", "0", "0"),
    ("x1/2.0e0", "x1/2.0", "0.5"),
]


@pytest.mark.parametrize("text, simplified, derivative", MIXED)
def test_floats_beside_exact_values_print_as_before(text, simplified, derivative):
    assert to_text(simplify(parse_expr(text, U))) == simplified
    assert to_text(diff(parse_expr(text, U), "x1")) == derivative

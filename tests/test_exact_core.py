"""The exact core: integral constants as ints, and results shared by structure.

``simplify`` shares the result of an operand with every equal operand of
the same call when the tree holds no float constant.  The corpus below
repeats random pieces under ``+``, ``-`` and ``*``, half of them with
scientific literals, and pins the printed ``simplify`` and ``diff`` of each
text by one digest.  The digest and the printed forms were captured from
the code before integral constants became ints and results were shared.

A second corpus simplifies subtrees of a copy of a random tree first, once
or twice, and asks that the whole copy then prints as a fresh copy does:
what was simplified before must not change a tree's form.
"""

import copy
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from jetconn.expr import (_MAX_KEPT_KEY, Const, Div, Mul, SymbolUniverse, Var, _order, diff,
                          parse_expr, postorder, simplify, substitute, to_text)

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


def history_tree(seed):
    """A random_expr tree of depth 5 drawn from ``seed``, x2 the float 1.5 on
    odd seeds, and the postorder places of up to 4 of its subtrees that are
    neither a leaf nor the root, drawn from the same stream."""
    rng = np.random.default_rng(seed)
    e = random_expr(rng, NAMES, depth=5)
    if seed % 2:
        e = substitute(e, {"x2": Const(1.5)})
    inner = [k for k, node in enumerate(postorder([e])) if node.children() and node is not e]
    if not inner:
        return e, []
    return e, sorted(int(k) for k in rng.choice(inner, size=min(4, len(inner)), replace=False))


def printed_after(e, place=None, times=0):
    """The text of ``simplify`` and of ``diff`` by x1 of a copy of ``e``, after
    the copy's subtree at postorder ``place`` was simplified ``times`` times."""
    twin = copy.deepcopy(e)
    if place is not None:
        subtree = list(postorder([twin]))[place]
        for _ in range(times):
            simplify(subtree)
    out = []
    for run in (simplify, lambda t: diff(t, "x1")):
        try:
            out.append(to_text(run(twin)))
        except Exception as err:  # a failure is part of what is compared
            out.append(type(err).__name__)
    return out


class TestHistory:
    def test_simplified_subtrees_leave_the_form(self):
        differ, cases = [], 0
        for seed in range(500):
            e, places = history_tree(seed)
            fresh = printed_after(e)
            for place in places:
                for times in (1, 2):
                    cases += 1
                    if printed_after(e, place, times) != fresh:
                        differ.append((seed, place, times))
        assert cases == 2022 and differ == []

    def test_a_sum_factor_simplified_twice(self):
        e, _ = history_tree(48)
        assert to_text(e) == "(-(y1*(-3))^1)/((-4)*(-(x2 - x2*x2)))"
        place = next(k for k, node in enumerate(postorder([e]))
                     if to_text(node) == "-(x2 - x2*x2)")
        assert printed_after(e, place, 2) == printed_after(e) == ["3*y1/(4*(x2 - x2^2))", "0"]


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

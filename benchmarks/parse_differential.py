"""Compare this checkout's ``parse_expr`` with another checkout's on random texts.

Each text is a random valid expression, a valid one with up to three
characters or tokens inserted, deleted or swapped, or a soup of tokens.
Both parsers must give the same tree, or raise the same exception type with
the same message and position.  Trees are compared node by node, exact
constants by value, so an int on one side matches an equal Fraction on the
other, and float constants by ``repr``.  For a valid text, the printed
``simplify`` of the tree and its printed ``diff`` by x1 must match too, or
fail with the same exception type and message.  Texts holding a scientific
literal with an exponent of five or more digits are skipped and counted:
a parser that builds that power of ten exactly takes seconds or more on
them.  Such a parser also raises ``OverflowError`` on ``1e400``, where this
one raises a ``ParseError``, so against it the texts holding ``1e400``
differ.  The first disagreement is printed and exits 1; otherwise one line
counts the texts by outcome.  Usage:

    python3 benchmarks/parse_differential.py OTHER_SRC [--texts 200000] [--seed 7]

OTHER_SRC is the ``src`` directory of the other checkout, for example one
made with ``git archive``.  Its ``jetconn`` is loaded as ``jetconn_other``.
"""

import argparse
import importlib
import importlib.util
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import jetconn.expr

NUMS = ["0", "1", "2", "3", "10", "0.5", "2.25", "1e3", "2E-2", "1e400", "1.5e-3", "007",
        "12345678901234567890"]
IDENTS = ["x1", "x2", "y1", "y2", "x3", "z", "sin", "cos", "exp", "ln", "t", "x01"]
OPS = list("+-*/^(),")
SPACES = ["", " ", "  ", "\t", "\n", "\u00a0"]
BAD = ["@", "#", "é", "²", "٣", "!", "[", "."]
# Calls of the wrong arity, and exponents that are stacked or not integers.
ODD = ["sin()", "cos(x1, y1)", "exp(x1,)", "ln(,)", "x1^2^3", "x1^1.5", "x1^-x2", "x1^--2",
       "(x1)^2^2", "sin(x1)^2"]
HUGE_EXPONENT = re.compile(r"[0-9][eE][+-]?[0-9]{5,}")


def load_other(src):
    """The ``expr`` module of the ``jetconn`` package under ``src``, loaded as ``jetconn_other``."""
    package = Path(src) / "jetconn"
    spec = importlib.util.spec_from_file_location(
        "jetconn_other", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["jetconn_other"] = module
    spec.loader.exec_module(module)
    return importlib.import_module("jetconn_other.expr")


def valid(rng, depth):
    r = rng.random()
    if depth <= 0 or r < 0.3:
        return rng.choice(NUMS + ["x1", "x2", "y1", "y2"] * 3)
    r = rng.random()
    if r < 0.35:
        op = rng.choice(SPACES) + rng.choice("+-*/") + rng.choice(SPACES)
        return valid(rng, depth - 1) + op + valid(rng, depth - 1)
    if r < 0.5:
        return "(" + valid(rng, depth - 1) + ")"
    if r < 0.6:
        return "-" + valid(rng, depth - 1)
    if r < 0.75:
        return valid(rng, depth - 1) + "^" + rng.choice(["2", "-1", "0", "3", "-2", "10"])
    if r < 0.9:
        return rng.choice(["sin", "cos", "exp", "ln"]) + "(" + valid(rng, depth - 1) + ")"
    if r < 0.95:
        return rng.choice(["x1", "y1", "3"]) + rng.choice("*+-/") + valid(rng, depth - 1)
    return rng.choice(ODD)


def mutated(rng, text):
    pieces = list(text)
    for _ in range(rng.randint(1, 3)):
        r, k = rng.random(), rng.randrange(len(pieces) + 1)
        if r < 0.3 and pieces:
            del pieces[min(k, len(pieces) - 1)]
        elif r < 0.8:
            extra = BAD if rng.random() < 0.2 else []
            pieces.insert(k, rng.choice(OPS + IDENTS + NUMS + SPACES + extra))
        elif pieces:
            j, k = rng.randrange(len(pieces)), min(k, len(pieces) - 1)
            pieces[j], pieces[k] = pieces[k], pieces[j]
    return "".join(pieces)


def random_text(rng):
    r = rng.random()
    if r < 0.4:
        return valid(rng, rng.randint(0, 6))
    if r < 0.85:
        return mutated(rng, valid(rng, rng.randint(0, 5)))
    return "".join(rng.choice(OPS + IDENTS + NUMS + SPACES * 2) for _ in range(rng.randint(0, 12)))


def nodes(expr, tree):
    """The nodes of ``tree`` in postorder: type name, then fields, an operand
    by its row, an exact constant as a Fraction and a float one by repr."""
    rows, out = {}, []
    for node in expr.postorder([tree]):
        rows[id(node)] = len(out)
        fields = []
        for field in node._key():
            if isinstance(field, expr.Expr):
                field = ("row", rows[id(field)])
            elif type(node) is expr.Const:
                field = repr(field) if type(field) is float else Fraction(field)
            fields.append(field)
        out.append((type(node).__name__, *fields))
    return out


def printed(expr, run, tree):
    try:
        return expr.to_text(run(tree))
    except Exception as err:  # a failure is compared by type and message
        return (type(err).__name__, str(err))


def outcome(expr, text, universe):
    try:
        tree = expr.parse_expr(text, universe)
    except Exception as err:  # every failure is compared, by type, message and position
        return (type(err).__name__, str(err), getattr(err, "position", None))
    return ("valid", nodes(expr, tree), printed(expr, expr.simplify, tree),
            printed(expr, lambda e: expr.diff(e, "x1"), tree))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src")
    parser.add_argument("--texts", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    other = load_other(args.other_src)
    ours = jetconn.expr
    universes = ours.SymbolUniverse(2, 2), other.SymbolUniverse(2, 2)
    rng, counts = random.Random(args.seed), {}
    for _ in range(args.texts):
        text = random_text(rng)
        if HUGE_EXPONENT.search(text):
            kind = "skipped"
        else:
            mine, theirs = outcome(ours, text, universes[0]), outcome(other, text, universes[1])
            if mine != theirs:
                print(f"differ on {text!r}: {mine} against {theirs}")
                return 1
            kind = mine[0]
        counts[kind] = counts.get(kind, 0) + 1
    print(f"{args.texts} texts, seed {args.seed}:",
          ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())

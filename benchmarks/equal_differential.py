"""Compare this checkout's ``expr_equal`` with another checkout's on random pairs.

Each seed draws four ``random_expr`` trees of depth 3 over x1, x2 and y1
(``tests/conftest.py::random_entries``), once with exact constants and once
with each constant k made the float k/2.  Each tree e is compared with:

- ``parse_expr(to_text(e))``, a copy of equal structure;
- ``simplify(e)``;
- e with one constant changed: its first constant c, in postorder, made
  c + 1, or e + 1 when it has none;
- e with every exact constant made the float of equal value, which
  ``Expr.__eq__`` cannot tell from e.

Each seed also compares ``x1*2`` with ``x1*2.0``.  On each side the pairs
are built from that side's own nodes, in the same order and in one process,
so that a comparison meets what the ones before it left in the nodes.  The
verdict and confidence must match, or the failure's type and message.
Every difference is printed, then a line that counts them by change, from
OTHER_SRC's outcome to this checkout's, and the exit code is 1; with none,
one line counts the pairs by outcome.  Usage:

    python3 benchmarks/equal_differential.py OTHER_SRC [--seeds 0-299]

OTHER_SRC is the ``src`` directory of the other checkout, for example one
made with ``git archive``.  Its ``jetconn`` is loaded as ``jetconn_other``.
"""

import argparse
import importlib
import sys

import jetconn
from derived_differential import load_other, rebuild

# Importing derived_differential put tests/ on the path.
from conftest import random_entries  # noqa: E402


def rebuilt(expr, e, const):
    """``e`` built again from the node classes of ``expr``, each constant's
    value made ``const(value)``; None where no value changed."""
    nodes, changed = [], False
    for kind, *fields in e.__reduce__()[1][0]:
        operands = [nodes[f[0]] if type(f) is tuple else f for f in fields]
        if kind.__name__ == "Const":
            value = const(operands[0])
            changed = changed or type(value) is not type(operands[0]) or value != operands[0]
            operands = [value]
        nodes.append(getattr(expr, kind.__name__)(*operands))
    return nodes[-1] if changed else None


def one_changed(expr, e):
    """``e`` with its first constant in postorder increased by 1, or ``e + 1``."""
    steps = iter([1])
    out = rebuilt(expr, e, lambda value: value + next(steps, 0))
    return expr.Add(e, expr.Const(1)) if out is None else out


def floated(expr, e):
    """``e`` with every exact constant made a float, or None when it has none."""
    return rebuilt(expr, e, lambda value: value if type(value) is float else float(value))


def pairs(package, trees):
    """(name, a, b) of every pair of ``trees``, in this order, under ``package``."""
    expr = importlib.import_module(package.__name__ + ".expr")
    u = expr.SymbolUniverse(2, 1)
    for e in trees:
        e = rebuild(expr, e)
        yield "copy", e, expr.parse_expr(expr.to_text(e), u)
        yield "simplify", e, expr.simplify(e)
        yield "one changed", e, one_changed(expr, e)
        other = floated(expr, e)
        if other is not None:
            yield "floated", e, other
    x1 = expr.Var("x1")
    yield "2 against 2.0", expr.Mul(x1, expr.Const(2)), expr.Mul(x1, expr.Const(2.0))


def outcomes(package, trees):
    """(name, outcome) of every pair: (equal, confidence) or the failure."""
    evaluate = importlib.import_module(package.__name__ + ".evaluate")
    out = []
    for name, a, b in pairs(package, trees):
        try:
            result = evaluate.expr_equal(a, b)
            out.append((name, (result.equal, result.confidence)))
        except Exception as err:  # a failure is compared by type and message
            out.append((name, (type(err).__name__, str(err))))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src")
    parser.add_argument("--seeds", default="0-299")
    args = parser.parse_args(argv)

    first, last = (int(k) for k in args.seeds.split("-"))
    other = load_other(args.other_src)
    counts, changes = {}, {}
    for floats in (False, True):
        for seed in range(first, last + 1):
            trees = random_entries(seed, floats, count=4)
            mine, theirs = outcomes(jetconn, trees), outcomes(other, trees)
            for k, ((name, a), (_, b)) in enumerate(zip(mine, theirs)):
                if a != b:
                    kind = "float" if floats else "exact"
                    print(f"{kind} seed {seed} pair {k} ({name}) differs: {a!r} against {b!r}")
                    changes[b, a] = changes.get((b, a), 0) + 1
                    continue
                if type(a[0]) is bool:
                    a = (f"{'equal' if a[0] else 'unequal'} {a[1]}",)
                counts[a[0]] = counts.get(a[0], 0) + 1
    if changes:
        moves = sorted(changes.items(), key=str)  # outcomes mix bools and error names
        print(f"{sum(changes.values())} pairs differ and {sum(counts.values())} are identical:",
              f"seeds {first}-{last}, exact and float;",
              ", ".join(f"{old!r} -> {new!r} {n}" for (old, new), n in moves))
        return 1
    print(f"{sum(counts.values())} pairs identical: seeds {first}-{last}, exact and float;",
          ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())

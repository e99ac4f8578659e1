"""Compare this checkout's compiled programs and integrators with another checkout's.

Each seed draws six ``random_expr`` trees of depth 3 over x1, x2 and y1
(``tests/conftest.py``), on odd seeds with each constant k made the float
k/2, and wraps each in ``ln(...)``, ``1/(...)``, ``(...)^-1`` or nothing,
so that guards fail.  Two things are compared:

- one ``compile_program`` of the six trees, run at every row over the
  values 0.0, -0.0, +-1e308, +-inf, nan, 0.5 and -2.0: the values bit for
  bit, and the statuses;
- ``transport1``, ``transport2`` of the prolongation and
  ``second_order_ode`` of the connection whose F row is the first two
  trees, along one of seven curves on [0, 1] chosen by the seed, in 32
  steps: the final state bit for bit, or the error's type and message.

The first difference is printed and exits 1; otherwise one line counts what
was compared.  Usage:

    python3 benchmarks/tape_differential.py OTHER_SRC [--seeds 0-199]

OTHER_SRC is the ``src`` directory of the other checkout, for example one
made with ``git archive``.  Its ``jetconn`` is loaded as ``jetconn_other``.
"""

import argparse
import importlib
import itertools
import math
import struct
import sys

import numpy as np

import jetconn.expr
from derived_differential import load_other, rebuild

# Importing derived_differential put tests/ on the path.
from conftest import halved, random_expr  # noqa: E402

NAMES = ("x1", "x2", "y1")
POINTS = list(itertools.product(
    [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 0.5, -2.0], repeat=len(NAMES)))
CURVES = [
    ("t", "t^2"),
    ("cos(t)", "sin(t)"),
    ("ln(t + 1)", "exp(t)"),
    ("t - 0.5", "1/(t - 0.5)"),
    ("ln(0.5 - t)", "t"),
    ("exp(10*t)", "t^3"),
    ("1/(t - 0.25)", "ln(t)"),
]
STEPS = 32


def trees(seed):
    """The six wrapped trees of ``seed``, as this checkout's nodes."""
    rng = np.random.default_rng(seed)
    expr = jetconn.expr
    out = []
    for _ in range(6):
        e = random_expr(rng, NAMES, depth=3)
        e = halved(e) if seed % 2 else e
        wrap = int(rng.integers(0, 4))
        out.append([e, expr.Fn("ln", e), expr.Div(expr.Const(1), e), expr.Pow(e, -1)][wrap])
    return out


def bits(values) -> str:
    """The IEEE doubles of ``values`` in hex, so that nan's sign and -0.0 count."""
    return struct.pack(f">{len(values)}d", *values).hex()


def failed(err):
    return (type(err).__name__, str(err))


def program_outcome(package, exprs):
    """(bits, status) of each slot of a program run at every point, or its failure."""
    tape = importlib.import_module(package.__name__ + "._tape")
    try:
        values, status = tape.compile_program(exprs, NAMES).rows(POINTS)
    except Exception as err:  # a failure is compared by type and message
        return failed(err)
    return [(bits([v]), s) for v, s in zip(values, status)]


def transport_outcomes(package, entries, curve):
    """The final state of each transport variant, as bits, or its failure."""
    expr = importlib.import_module(package.__name__ + ".expr")
    connections = importlib.import_module(package.__name__ + ".connections")
    transport = importlib.import_module(package.__name__ + ".transport")
    u = expr.SymbolUniverse(2, 1)
    comps = [expr.parse_expr(text, transport.CURVE_UNIVERSE) for text in curve]
    c = transport.Curve(2, comps, 0.0, 1.0)
    g = connections.Connection1(u, (tuple(entries),))
    runs = {
        "transport 1": lambda: transport.transport1(g, c, (1.0,), STEPS),
        "transport 2": lambda: transport.transport2(
            connections.ehresmann_prolongation(g), c, (1.0,), ((0.0, 0.0),), STEPS),
        "ode2": lambda: transport.second_order_ode(
            connections.ehresmann_prolongation(g), c, (1.0,), STEPS),
    }
    out = {}
    for name, run in runs.items():
        try:
            result = run()
        except Exception as err:  # a failure is compared by type and message
            out[name] = failed(err)
            continue
        final = result.values[-1]
        if result.jet_values is not None:
            final += tuple(v for row in result.jet_values[-1] for v in row)
        out[name] = bits(final)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src")
    parser.add_argument("--seeds", default="0-199")
    args = parser.parse_args(argv)

    first, last = (int(k) for k in args.seeds.split("-"))
    other = load_other(args.other_src)
    other_expr = importlib.import_module(other.__name__ + ".expr")
    programs = integrations = failures = 0
    for seed in range(first, last + 1):
        exprs = trees(seed)
        theirs = [rebuild(other_expr, e) for e in exprs]
        mine, outcome = program_outcome(jetconn, exprs), program_outcome(other, theirs)
        if mine != outcome:
            where = ""
            if isinstance(mine, list) and isinstance(outcome, list):
                k = next(k for k, pair in enumerate(zip(mine, outcome)) if pair[0] != pair[1])
                where = f" expression {k % len(exprs)} at {POINTS[k // len(exprs)]}"
                mine, outcome = mine[k], outcome[k]
            mine, outcome = (x if isinstance(x, tuple) else "values" for x in (mine, outcome))
            print(f"seed {seed} program{where} differs: {mine!r} against {outcome!r}")
            return 1
        programs += 1
        curve = CURVES[seed % len(CURVES)]
        mine = transport_outcomes(jetconn, exprs[:2], curve)
        for name, outcome in transport_outcomes(other, theirs[:2], curve).items():
            if mine[name] != outcome:
                print(f"seed {seed} {name} along {curve} differs: "
                      f"{mine[name]!r} against {outcome!r}")
                return 1
            integrations += 1
            failures += isinstance(outcome, tuple)
    print(f"{programs} programs at {len(POINTS)} points and {integrations} integrations "
          f"({failures} failed) identical: seeds {first}-{last}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time the evaluation kernel on a batch and on a transport run.

Two workloads: batch evaluation of a compiled coefficient grid over many
points, and an RK4 transport run whose inner loop is dominated by small
per-step evaluations.  It also times compiling the grid's trees to their
function, per program and per op.  Each time is the best of ``--repeat``
runs.  Usage:

    python3 benchmarks/bench_kernel.py [--points 20000] [--steps 20000] [--repeat 3]
"""

import argparse
import time

import numpy as np

from jetconn import (
    Connection1,
    Curve,
    CURVE_UNIVERSE,
    SymbolUniverse,
    ehresmann_prolongation,
    parse_expr,
    transport1,
)
from jetconn._tape import compile_program


def build_grid():
    """The 27 H entries of a prolonged connection, and their variable names."""
    u = SymbolUniverse(3, 3)
    P = lambda s: parse_expr(s, u)
    rows = (
        (P("y1*x2 + sin(x1)"), P("x3^2 - y2"), P("exp(x1/4)*y3")),
        (P("cos(x2)*y1 - x1"), P("y2*y3 + 1"), P("x2 - y1^2")),
        (P("x1*x2*x3"), P("ln(4 + y2^2)"), P("y1 + y2 + y3")),
    )
    delta = ehresmann_prolongation(Connection1(u, rows))
    flat = [delta.H[p][i][j] for p in range(3) for i in range(3) for j in range(3)]
    return flat, u.variable_names


def build_program():
    exprs, names = build_grid()
    return compile_program(exprs, names), len(names)


def bench_batch(points, repeat):
    program, width = build_program()
    rng = np.random.default_rng(7)
    batch = rng.uniform(-1.5, 1.5, size=(points, width))
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        out, status = program(batch)
        best = min(best, time.perf_counter() - start)
    assert not status.any()
    assert np.all(np.isfinite(out))
    return best


def bench_codegen(repeat):
    exprs, names = build_grid()
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        program = compile_program(exprs, names)
        best = min(best, time.perf_counter() - start)
    return best, len(program.code)


def bench_transport(steps, repeat):
    u = SymbolUniverse(1, 1)
    g = Connection1(u, ((parse_expr("sin(x1)*y1", u),),))
    curve = Curve(1, (CURVE_UNIVERSE.var("t"),), 0.0, 1.0)
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = transport1(g, curve, (1.0,), steps)
        best = min(best, time.perf_counter() - start)
    assert np.isfinite(result.values[-1][0])
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=20000)
    ap.add_argument("--steps", type=int, default=20000)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    batch = bench_batch(args.points, args.repeat)
    transport = bench_transport(args.steps, args.repeat)
    codegen, ops = bench_codegen(args.repeat)
    print(f"batch, {args.points} points: {batch:.4f} s")
    print(f"transport, {args.steps} steps: {transport:.4f} s")
    print(f"codegen, {ops} ops: {codegen:.4f} s ({1e6 * codegen / ops:.1f} us/op)")


if __name__ == "__main__":
    main()

"""Time the evaluation kernel on a batch and the generated RK4 loops.

Three parts: batch evaluation of a compiled coefficient grid over many
points; the four RK4 variants (transport 1 and 2, the second order ODE and
a holonomy), whose whole step loop is one generated function; and the code
generation itself, of the grid's program and of a transport 2 loop.  It
also times the ``transport 1`` and ``holonomy`` commands on
``sample_inputs/`` in process, with their output, and prints their ratio.
Each time is the best of ``--repeat`` runs.  Usage:

    python3 benchmarks/bench_kernel.py [--points 20000] [--steps 20000] [--repeat 3]
"""

import argparse
import contextlib
import io
import math
import pathlib
import time

import numpy as np

from jetconn import (
    AffineConnection,
    Connection1,
    Curve,
    CURVE_UNIVERSE,
    SymbolUniverse,
    affine_to_general,
    ehresmann_prolongation,
    loop_holonomy,
    parse_expr,
    second_order_ode,
    transport1,
    transport2,
)
from jetconn._tape import compile_integrator, compile_program
from jetconn.cli import main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


def best_of(repeat, run):
    """The least wall time of ``repeat`` calls of ``run``, and its last result."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def prolonged():
    """A prolonged connection over 3 base and 3 fiber dimensions."""
    u = SymbolUniverse(3, 3)
    P = lambda s: parse_expr(s, u)
    rows = (
        (P("y1*x2 + sin(x1)"), P("x3^2 - y2"), P("exp(x1/4)*y3")),
        (P("cos(x2)*y1 - x1"), P("y2*y3 + 1"), P("x2 - y1^2")),
        (P("x1*x2*x3"), P("ln(4 + y2^2)"), P("y1 + y2 + y3")),
    )
    return ehresmann_prolongation(Connection1(u, rows))


def build_grid():
    """The 27 H entries of the prolonged connection, and their variable names."""
    delta = prolonged()
    flat = [delta.H[p][i][j] for p in range(3) for i in range(3) for j in range(3)]
    return flat, delta.universe.variable_names


def bench_batch(points, repeat):
    exprs, names = build_grid()
    program = compile_program(exprs, names)
    batch = np.random.default_rng(7).uniform(-1.5, 1.5, size=(points, len(names)))
    best, (out, status) = best_of(repeat, lambda: program(batch))
    assert not status.any()
    assert np.all(np.isfinite(out))
    return best


def bench_codegen(repeat):
    """Generating the grid's program, and the transport 2 loop of its connection."""
    exprs, names = build_grid()
    program_s, program = best_of(repeat, lambda: compile_program(exprs, names))
    delta = prolonged()
    u = delta.universe
    t = CURVE_UNIVERSE.var("t")
    curve = Curve(3, (t, parse_expr("sin(t)", CURVE_UNIVERSE), t * t), 0.0, 1.0)
    exprs = [*curve.components, *curve.velocity()]
    rows = [*delta.F, *(row for grid in delta.H for row in grid)]
    loop_s, _ = best_of(
        repeat, lambda: compile_integrator(rows, u.base_names, u.fiber_names, exprs, jets=True)
    )
    return program_s, len(program.code), loop_s


def bench_variants(steps, repeat):
    """Each RK4 variant at ``steps``: seconds by name."""
    u = SymbolUniverse(1, 1)
    g = Connection1(u, ((parse_expr("sin(x1)*y1", u),),))
    delta = ehresmann_prolongation(g)
    curve = Curve(1, (CURVE_UNIVERSE.var("t"),), 0.0, 1.0)
    polar = SymbolUniverse(2, 2)
    zero, P = parse_expr("0", polar), lambda s: parse_expr(s, polar)
    chris = (((zero, zero), (zero, P("-x1"))), ((zero, P("1/x1")), (P("1/x1"), zero)))
    flat_plane = affine_to_general(AffineConnection(2, chris))
    loop = Curve(2, tuple(parse_expr(s, CURVE_UNIVERSE) for s in ("2 + cos(t)", "sin(t)")),
                 0.0, 2 * math.pi)
    runs = {
        "transport 1": lambda: transport1(g, curve, (1.0,), steps).values[-1],
        "transport 2": lambda: transport2(delta, curve, (1.0,), ((0.0,),), steps).values[-1],
        "ode2": lambda: second_order_ode(delta, curve, (1.0,), steps).values[-1],
        "holonomy": lambda: loop_holonomy(flat_plane, loop, steps=steps).matrix[0],
    }
    times = {}
    for name, run in runs.items():
        times[name], last = best_of(repeat, run)
        assert all(map(math.isfinite, last))
    return times


def bench_commands(steps, repeat):
    """The ``transport 1`` and ``holonomy`` commands on the sample inputs, in process."""
    commands = {
        "transport 1": ["transport", "1", "conn_exp.json", "curve_unit.json", "--y0", "1"],
        "holonomy": ["holonomy", "conn_affine_polar.json", "loop_polar.json"],
    }
    times = {}
    for name, argv in commands.items():
        argv = [str(SAMPLES / a) if a.endswith(".json") else a for a in argv]
        argv += ["--steps", str(steps)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return main(argv)

        times[name], code = best_of(repeat, run)
        assert code == 0
    return times


def main_bench():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=20000)
    ap.add_argument("--steps", type=int, default=20000)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    batch = bench_batch(args.points, args.repeat)
    variants = bench_variants(args.steps, args.repeat)
    commands = bench_commands(args.steps, args.repeat)
    program_s, ops, loop_s = bench_codegen(args.repeat)
    print(f"batch, {args.points} points: {batch:.4f} s")
    for name, seconds in variants.items():
        print(f"{name}, {args.steps} steps: {seconds:.4f} s")
    for name, seconds in commands.items():
        print(f"command {name}, {args.steps} steps: {seconds:.4f} s")
    ratio = commands["holonomy"] / commands["transport 1"]
    print(f"command holonomy / transport 1: {ratio:.2f}")
    print(f"codegen, program of {ops} ops: {program_s:.4f} s ({1e6 * program_s / ops:.1f} us/op)")
    print(f"codegen, transport 2 loop: {loop_s:.4f} s")


if __name__ == "__main__":
    main_bench()

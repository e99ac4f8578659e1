"""Command line front end.

Exit codes: 0 on success, 1 for domain errors (bad files, dimension
mismatches, failed verification), 2 for usage errors.  All output is
deterministic for a fixed --seed, so emitted files can be compared
byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import connections, evaluate, frames, io, jets, transport
from .errors import EvalError, FormatError, JetconnError
from .expr import to_text


def _load(path, *kinds) -> io.Document:
    """The document at ``path``, whose kind must be one of ``kinds`` if any are given.

    "connection1" stands for any first-order connection: a linear or affine
    document comes back as a general one.  Every failure names ``path``, and
    a wrong kind names every one of ``kinds``.
    """
    try:
        doc = io.load_path(path)
    except OSError as err:
        raise FormatError(f"{path}: {err.strerror or err}") from None
    except (JetconnError, ValueError, OverflowError) as err:
        raise FormatError(f"{path}: {err}") from None
    if not kinds or doc.kind in kinds:
        return doc
    if "connection1" in kinds and doc.kind == "linear":
        return io.Document("connection1", connections.linear_to_general(doc.value))
    if "connection1" in kinds and doc.kind == "affine":
        return io.Document("connection1", connections.affine_to_general(doc.value))
    labels = ["first-order connection" if k == "connection1" else io.KIND_LABELS[k] for k in kinds]
    expected = " or ".join(("an " if label[0] in "aeiou" else "a ") + label for label in labels)
    raise FormatError(f"{path}: expected {expected}, got {io.KIND_LABELS[doc.kind]}")


def _policy(args, points: int = 64, tol: float = 1e-9) -> evaluate.SamplePolicy:
    """--samples, --tol and --seed, with the command's defaults for the first two."""
    points = points if args.samples is None else args.samples
    tol = tol if args.tol is None else args.tol
    evaluate.check_sampling(points, tol, ("--samples", "--tol"))
    return evaluate.SamplePolicy(points=points, tol=tol, seed=args.seed)


def _floats(text: str, what: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise FormatError(f"{what} must be comma-separated numbers") from None
    if not all(map(math.isfinite, values)):
        raise FormatError(f"{what} must be finite numbers")
    return values


def _assignment(universe, text: str) -> dict:
    names = universe.variable_names
    values = _floats(text, "--at")
    if len(values) != len(names):
        raise FormatError(
            f"--at needs {len(names)} values ({', '.join(names)}), got {len(values)}"
        )
    return dict(zip(names, values))


def _grid_out(grid, assignment):
    """``grid`` for JSON: its text, or its values at the ``--at`` assignment."""
    if assignment is None:
        return io.grid_to_data(grid)

    def value(e):
        v = evaluate.eval_expr(e, assignment)
        if not math.isfinite(v):
            raise EvalError(f"{to_text(e)} is not finite at the --at point")
        return v

    return io.grid_to_data(grid, value)


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise FormatError(f"{args.output}: {err.strerror or err}") from None


def _cmd_validate(args) -> str:
    doc = _load(args.file)
    return f"{args.file}: valid {io.KIND_LABELS[doc.kind]}\n"


def _cmd_product(args) -> str:
    gamma = _load(args.first, "connection1").value
    gamma_bar = _load(args.second, "connection1").value
    return io.dump_json(io.connection2_to_data(connections.product(gamma, gamma_bar)))


def _cmd_prolong(args) -> str:
    gamma = _load(args.file, "connection1").value
    return io.dump_json(io.connection2_to_data(connections.ehresmann_prolongation(gamma)))


def _cmd_curvature(args) -> str:
    gamma = _load(args.file, "connection1").value
    grid = connections.curvature(gamma)
    return io.dump_json(io.curvature_to_data(grid, gamma.universe))


def _cmd_exchange(args) -> str:
    delta = _load(args.file, "connection2").value
    return io.dump_json(io.connection2_to_data(connections.exchange(delta)))


def _cmd_family(args) -> str:
    gamma = _load(args.file, "connection1").value
    if not math.isfinite(args.k):
        raise FormatError("--k must be a finite number")
    return io.dump_json(io.connection2_to_data(connections.family(gamma, args.k)))


def _cmd_classify(args) -> str:
    delta = _load(args.file, "connection2").value
    return f"{connections.classify(delta, _policy(args))}\n"


def _cmd_semiholonomy(args) -> str:
    point = _load(args.file, "jet").value
    core = jets.is_semiholonomic_point(point)
    agree = jets.projections_agree(point)
    holo = jets.is_holonomic_point(point)
    return (
        f"semiholonomic (core rule): {'yes' if core else 'no'}\n"
        f"semiholonomic (projection cross-check): {'yes' if agree else 'no'}\n"
        f"holonomic: {'yes' if holo else 'no'}\n"
    )


def _cmd_frames(args) -> str:
    doc = _load(args.file, "connection1", "connection2")
    assignment = None if args.at is None else _assignment(doc.value.universe, args.at)
    if doc.kind == "connection2":
        rows = []
        for row in frames.horizontal_lift_field(doc.value):
            rows.append(
                {
                    "direction": row.direction,
                    "dy": _grid_out(row.dy, assignment),
                    "dyj": _grid_out(row.dyj, assignment),
                }
            )
        return io.dump_json({"lift": rows})
    built = frames.adapted_frame(doc.value)
    return io.dump_json(
        {
            "frame": _grid_out(built.frame, assignment),
            "coframe": _grid_out(built.coframe, assignment),
        }
    )


def _cmd_twofold(args) -> str:
    doc = _load(args.file, "twofold")
    policy = _policy(args, points=100, tol=1e-10)
    dual = frames.twofold_dual_coframe(
        doc.value, doc.extra, points=policy.points, tol=policy.tol, seed=policy.seed
    )
    return io.dump_json(
        {
            "frame": io.grid_to_data(dual.frame),
            "coframe": io.grid_to_data(dual.matrix),
            "gamma_bar": io.grid_to_data(dual.gamma_bar),
            "max_deviation": dual.max_deviation,
            "checked_points": dual.checked_points,
        }
    )


def _cmd_jacobian(args) -> str:
    transform = _load(args.file, "transform").value
    report = frames.validate_twofold_jacobian(transform, _policy(args))
    return io.dump_json(
        {
            "valid": report.valid,
            "confidence": report.confidence,
            "violations": [list(v) for v in report.violations],
            "jacobian": io.grid_to_data(report.jacobian),
        }
    )


def _cmd_transport(args) -> str:
    conn = _load(args.connection, "connection1" if args.variant == "1" else "connection2").value
    curve = _load(args.curve, "curve").value
    y0 = _floats(args.y0, "--y0")
    steps = args.steps
    if args.variant == "1":
        result = transport.transport1(conn, curve, y0, steps)
    elif args.variant == "2":
        n = conn.universe.fiber_dim
        m = conn.universe.base_dim
        if args.yj0 is None:
            yj0 = tuple((0.0,) * m for _ in range(n))
        else:
            flat = _floats(args.yj0, "--yj0")
            if len(flat) != n * m:
                raise FormatError(
                    f"--yj0 needs {n * m} values (row-major y_i^p), got {len(flat)}"
                )
            yj0 = tuple(flat[p * m : (p + 1) * m] for p in range(n))
        result = transport.transport2(conn, curve, y0, yj0, steps)
    else:
        result = transport.second_order_ode(conn, curve, y0, steps)
    return io.transport_csv(result)


def _cmd_holonomy(args) -> str:
    gamma = _load(args.connection, "connection1").value
    loop = _load(args.loop, "curve").value
    result = transport.loop_holonomy(gamma, loop, steps=args.steps)
    return io.dump_json(
        {
            "defect": result.defect,
            "steps": result.steps,
            "matrix": [[float(v) for v in row] for row in result.matrix],
        }
    )


# One row per subcommand: its help line, its positional arguments and the
# function that runs it.  Every positional but ``variant`` names an input
# file, in the order a diagnostic lists them.
_COMMANDS = {
    "validate": ("check a document file", ("file",), _cmd_validate),
    "product": ("order-2 product of two connections", ("first", "second"), _cmd_product),
    "prolong": ("self-product of a connection", ("file",), _cmd_prolong),
    "curvature": ("curvature grid of a connection", ("file",), _cmd_curvature),
    "exchange": ("swap the two order-1 projections", ("file",), _cmd_exchange),
    "family": ("k-weighted symmetrization family", ("file",), _cmd_family),
    "classify": ("holonomy class of an order-2 connection", ("file",), _cmd_classify),
    "semiholonomy": ("point-level jet checks", ("file",), _cmd_semiholonomy),
    "frames": (
        "adapted frame (order 1) or horizontal lift (order 2)", ("file",), _cmd_frames,
    ),
    "twofold": ("two-fold frame with verified dual", ("file",), _cmd_twofold),
    "jacobian": ("check a transform respects the fibering", ("file",), _cmd_jacobian),
    "transport": (
        "integrate transport along a curve", ("variant", "connection", "curve"), _cmd_transport,
    ),
    "holonomy": ("transport a basis around a loop", ("connection", "loop"), _cmd_holonomy),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="sampling seed")
    common.add_argument("--tol", type=float, default=None, help="comparison tolerance")
    common.add_argument(
        "--samples", type=int, default=None, help="sample point count"
    )
    common.add_argument("--output", default=None, help="write output to PATH")

    parser = argparse.ArgumentParser(
        prog="jetconn",
        description="Connections on fibered manifolds: products, frames, transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, (help_line, positionals, run) in _COMMANDS.items():
        p = parsers[command] = sub.add_parser(command, parents=[common], help=help_line)
        for name in positionals:
            p.add_argument(name, choices=("1", "2", "ode2") if name == "variant" else None)
        p.set_defaults(run=run)

    parsers["family"].add_argument("--k", type=float, required=True, help="family parameter")
    parsers["frames"].add_argument(
        "--at", default=None, help="evaluate at comma-separated point"
    )
    p = parsers["transport"]
    p.add_argument("--y0", required=True, help="initial fiber point, comma-separated")
    p.add_argument(
        "--yj0", default=None, help="initial jet block for variant 2, row-major"
    )
    p.add_argument("--steps", type=int, default=100, help="integration steps")
    parsers["holonomy"].add_argument(
        "--steps", type=int, required=True, help="integration steps"
    )
    return parser


def _inputs(args) -> str:
    _, positionals, _ = _COMMANDS[args.command]
    return " and ".join(str(getattr(args, name)) for name in positionals if name != "variant")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        text = args.run(args)
        _emit(args, text)
    except (FormatError, OSError, ValueError) as err:
        # A FormatError from loading or writing already names its file.
        message = str(err)
    except JetconnError as err:
        message = f"{_inputs(args)}: {err}"
    except MemoryError:
        message = f"{_inputs(args)}: out of memory"
    else:
        return 0
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

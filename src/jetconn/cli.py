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


def _load(path) -> io.Document:
    try:
        return io.load_path(path)
    except OSError as err:
        reason = err.strerror or str(err)
        raise FormatError(f"{path}: {reason}") from None
    except (JetconnError, ValueError, OverflowError) as err:
        raise FormatError(f"{path}: {err}") from None


def _first_order(doc: io.Document):
    if doc.kind == "connection1":
        return doc.value
    if doc.kind == "linear":
        return connections.linear_to_general(doc.value)
    if doc.kind == "affine":
        return connections.affine_to_general(doc.value)
    raise FormatError(
        f"expected a first-order connection, got {io.KIND_LABELS[doc.kind]}"
    )


def _expect(doc: io.Document, kind: str):
    if doc.kind != kind:
        label = io.KIND_LABELS[kind]
        article = "an" if label[0] in "aeiou" else "a"
        raise FormatError(f"expected {article} {label}, got {io.KIND_LABELS[doc.kind]}")
    return doc.value


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
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_validate(args) -> str:
    doc = _load(args.file)
    return f"{args.file}: valid {io.KIND_LABELS[doc.kind]}\n"


def _cmd_product(args) -> str:
    gamma = _first_order(_load(args.first))
    gamma_bar = _first_order(_load(args.second))
    return io.dump_json(io.connection2_to_data(connections.product(gamma, gamma_bar)))


def _cmd_prolong(args) -> str:
    gamma = _first_order(_load(args.file))
    return io.dump_json(io.connection2_to_data(connections.ehresmann_prolongation(gamma)))


def _cmd_curvature(args) -> str:
    gamma = _first_order(_load(args.file))
    grid = connections.curvature(gamma)
    return io.dump_json(io.curvature_to_data(grid, gamma.universe))


def _cmd_exchange(args) -> str:
    delta = _expect(_load(args.file), "connection2")
    return io.dump_json(io.connection2_to_data(connections.exchange(delta)))


def _cmd_family(args) -> str:
    gamma = _first_order(_load(args.file))
    if not math.isfinite(args.k):
        raise FormatError("--k must be a finite number")
    return io.dump_json(io.connection2_to_data(connections.family(gamma, args.k)))


def _cmd_classify(args) -> str:
    delta = _expect(_load(args.file), "connection2")
    return f"{connections.classify(delta, _policy(args))}\n"


def _cmd_semiholonomy(args) -> str:
    point = _expect(_load(args.file), "jet")
    core = jets.is_semiholonomic_point(point)
    agree = jets.projections_agree(point)
    holo = jets.is_holonomic_point(point)
    return (
        f"semiholonomic (core rule): {'yes' if core else 'no'}\n"
        f"semiholonomic (projection cross-check): {'yes' if agree else 'no'}\n"
        f"holonomic: {'yes' if holo else 'no'}\n"
    )


def _cmd_frames(args) -> str:
    doc = _load(args.file)
    if doc.kind == "connection2":
        delta = doc.value
        assignment = None
        if args.at is not None:
            assignment = _assignment(delta.universe, args.at)
        rows = []
        for row in frames.horizontal_lift_field(delta):
            rows.append(
                {
                    "direction": row.direction,
                    "dy": _grid_out(row.dy, assignment),
                    "dyj": _grid_out(row.dyj, assignment),
                }
            )
        return io.dump_json({"lift": rows})
    gamma = _first_order(doc)
    built = frames.adapted_frame(gamma)
    assignment = None
    if args.at is not None:
        assignment = _assignment(gamma.universe, args.at)
    return io.dump_json(
        {
            "frame": _grid_out(built.frame, assignment),
            "coframe": _grid_out(built.coframe, assignment),
        }
    )


def _cmd_twofold(args) -> str:
    doc = _load(args.file)
    conn = _expect(doc, "twofold")
    policy = _policy(args, points=100, tol=1e-10)
    dual = frames.twofold_dual_coframe(
        conn, doc.extra, points=policy.points, tol=policy.tol, seed=policy.seed
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
    transform = _expect(_load(args.file), "transform")
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
    conn_doc = _load(args.connection)
    curve = _expect(_load(args.curve), "curve")
    y0 = _floats(args.y0, "--y0")
    steps = args.steps
    if args.variant == "1":
        result = transport.transport1(_first_order(conn_doc), curve, y0, steps)
    elif args.variant == "2":
        delta = _expect(conn_doc, "connection2")
        n = delta.universe.fiber_dim
        m = delta.universe.base_dim
        if args.yj0 is None:
            yj0 = tuple((0.0,) * m for _ in range(n))
        else:
            flat = _floats(args.yj0, "--yj0")
            if len(flat) != n * m:
                raise FormatError(
                    f"--yj0 needs {n * m} values (row-major y_i^p), got {len(flat)}"
                )
            yj0 = tuple(flat[p * m : (p + 1) * m] for p in range(n))
        result = transport.transport2(delta, curve, y0, yj0, steps)
    else:
        result = transport.second_order_ode(_expect(conn_doc, "connection2"), curve, y0, steps)
    return io.transport_csv(result)


def _cmd_holonomy(args) -> str:
    gamma = _first_order(_load(args.connection))
    loop = _expect(_load(args.loop), "curve")
    result = transport.loop_holonomy(gamma, loop, steps=args.steps)
    return io.dump_json(
        {
            "defect": result.defect,
            "steps": result.steps,
            "matrix": [[float(v) for v in row] for row in result.matrix],
        }
    )


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

    p = sub.add_parser("validate", parents=[common], help="check a document file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser(
        "product", parents=[common], help="order-2 product of two connections"
    )
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(run=_cmd_product)

    p = sub.add_parser(
        "prolong", parents=[common], help="self-product of a connection"
    )
    p.add_argument("file")
    p.set_defaults(run=_cmd_prolong)

    p = sub.add_parser(
        "curvature", parents=[common], help="curvature grid of a connection"
    )
    p.add_argument("file")
    p.set_defaults(run=_cmd_curvature)

    p = sub.add_parser(
        "exchange", parents=[common], help="swap the two order-1 projections"
    )
    p.add_argument("file")
    p.set_defaults(run=_cmd_exchange)

    p = sub.add_parser(
        "family", parents=[common], help="k-weighted symmetrization family"
    )
    p.add_argument("file")
    p.add_argument("--k", type=float, required=True, help="family parameter")
    p.set_defaults(run=_cmd_family)

    p = sub.add_parser(
        "classify", parents=[common], help="holonomy class of an order-2 connection"
    )
    p.add_argument("file")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser(
        "semiholonomy", parents=[common], help="point-level jet checks"
    )
    p.add_argument("file")
    p.set_defaults(run=_cmd_semiholonomy)

    p = sub.add_parser(
        "frames",
        parents=[common],
        help="adapted frame (order 1) or horizontal lift (order 2)",
    )
    p.add_argument("file")
    p.add_argument("--at", default=None, help="evaluate at comma-separated point")
    p.set_defaults(run=_cmd_frames)

    p = sub.add_parser(
        "twofold", parents=[common], help="two-fold frame with verified dual"
    )
    p.add_argument("file")
    p.set_defaults(run=_cmd_twofold)

    p = sub.add_parser(
        "jacobian", parents=[common], help="check a transform respects the fibering"
    )
    p.add_argument("file")
    p.set_defaults(run=_cmd_jacobian)

    p = sub.add_parser(
        "transport", parents=[common], help="integrate transport along a curve"
    )
    p.add_argument("variant", choices=("1", "2", "ode2"))
    p.add_argument("connection")
    p.add_argument("curve")
    p.add_argument("--y0", required=True, help="initial fiber point, comma-separated")
    p.add_argument(
        "--yj0", default=None, help="initial jet block for variant 2, row-major"
    )
    p.add_argument("--steps", type=int, default=100, help="integration steps")
    p.set_defaults(run=_cmd_transport)

    p = sub.add_parser(
        "holonomy", parents=[common], help="transport a basis around a loop"
    )
    p.add_argument("connection")
    p.add_argument("loop")
    p.add_argument("--steps", type=int, required=True, help="integration steps")
    p.set_defaults(run=_cmd_holonomy)

    return parser


# Positional arguments that name input files, in the order a diagnostic lists them.
_INPUT_ARGS = ("file", "first", "second", "connection", "curve", "loop")


def _inputs(args) -> str:
    return " and ".join(
        str(getattr(args, name)) for name in _INPUT_ARGS if hasattr(args, name)
    )


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
        # A FormatError from loading already names its file.
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

"""The ``cmd_<subcommand>`` handlers of frames, twofold and jacobian (see :mod:`jetconn.cli`)."""

import math

from . import evaluate, frames, io
from .errors import EvalError, FormatError
from .expr import to_text


def _assignment(universe, text: str) -> dict:
    names = universe.variable_names
    values = io.floats(text, "--at")
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


def cmd_frames(args) -> str:
    doc = io.load_as(args.file, "connection1", "connection2")
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


def cmd_twofold(args) -> str:
    doc = io.load_as(args.file, "twofold")
    policy = io.sample_policy(args, points=100, tol=1e-10)
    dual = frames.twofold_dual_coframe(
        doc.value, points=policy.points, tol=policy.tol, seed=policy.seed
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


def cmd_jacobian(args) -> str:
    transform = io.load_as(args.file, "transform").value
    report = frames.validate_twofold_jacobian(transform, io.sample_policy(args))
    return io.dump_json(
        {
            "valid": report.valid,
            "confidence": report.confidence,
            "violations": [list(v) for v in report.violations],
            "jacobian": io.grid_to_data(report.jacobian),
        }
    )

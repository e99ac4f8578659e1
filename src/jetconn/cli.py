"""Command line front end.

Exit codes: 0 on success, 1 for domain errors (bad files, dimension
mismatches, failed verification) and for output that cannot be written,
2 for usage errors.  All output is deterministic for a fixed --seed, so
emitted files can be compared byte for byte.

One table, ``_COMMANDS``, declares every subcommand with its arguments.  A
canonical command line is read straight from it; argparse, built from the
same table, is imported only for help, usage errors and the command lines
the reader leaves to it, such as an abbreviated flag or a separate value
that starts with ``-``.
"""

from __future__ import annotations

import errno
import gc
import math
import os
import sys
import types

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
    """Write ``text`` to --output, or to stdout as :func:`_stdout` does."""
    if args.output is None:
        _stdout(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise FormatError(f"{args.output}: {err.strerror or err}") from None


def _stdout(text: str) -> None:
    """Write ``text`` to stdout and flush it, so that a stream that cannot
    take it fails here, by name, and not at exit."""
    try:
        if sys.stdout is None:  # file descriptor 1 was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as err:
        # Drop the stream: what it still holds would fail again at exit.
        sys.stdout = None
        raise FormatError(f"stdout: {err.strerror or err}") from None


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


# The options of every subcommand, then each subcommand's own, as
# (flag, converter of the value, default, help line).  The attribute is the
# flag without its dashes; a default of _REQUIRED makes the option required.
_REQUIRED = object()
_COMMON = (
    ("--seed", int, 0, "sampling seed"),
    ("--tol", float, None, "comparison tolerance"),
    ("--samples", int, None, "sample point count"),
    ("--output", str, None, "write output to PATH"),
)
_VARIANTS = ("1", "2", "ode2")

# One row per subcommand: its help line, its positional arguments, the
# function that runs it and its own options.  Every positional but
# ``variant`` names an input file, in the order a diagnostic lists them.
_COMMANDS = {
    "validate": ("check a document file", ("file",), _cmd_validate, ()),
    "product": ("order-2 product of two connections", ("first", "second"), _cmd_product, ()),
    "prolong": ("self-product of a connection", ("file",), _cmd_prolong, ()),
    "curvature": ("curvature grid of a connection", ("file",), _cmd_curvature, ()),
    "exchange": ("swap the two order-1 projections", ("file",), _cmd_exchange, ()),
    "family": (
        "k-weighted symmetrization family", ("file",), _cmd_family,
        (("--k", float, _REQUIRED, "family parameter"),),
    ),
    "classify": ("holonomy class of an order-2 connection", ("file",), _cmd_classify, ()),
    "semiholonomy": ("point-level jet checks", ("file",), _cmd_semiholonomy, ()),
    "frames": (
        "adapted frame (order 1) or horizontal lift (order 2)", ("file",), _cmd_frames,
        (("--at", str, None, "evaluate at comma-separated point"),),
    ),
    "twofold": ("two-fold frame with verified dual", ("file",), _cmd_twofold, ()),
    "jacobian": ("check a transform respects the fibering", ("file",), _cmd_jacobian, ()),
    "transport": (
        "integrate transport along a curve", ("variant", "connection", "curve"), _cmd_transport,
        (
            ("--y0", str, _REQUIRED, "initial fiber point, comma-separated"),
            ("--yj0", str, None, "initial jet block for variant 2, row-major"),
            ("--steps", int, 100, "integration steps"),
        ),
    ),
    "holonomy": (
        "transport a basis around a loop", ("connection", "loop"), _cmd_holonomy,
        (("--steps", int, _REQUIRED, "integration steps"),),
    ),
}


def _read(argv):
    """The attributes ``build_parser().parse_args(argv)`` would return, for a
    canonical ``argv``, and None for any other.

    Canonical is the subcommand, then its positionals and its options in any
    order: each option by its full flag, at most once, with a value that the
    option's converter accepts; every required option given and ``variant``
    one of its choices.  The value is either the next word, which must not
    start with ``-``, or, in ``--flag=value``, everything after the first
    ``=``, taken as it is, as argparse takes it.  Help, abbreviations, ``--``
    and every error are left to argparse, which then parses the whole line
    itself.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, run, own = _COMMANDS[argv[0]]
    converters = {flag: convert for flag, convert, _, _ in _COMMON + own}
    values = {flag[2:]: default for flag, _, default, _ in _COMMON + own}
    seen, given = set(), []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            given.append(word)
            continue
        flag, joined, value = word.partition("=")
        if not joined:
            value = next(words, "-")  # a flag at the end has no value
            if value.startswith("-"):
                return None
        if flag not in converters or flag in seen:
            return None
        seen.add(flag)
        try:
            values[flag[2:]] = converters[flag](value)
        except ValueError:
            return None
    # A required option that was not given still holds _REQUIRED.
    if len(given) != len(positionals) or _REQUIRED in values.values():
        return None
    if positionals[0] == "variant" and given[0] not in _VARIANTS:
        return None
    values.update(zip(positionals, given), command=argv[0], run=run)
    return types.SimpleNamespace(**values)


def build_parser():
    """The argparse parser of the same command line, for help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="jetconn",
        description="Connections on fibered manifolds: products, frames, transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, positionals, run, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for flag, convert, default, text in _COMMON:
            p.add_argument(flag, type=convert, default=default, help=text)
        # Added after the positionals, so that argparse names a missing
        # required option after them, as it always has.
        for name in positionals:
            p.add_argument(name, choices=_VARIANTS if name == "variant" else None)
        for flag, convert, default, text in own:
            if default is _REQUIRED:
                p.add_argument(flag, type=convert, required=True, help=text)
            else:
                p.add_argument(flag, type=convert, default=default, help=text)
        p.set_defaults(run=run)
    return parser


def _inputs(args) -> str:
    positionals = _COMMANDS[args.command][1]
    return " and ".join(str(getattr(args, name)) for name in positionals if name != "variant")


def _stderr(text: str) -> None:
    """Write ``text`` to stderr and flush it.  A stream that cannot take it
    is dropped, as :func:`_stdout` drops stdout, so that exit does not fail
    on what it still holds."""
    if sys.stderr is None:  # file descriptor 2 was closed at start-up
        return
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        sys.stderr = None


def _parse(argv):
    """``build_parser().parse_args(argv)``, or the exit code argparse asked for.

    argparse writes its help and usage errors while this holds both streams,
    and they reach the real ones as every other output does: help only on
    stdout, where a failed write is an error, and the rest on stderr.
    """
    from io import StringIO

    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err = StringIO(), StringIO()
    try:
        return build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stderr = streams
    try:
        if out.getvalue():
            _stdout(out.getvalue())
    except FormatError as failed:
        code = 1
        err.write(f"error: {failed}\n")
    _stderr(err.getvalue())
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        args = _parse(argv)
        if isinstance(args, int):  # help or a usage error, written already
            return args
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
    _stderr(f"error: {message}\n")
    return 1


def entry() -> int:
    """Run :func:`main` as a whole process and return its exit code.

    Both process entry points end here: ``python -m jetconn.cli`` and the
    ``jetconn`` console script.  ``gc.freeze()`` moves every object still
    alive to the permanent generation, so the interpreter's shutdown
    collections no longer walk them: a few milliseconds of every command,
    spent freeing nothing, since expression trees hold no cycle and
    nothing jetconn holds needs a finalizer.  ``main`` does not freeze, because
    tests and benchmarks call it in a long-lived process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())

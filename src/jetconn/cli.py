"""Command line front end.

Exit codes: 0 on success, 1 for domain errors (bad files, dimension
mismatches, failed verification) and for output that cannot be written,
2 for usage errors.  All output is deterministic for a fixed --seed, so
emitted files can be compared byte for byte.

One table, ``_COMMANDS``, declares every subcommand with its arguments and
the module of its handler, so a command compiles only its own group of
handlers: ``_cli_algebra``, ``_cli_frames`` or ``_cli_transport``.  A
canonical command line is read straight from the table; argparse, built
from the same table in ``_cli_usage``, is loaded only for help, usage
errors and the command lines the reader leaves to it, such as an
abbreviated flag or a separate value that starts with ``-``.
"""

from __future__ import annotations

import errno
import gc
import os
import sys
import types

from . import _cli_algebra, _cli_frames, _cli_transport, _cli_usage
from .errors import FormatError, JetconnError


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
# module whose ``cmd_<subcommand>`` runs it and its own options.  Every
# positional but ``variant`` names an input file, in the order a diagnostic
# lists them.
_COMMANDS = {
    "validate": ("check a document file", ("file",), _cli_algebra, ()),
    "product": ("order-2 product of two connections", ("first", "second"), _cli_algebra, ()),
    "prolong": ("self-product of a connection", ("file",), _cli_algebra, ()),
    "curvature": ("curvature grid of a connection", ("file",), _cli_algebra, ()),
    "exchange": ("swap the two order-1 projections", ("file",), _cli_algebra, ()),
    "family": (
        "k-weighted symmetrization family", ("file",), _cli_algebra,
        (("--k", float, _REQUIRED, "family parameter"),),
    ),
    "classify": ("holonomy class of an order-2 connection", ("file",), _cli_algebra, ()),
    "semiholonomy": ("point-level jet checks", ("file",), _cli_algebra, ()),
    "frames": (
        "adapted frame (order 1) or horizontal lift (order 2)", ("file",), _cli_frames,
        (("--at", str, None, "evaluate at comma-separated point"),),
    ),
    "twofold": ("two-fold frame with verified dual", ("file",), _cli_frames, ()),
    "jacobian": ("check a transform respects the fibering", ("file",), _cli_frames, ()),
    "transport": (
        "integrate transport along a curve", ("variant", "connection", "curve"), _cli_transport,
        (
            ("--y0", str, _REQUIRED, "initial fiber point, comma-separated"),
            ("--yj0", str, None, "initial jet block for variant 2, row-major"),
            ("--steps", int, 100, "integration steps"),
        ),
    ),
    "holonomy": (
        "transport a basis around a loop", ("connection", "loop"), _cli_transport,
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
    _, positionals, _, own = _COMMANDS[argv[0]]
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
    values.update(zip(positionals, given), command=argv[0])
    return types.SimpleNamespace(**values)


def build_parser():
    """The argparse parser of the same command line, for help and usage errors."""
    return _cli_usage.build_parser(_COMMANDS, _COMMON, _VARIANTS, _REQUIRED)


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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv)
    if args is None:
        args = _cli_usage.parse(build_parser(), argv, _stdout, _stderr)
        if isinstance(args, int):  # help or a usage error, written already
            return args
    try:
        run = getattr(_COMMANDS[args.command][2], "cmd_" + args.command)
        _emit(args, run(args))
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

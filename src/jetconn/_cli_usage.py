"""The argparse parser of :mod:`jetconn.cli`, loaded only for the command
lines its reader leaves to argparse.  ``cli`` passes its tables and writers
in: under ``python -m jetconn.cli`` it runs as ``__main__``, and importing
``jetconn.cli`` here would run it a second time."""

import argparse
import sys
from io import StringIO

from .errors import FormatError


def build_parser(commands, common, variants, required):
    """The parser of ``commands``, each with the options ``common``; a
    ``variant`` is one of ``variants``, and an option defaulting to ``required`` is required."""
    parser = argparse.ArgumentParser(
        prog="jetconn",
        description="Connections on fibered manifolds: products, frames, transport.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, positionals, _, own) in commands.items():
        p = sub.add_parser(command, help=help_line)
        for flag, convert, default, text in common:
            p.add_argument(flag, type=convert, default=default, help=text)
        # Added after the positionals, so that argparse names a missing
        # required option after them, as it always has.
        for name in positionals:
            p.add_argument(name, choices=variants if name == "variant" else None)
        for flag, convert, default, text in own:
            if default is required:
                p.add_argument(flag, type=convert, required=True, help=text)
            else:
                p.add_argument(flag, type=convert, default=default, help=text)
    return parser


def parse(parser, argv, stdout, stderr):
    """``parser.parse_args(argv)``, or the exit code argparse asked for.

    argparse writes its help and usage errors while this holds both streams,
    and they reach the real ones through ``stdout`` and ``stderr``, as every
    other output does: help only on stdout, where a failed write is an
    error, and the rest on stderr.
    """
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err = StringIO(), StringIO()
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout, sys.stderr = streams
    try:
        if out.getvalue():
            stdout(out.getvalue())
    except FormatError as failed:
        code = 1
        err.write(f"error: {failed}\n")
    stderr(err.getvalue())
    return code

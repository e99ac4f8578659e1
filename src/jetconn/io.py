"""Loading and saving of the JSON document formats and the CSV trajectory.

Every expression travels as grammar-conformant text, so emitted files can
be fed back in unchanged.  Document kind is detected from the key shape,
not from file names.  The last section reads the command line's inputs for
the handlers of every subcommand.
"""

from __future__ import annotations

import itertools
import json
import math

from . import connections, evaluate, frames, jets, transport
from .errors import FormatError, JetconnError
from .expr import Expr, SymbolUniverse, Value, expr_grid, parse_expr, to_text

KIND_LABELS = {
    "connection1": "order-1 connection",
    "connection2": "order-2 connection",
    "linear": "linear connection",
    "affine": "affine connection",
    "twofold": "two-fold connection",
    "transform": "two-fold transform",
    "jet": "jet point",
    "curve": "curve",
    "curvature": "curvature grid",
}


class Document(Value):
    """One loaded file: its detected kind and the constructed value, whose
    every grid has been checked."""

    __slots__ = ("kind", "value")


def detect_kind(data) -> str:
    if not isinstance(data, dict):
        raise FormatError("top level must be a JSON object")
    if data.get("affine") is True:
        return "affine"
    if data.get("transform") is True:
        return "transform"
    if "dims" in data and "blocks" in data:
        return "twofold"
    if "values" in data and "order" in data:
        return "jet"
    if "components" in data and "dim" in data:
        return "curve"
    if data.get("linear") is True:
        return "linear"
    if data.get("curvature") is True:
        return "curvature"
    if data.get("order") == 2:
        return "connection2"
    if data.get("order") == 1 and "F" in data:
        return "connection1"
    raise FormatError("unrecognized document layout")


def _need(data, key, kind):
    if key not in data:
        raise FormatError(f"{kind} document is missing the {key!r} field")
    return data[key]


def _is_number(value, types) -> bool:
    # true and false load as bools, which Python counts as ints.
    return isinstance(value, types) and not isinstance(value, bool)


def _number(value, what, types=(int, float)):
    """``value``, if it is a JSON number of ``types``: an integer if ``int``."""
    if not _is_number(value, types):
        raise FormatError(f"{what} must be {'an integer' if types is int else 'a number'}")
    return value


def _numbers(value, what, types=(int, float)) -> tuple:
    """``value`` as a tuple, if it is a JSON array of numbers of ``types``."""
    if isinstance(value, list) and all(_is_number(v, types) for v in value):
        return tuple(value)
    raise FormatError(f"{what} must be an array of {'integers' if types is int else 'numbers'}")


def _int_field(data, key, kind) -> int:
    return _number(_need(data, key, kind), f"{kind} field {key!r}", int)


def _dims(data, kind) -> tuple:
    dims = _need(data, "dims", kind)
    if not isinstance(dims, list) or len(dims) != 4:
        raise FormatError(f"{kind} dims must be a 4-element array")
    return _numbers(dims, f"{kind} dims", int)


def _parse_grid(node, universe, depth):
    if depth == 0:
        if not isinstance(node, str):
            raise FormatError(f"expected expression text, got {type(node).__name__}")
        return parse_expr(node, universe)
    if not isinstance(node, list):
        raise FormatError("expected a nested array of expression text")
    return tuple(_parse_grid(child, universe, depth - 1) for child in node)


def _universe(data, kind) -> SymbolUniverse:
    """The symbols of a connection document, from its dimension fields.

    An affine connection has one ``dim`` for base and fiber; the others
    have ``base_dim`` and ``fiber_dim``, checked in that order.
    """
    if kind == "affine":
        n = _int_field(data, "dim", kind)
        return SymbolUniverse(n, n)
    m = _int_field(data, "base_dim", kind)
    return SymbolUniverse(m, _int_field(data, "fiber_dim", kind))


def load_data(data) -> Document:
    """Build the typed object for an already-parsed JSON payload."""
    kind = detect_kind(data)
    if kind in ("connection1", "connection2", "linear", "affine"):
        u = _universe(data, kind)

        def grid(key, depth):
            return _parse_grid(_need(data, key, kind), u, depth)

        if kind == "connection1":
            return Document(kind, connections.Connection1(u, grid("F", 2)))
        if kind == "connection2":
            conn = connections.Connection2(u, grid("F", 2), grid("G", 2), grid("H", 3))
            return Document(kind, conn)
        if kind == "linear":
            return Document(kind, connections.LinearConnection1(u, grid("coeff", 3)))
        return Document(kind, connections.AffineConnection(u.base_dim, grid("christoffel", 3)))
    if kind == "twofold":
        dims = _dims(data, kind)
        u = frames.twofold_universe(dims)
        blocks = _need(data, "blocks", kind)
        if not isinstance(blocks, dict):
            raise FormatError("twofold blocks must be an object")
        names = ("g1_base", "g2_base", "g12_base", "g12_f1", "g12_f2")
        grids = [_parse_grid(_need(blocks, name, "twofold blocks"), u, 2) for name in names]
        conn = frames.TwoFoldConnection(dims, *grids)
        if "gamma12_base" in data:
            # gamma12_base, checked under its own name, takes the place of
            # blocks.g12_base, which was checked with the other blocks.
            grid = _parse_grid(data["gamma12_base"], u, 2)
            grids[2] = expr_grid(grid, (dims[3], dims[0]), u.extra_symbols, "gamma12_base")
            conn = frames.TwoFoldConnection(dims, *grids)
        return Document(kind, conn)
    if kind == "transform":
        dims = _dims(data, kind)
        u = frames.twofold_universe(dims)
        comps = _need(data, "components", kind)
        if not isinstance(comps, list):
            raise FormatError("transform components must be an array")
        return Document(kind, frames.TwofoldTransform(dims, _parse_grid(comps, u, 1)))
    if kind == "jet":
        r = _int_field(data, "order", kind)
        m = _int_field(data, "base_dim", kind)
        n = _int_field(data, "fiber_dim", kind)
        base = _numbers(_need(data, "base", kind), "jet base")
        records = _need(data, "values", kind)
        if not isinstance(records, list):
            raise FormatError("jet values must be an array of records")
        table = {}
        for rec in records:
            if not isinstance(rec, dict):
                raise FormatError("jet values must be an array of records")
            p = _number(_need(rec, "p", "jet record"), "jet record field 'p'", int)
            seq = _numbers(_need(rec, "seq", "jet record"), "jet record field 'seq'", int)
            if (p, seq) in table:
                raise FormatError(f"duplicate jet record for p={p}, seq={seq}")
            value = _need(rec, "value", "jet record")
            table[(p, seq)] = _number(value, "jet record field 'value'")
        return Document(kind, jets.JetPoint(r, m, n, base, table))
    if kind == "curve":
        dim = _int_field(data, "dim", kind)
        comps = _need(data, "components", kind)
        if not isinstance(comps, list):
            raise FormatError("curve components must be an array")
        t0 = _number(_need(data, "t0", kind), "curve field 't0'")
        t1 = _number(_need(data, "t1", kind), "curve field 't1'")
        grid = _parse_grid(comps, transport.CURVE_UNIVERSE, 1)
        return Document(kind, transport.Curve(dim, grid, t0, t1))
    u = _universe(data, kind)
    grid = _parse_grid(_need(data, "R", kind), u, 3)
    return Document(kind, expr_grid(grid, (u.fiber_dim, u.base_dim, u.base_dim), u, "R"))


def load_path(path) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as err:
            # The decoder recurses once per nesting level of arrays and objects.
            raise FormatError(f"not valid JSON: {err}") from None
    return load_data(data)


def grid_to_data(grid, leaf=None) -> list:
    """``grid`` as nested lists for JSON, each expression replaced by ``leaf(e)``.

    The default, ``to_text`` as this module binds it at the call, writes
    each expression's text, which parses back in.
    """
    if leaf is None:
        leaf = to_text
    if isinstance(grid, Expr):
        return leaf(grid)
    return [grid_to_data(child, leaf) for child in grid]


def connection1_to_data(conn: connections.Connection1) -> dict:
    return {
        "order": 1,
        "base_dim": conn.universe.base_dim,
        "fiber_dim": conn.universe.fiber_dim,
        "F": grid_to_data(conn.F),
    }


def connection2_to_data(conn: connections.Connection2) -> dict:
    return {
        "order": 2,
        "base_dim": conn.universe.base_dim,
        "fiber_dim": conn.universe.fiber_dim,
        "F": grid_to_data(conn.F),
        "G": grid_to_data(conn.G),
        "H": grid_to_data(conn.H),
    }


def curvature_to_data(grid, universe: SymbolUniverse) -> dict:
    return {
        "curvature": True,
        "base_dim": universe.base_dim,
        "fiber_dim": universe.fiber_dim,
        "R": grid_to_data(grid),
    }


def dump_json(data) -> str:
    """``data`` as indented JSON; a NaN or infinity raises ``ValueError``."""
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def transport_csv(result: transport.TransportResult) -> str:
    """Render a trajectory as CSV: t, fiber columns, then any jet columns."""
    n = len(result.values[0])
    header = ["t"] + [f"y{p}" for p in range(1, n + 1)]
    if result.jet_values is not None:
        m = len(result.jet_values[0][0])
        header += [f"y{p}_{i}" for p in range(1, n + 1) for i in range(1, m + 1)]
    # One format for every row.  Every value is a float, and %s of a float
    # is its repr.
    row = ",".join(["%s"] * len(header)) + "\n"
    times, values, jet_values = result.times, result.values, result.jet_values
    if jet_values is None:
        rows = [row % (t, *y) for t, y in zip(times, values)]
    else:
        flat = itertools.chain.from_iterable
        rows = [row % (t, *y, *flat(jet)) for t, y, jet in zip(times, values, jet_values)]
    return ",".join(header) + "\n" + "".join(rows)


# --- the command line's inputs ------------------------------------------------

def load_as(path, *kinds) -> Document:
    """The document at ``path``, whose kind must be one of ``kinds`` if any are given.

    "connection1" stands for any first-order connection: a linear or affine
    document comes back as a general one.  Every failure names ``path``, and
    a wrong kind names every one of ``kinds``.
    """
    try:
        doc = load_path(path)
    except OSError as err:
        raise FormatError(f"{path}: {err.strerror or err}") from None
    except (JetconnError, ValueError, OverflowError) as err:
        raise FormatError(f"{path}: {err}") from None
    if not kinds or doc.kind in kinds:
        return doc
    if "connection1" in kinds and doc.kind == "linear":
        return Document("connection1", connections.linear_to_general(doc.value))
    if "connection1" in kinds and doc.kind == "affine":
        return Document("connection1", connections.affine_to_general(doc.value))
    labels = ["first-order connection" if k == "connection1" else KIND_LABELS[k] for k in kinds]
    expected = " or ".join(("an " if label[0] in "aeiou" else "a ") + label for label in labels)
    raise FormatError(f"{path}: expected {expected}, got {KIND_LABELS[doc.kind]}")


def sample_policy(args, points: int = 64, tol: float = 1e-9) -> evaluate.SamplePolicy:
    """--samples, --tol and --seed, with the command's defaults for the first two."""
    points = points if args.samples is None else args.samples
    tol = tol if args.tol is None else args.tol
    evaluate.check_sampling(points, tol, ("--samples", "--tol"))
    return evaluate.SamplePolicy(points=points, tol=tol, seed=args.seed)


def floats(text: str, what: str) -> tuple:
    """The comma-separated finite numbers of the option ``what``."""
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise FormatError(f"{what} must be comma-separated numbers") from None
    if not all(map(math.isfinite, values)):
        raise FormatError(f"{what} must be finite numbers")
    return values

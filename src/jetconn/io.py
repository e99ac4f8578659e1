"""Loading and saving of the JSON document formats and the CSV trajectory.

Every expression travels as grammar-conformant text, so emitted files can
be fed back in unchanged.  Document kind is detected from the key shape,
not from file names.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from . import connections, frames, jets, transport
from .errors import FormatError
from .expr import Expr, SymbolUniverse, expr_grid, parse_expr, to_text

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


@dataclass(frozen=True)
class Document:
    """One loaded file: its detected kind and the constructed value.

    For two-fold connections ``extra`` carries the optional gamma12_base
    override grid; for curvature grids it holds the raw payload.
    """

    kind: str
    value: object
    extra: object = None


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


def _int_field(data, key, kind) -> int:
    value = _need(data, key, kind)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{kind} field {key!r} must be an integer")
    return value


def _number(value, convert, what):
    """``convert(value)``; a JSON value no number converts from is a FormatError."""
    try:
        return convert(value)
    except TypeError:
        raise FormatError(f"{what} must be a number") from None


def _numbers(value, convert, what) -> tuple:
    if isinstance(value, list):
        try:
            return tuple(convert(v) for v in value)
        except TypeError:
            pass
    raise FormatError(f"{what} must be an array of numbers")


def _dims(data, kind) -> tuple:
    dims = _need(data, "dims", kind)
    if not isinstance(dims, list) or len(dims) != 4:
        raise FormatError(f"{kind} dims must be a 4-element array")
    return _numbers(dims, int, f"{kind} dims")


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
        grids = {}
        for name in ("g1_base", "g2_base", "g12_base", "g12_f1", "g12_f2"):
            grids[name] = _parse_grid(_need(blocks, name, "twofold blocks"), u, 2)
        conn = frames.TwoFoldConnection(
            dims,
            grids["g1_base"],
            grids["g2_base"],
            grids["g12_base"],
            grids["g12_f1"],
            grids["g12_f2"],
        )
        override = None
        if "gamma12_base" in data:
            grid = _parse_grid(data["gamma12_base"], u, 2)
            override = expr_grid(grid, (dims[3], dims[0]), u.extra_symbols, "gamma12_base")
        return Document(kind, conn, override)
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
        base = _numbers(_need(data, "base", kind), float, "jet base")
        records = _need(data, "values", kind)
        if not isinstance(records, list):
            raise FormatError("jet values must be an array of records")
        table = {}
        for rec in records:
            if not isinstance(rec, dict):
                raise FormatError("jet values must be an array of records")
            p = _number(_need(rec, "p", "jet record"), int, "jet record field 'p'")
            seq = _need(rec, "seq", "jet record")
            seq = _numbers(seq, int, "jet record field 'seq'")
            if (p, seq) in table:
                raise FormatError(f"duplicate jet record for p={p}, seq={seq}")
            value = _need(rec, "value", "jet record")
            table[(p, seq)] = _number(value, float, "jet record field 'value'")
        return Document(kind, jets.JetPoint(r, m, n, base, table))
    if kind == "curve":
        dim = _int_field(data, "dim", kind)
        comps = _need(data, "components", kind)
        if not isinstance(comps, list):
            raise FormatError("curve components must be an array")
        t0 = _number(_need(data, "t0", kind), float, "curve field 't0'")
        t1 = _number(_need(data, "t1", kind), float, "curve field 't1'")
        grid = _parse_grid(comps, transport.CURVE_UNIVERSE, 1)
        return Document(kind, transport.Curve(dim, grid, t0, t1))
    # curvature grids round-trip as raw payload; validate only inspects them
    m = _int_field(data, "base_dim", kind)
    n = _int_field(data, "fiber_dim", kind)
    u = SymbolUniverse(m, n)
    grid = _parse_grid(_need(data, "R", kind), u, 3)
    return Document(kind, grid, data)


def load_path(path) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise FormatError(f"not valid JSON: {err}") from None
    return load_data(data)


def grid_to_data(grid, leaf=to_text) -> list:
    """``grid`` as nested lists for JSON, each expression replaced by ``leaf(e)``.

    The default writes each expression's text, which parses back in.
    """
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
    lines = [",".join(header)]
    # Every value is a float: float.__repr__ is repr, also for a numpy
    # float64, which is a float whose own repr is not.
    text = float.__repr__
    times, values, jet_values = result.times, result.values, result.jet_values
    if jet_values is None:
        lines += [",".join(map(text, (t, *y))) for t, y in zip(times, values)]
    else:
        flat = itertools.chain.from_iterable
        rows = zip(times, values, jet_values)
        lines += [",".join(map(text, (t, *y, *flat(jet)))) for t, y, jet in rows]
    return "\n".join(lines) + "\n"

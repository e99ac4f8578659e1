"""The ``cmd_<subcommand>`` handlers of transport and holonomy (see :mod:`jetconn.cli`)."""

from . import io, transport
from .errors import FormatError


def cmd_transport(args) -> str:
    kind = "connection1" if args.variant == "1" else "connection2"
    conn = io.load_as(args.connection, kind).value
    curve = io.load_as(args.curve, "curve").value
    y0 = io.floats(args.y0, "--y0")
    steps = args.steps
    if args.variant == "1":
        result = transport.transport1(conn, curve, y0, steps)
    elif args.variant == "2":
        n = conn.universe.fiber_dim
        m = conn.universe.base_dim
        if args.yj0 is None:
            yj0 = tuple((0.0,) * m for _ in range(n))
        else:
            flat = io.floats(args.yj0, "--yj0")
            if len(flat) != n * m:
                raise FormatError(
                    f"--yj0 needs {n * m} values (row-major y_i^p), got {len(flat)}"
                )
            yj0 = tuple(flat[p * m : (p + 1) * m] for p in range(n))
        result = transport.transport2(conn, curve, y0, yj0, steps)
    else:
        result = transport.second_order_ode(conn, curve, y0, steps)
    return io.transport_csv(result)


def cmd_holonomy(args) -> str:
    gamma = io.load_as(args.connection, "connection1").value
    loop = io.load_as(args.loop, "curve").value
    result = transport.loop_holonomy(gamma, loop, steps=args.steps)
    return io.dump_json(
        {
            "defect": result.defect,
            "steps": result.steps,
            "matrix": [[float(v) for v in row] for row in result.matrix],
        }
    )

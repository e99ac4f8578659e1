"""The ``cmd_<subcommand>`` handlers of the commands on connections and jet
points; :mod:`jetconn.cli` declares their command lines."""

import math

from . import connections, io, jets
from .errors import FormatError


def cmd_validate(args) -> str:
    doc = io.load_as(args.file)
    return f"{args.file}: valid {io.KIND_LABELS[doc.kind]}\n"


def cmd_product(args) -> str:
    gamma = io.load_as(args.first, "connection1").value
    gamma_bar = io.load_as(args.second, "connection1").value
    return io.dump_json(io.connection2_to_data(connections.product(gamma, gamma_bar)))


def cmd_prolong(args) -> str:
    gamma = io.load_as(args.file, "connection1").value
    return io.dump_json(io.connection2_to_data(connections.ehresmann_prolongation(gamma)))


def cmd_curvature(args) -> str:
    gamma = io.load_as(args.file, "connection1").value
    grid = connections.curvature(gamma)
    return io.dump_json(io.curvature_to_data(grid, gamma.universe))


def cmd_exchange(args) -> str:
    delta = io.load_as(args.file, "connection2").value
    return io.dump_json(io.connection2_to_data(connections.exchange(delta)))


def cmd_family(args) -> str:
    gamma = io.load_as(args.file, "connection1").value
    if not math.isfinite(args.k):
        raise FormatError("--k must be a finite number")
    return io.dump_json(io.connection2_to_data(connections.family(gamma, args.k)))


def cmd_classify(args) -> str:
    delta = io.load_as(args.file, "connection2").value
    return f"{connections.classify(delta, io.sample_policy(args))}\n"


def cmd_semiholonomy(args) -> str:
    point = io.load_as(args.file, "jet").value
    core = jets.is_semiholonomic_point(point)
    agree = jets.projections_agree(point)
    holo = jets.is_holonomic_point(point)
    return (
        f"semiholonomic (core rule): {'yes' if core else 'no'}\n"
        f"semiholonomic (projection cross-check): {'yes' if agree else 'no'}\n"
        f"holonomic: {'yes' if holo else 'no'}\n"
    )

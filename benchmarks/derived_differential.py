"""Compare this checkout's derived grids with another checkout's on random connections.

Each seed draws two order-1 connections with base dimension 2 and fiber
dimension 1, whose entries are ``random_expr`` trees of depth 3
(``tests/conftest.py::random_entries``), once with exact constants and once
with each constant k made the float k/2.  On each side the first connection
goes through ``prolong``, ``curvature``, ``family`` at k = 0.5, ``product``
with the second and ``classify`` of the prolongation and of the family
member, in that order and in one process, so that a command meets what the
ones before it left in the nodes.  Each output is printed as the command
line prints it; a failure is compared by type and message.  The first
difference is printed, and then a count of the connections that differ,
with their seeds, exiting 1; otherwise one line counts the connections
compared.  Usage:

    python3 benchmarks/derived_differential.py OTHER_SRC [--seeds 0-299]

OTHER_SRC is the ``src`` directory of the other checkout, for example one
made with ``git archive``.  Its ``jetconn`` is loaded as ``jetconn_other``.
"""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path

import jetconn

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from conftest import random_entries  # noqa: E402


def load_other(src):
    """The ``jetconn`` package under ``src``, loaded as ``jetconn_other``."""
    package = Path(src) / "jetconn"
    spec = importlib.util.spec_from_file_location(
        "jetconn_other", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["jetconn_other"] = module
    spec.loader.exec_module(module)
    return module


def rebuild(expr, e):
    """``e`` built again from the node classes of the module ``expr``."""
    nodes = []
    for kind, *fields in e.__reduce__()[1][0]:
        operands = [nodes[f[0]] if type(f) is tuple else f for f in fields]
        nodes.append(getattr(expr, kind.__name__)(*operands))
    return nodes[-1]


def outputs(package, entries):
    """(command, printed output) of each command, in order, under ``package``."""
    expr = importlib.import_module(package.__name__ + ".expr")
    connections = importlib.import_module(package.__name__ + ".connections")
    io = importlib.import_module(package.__name__ + ".io")
    u = expr.SymbolUniverse(2, 1)
    entries = [rebuild(expr, e) for e in entries]
    gamma = connections.Connection1(u, (tuple(entries[:2]),))
    gamma_bar = connections.Connection1(u, (tuple(entries[2:]),))
    made, out = {}, []
    for command, run in [
        ("prolong", lambda: connections.ehresmann_prolongation(gamma)),
        ("curvature", lambda: io.curvature_to_data(connections.curvature(gamma), u)),
        ("family 0.5", lambda: connections.family(gamma, 0.5)),
        ("product", lambda: connections.product(gamma, gamma_bar)),
        ("classify prolong", lambda: connections.classify(made["prolong"])),
        ("classify family 0.5", lambda: connections.classify(made["family 0.5"])),
    ]:
        try:
            value = made[command] = run()
            if isinstance(value, connections.Connection2):
                value = io.connection2_to_data(value)
            out.append((command, io.dump_json(value) if isinstance(value, dict) else str(value)))
        except Exception as err:  # a failure is compared by type and message
            out.append((command, f"{type(err).__name__}: {err}"))
    return out


def first_line_apart(a, b):
    """The first pair of lines that differ between the texts ``a`` and ``b``."""
    lines = zip(a.splitlines() + ["<end>"], b.splitlines() + ["<end>"])
    return next(((x, y) for x, y in lines if x != y), (a, b))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src")
    parser.add_argument("--seeds", default="0-299")
    args = parser.parse_args(argv)

    first, last = (int(k) for k in args.seeds.split("-"))
    other = load_other(args.other_src)
    differ, compared = {"exact": [], "float": []}, 0
    for kind, floats in (("exact", False), ("float", True)):
        for seed in range(first, last + 1):
            entries = random_entries(seed, floats, count=4)
            pairs = zip(outputs(jetconn, entries), outputs(other, entries))
            apart = [(command, a, b) for (command, a), (_, b) in pairs if a != b]
            if apart and not any(differ.values()):
                command, a, b = apart[0]
                mine, theirs = first_line_apart(a, b)
                print(f"{kind} seed {seed} {command} differs: {mine!r} against {theirs!r}")
            if apart:
                differ[kind].append(seed)
            compared += 1
    count = sum(map(len, differ.values()))
    if count:
        print(f"{count} of {compared} connections differ: " + "; ".join(
            f"{kind} seeds {', '.join(map(str, seeds)) or 'none'}"
            for kind, seeds in differ.items()))
        return 1
    print(f"{compared} connections identical: seeds {first}-{last}, exact and float")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time ``simplify``, ``diff``, ``to_text`` and parsing on long sums and on a shared DAG.

The table's sums have n distinct terms ``k*x1^k*y1``, k = 1..n, parsed
from text, so they nest n deep.  Each time is the best of ``--repeat``
runs.  ``simplify`` gets a freshly parsed tree each run, so no run reads
the cache of another; ``diff`` (by x1) and ``to_text`` get the simplified
sum; ``diff (parsed)`` differentiates a freshly parsed tree, simplifying it
too, as ``product`` does with each entry it reads; and ``parse`` is
``parse_expr`` of the sum's text.  Linear time
shows as times that grow with n.  The last three lines time ``==``
against a ``copy.deepcopy``, ``diff`` and ``simplify`` on ``e = e + e``
done ``--depth`` times from ``e = x1``: 2^depth paths through depth + 1
nodes, which must simplify to one term (``to_text`` is not timed there:
the text has 2^depth terms).  Usage:

    python3 benchmarks/bench_simplify.py [--sizes 200,400,800,1600,10000] [--depth 40] [--repeat 3]
"""

import argparse
import copy
import time

from jetconn import SymbolUniverse, diff, parse_expr, simplify, to_text
from jetconn.expr import Add, Var

U = SymbolUniverse(1, 1)


def best_of(repeat, make, run):
    """The least wall time of ``run(make())`` over ``repeat`` calls, and its last result."""
    best, result = float("inf"), None
    for _ in range(repeat):
        arg = make()
        start = time.perf_counter()
        result = run(arg)
        best = min(best, time.perf_counter() - start)
    return best, result


def long_text(n):
    return " + ".join(f"{k}*x1^{k}*y1" for k in range(1, n + 1))


def long_sum(n):
    return parse_expr(long_text(n), U)


def doubling(depth):
    e = Var("x1")
    for _ in range(depth):
        e = Add(e, e)
    return e


def by_x1(e):
    return diff(e, "x1")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="200,400,800,1600,10000")
    parser.add_argument("--depth", type=int, default=40)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    sizes = [int(n) for n in args.sizes.split(",")]
    rows = {"simplify": [], "diff": [], "diff (parsed)": [], "to_text": [], "parse": []}
    for n in sizes:
        rows["simplify"].append(best_of(args.repeat, lambda n=n: long_sum(n), simplify)[0])
        once = simplify(long_sum(n))
        rows["diff"].append(best_of(args.repeat, lambda: once, by_x1)[0])
        rows["diff (parsed)"].append(best_of(args.repeat, lambda n=n: long_sum(n), by_x1)[0])
        rows["to_text"].append(best_of(args.repeat, lambda: once, to_text)[0])
        text = long_text(n)
        rows["parse"].append(best_of(args.repeat, lambda: text, lambda t: parse_expr(t, U))[0])
    print("| n | " + " | ".join(map(str, sizes)) + " |")
    print("|---|" + "---|" * len(sizes))
    for name, times in rows.items():
        print(f"| {name}, s | " + " | ".join(f"{t:.3f}" for t in times) + " |")
    dag = doubling(args.depth)
    seconds, same = best_of(args.repeat, lambda: copy.deepcopy(dag), dag.__eq__)
    print(f"doubling DAG, depth {args.depth}: == {seconds:.6f} s against a deepcopy -> {same}")
    for name, run in (("diff", by_x1), ("simplify", simplify)):
        seconds, out = best_of(args.repeat, lambda: doubling(args.depth), run)
        print(f"doubling DAG, depth {args.depth}: {name} {seconds:.4f} s -> {to_text(out)}")


if __name__ == "__main__":
    main()

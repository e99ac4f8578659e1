"""Time ``simplify``, ``diff``, ``to_text`` and parsing on long sums and on a shared DAG.

The table's sums have n distinct terms ``k*x1^k*y1``, k = 1..n, parsed
from text, so they nest n deep.  Each time is the best of ``--repeat``
runs.  ``simplify`` gets a freshly parsed tree each run, so no run reads
the cache of another; ``diff`` (by x1) and ``to_text`` get the simplified
sum; ``diff (parsed)`` differentiates a freshly parsed tree, simplifying it
too, as ``product`` does with each entry it reads; and ``parse`` is
``parse_expr`` of the sum's text.  Linear time
shows as times that grow with n.  A second table gives the seconds of
cyclic garbage collection within each of those best runs, clocked through
``gc.callbacks``.  The next line times ``expr_equal`` of the parsed
``0.5*(A) + 0.5*(B)`` against ``0.5*(B) + 0.5*(A)``, A and B sums of 40
terms, as ``classify`` compares a family.  The last three lines time ``==``
against a ``copy.deepcopy``, ``diff`` and ``simplify`` on ``e = e + e``
done ``--depth`` times from ``e = x1``: 2^depth paths through depth + 1
nodes, which must simplify to one term (``to_text`` is not timed there:
the text has 2^depth terms).  Usage:

    python3 benchmarks/bench_simplify.py [--sizes 200,400,800,1600,10000] [--depth 40] [--repeat 3]
"""

import argparse
import copy
import gc
import time

from jetconn import SymbolUniverse, diff, expr_equal, parse_expr, simplify, to_text
from jetconn.expr import Add, Var

U = SymbolUniverse(1, 1)


class GcClock:
    """A ``gc.callbacks`` entry that adds up the seconds spent collecting."""

    def __init__(self):
        self.seconds = 0.0
        self.start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self.start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self.start


def best_of(repeat, make, run):
    """The least wall time of ``run(make())`` over ``repeat`` calls, the garbage
    collection seconds within that call, and the last result."""
    best, collecting, result = float("inf"), 0.0, None
    clock = GcClock()
    gc.callbacks.append(clock)
    try:
        for _ in range(repeat):
            arg = make()
            clock.seconds = 0.0
            start = time.perf_counter()
            result = run(arg)
            seconds = time.perf_counter() - start
            if seconds < best:
                best, collecting = seconds, clock.seconds
    finally:
        gc.callbacks.remove(clock)
    return best, collecting, result


def long_text(n):
    return " + ".join(f"{k}*x1^{k}*y1" for k in range(1, n + 1))


def long_sum(n):
    return parse_expr(long_text(n), U)


def halves(first, second):
    """The parsed ``0.5*(first) + 0.5*(second)``."""
    return parse_expr(f"0.5*({first}) + 0.5*({second})", U)


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
        rows["simplify"].append(best_of(args.repeat, lambda n=n: long_sum(n), simplify))
        once = simplify(long_sum(n))
        rows["diff"].append(best_of(args.repeat, lambda: once, by_x1))
        rows["diff (parsed)"].append(best_of(args.repeat, lambda n=n: long_sum(n), by_x1))
        rows["to_text"].append(best_of(args.repeat, lambda: once, to_text))
        text = long_text(n)
        rows["parse"].append(best_of(args.repeat, lambda: text, lambda t: parse_expr(t, U)))
    for part, label in ((0, ""), (1, " gc")):
        print("| n | " + " | ".join(map(str, sizes)) + " |")
        print("|---|" + "---|" * len(sizes))
        for name, runs in rows.items():
            print(f"| {name}{label}, s | " + " | ".join(f"{r[part]:.3f}" for r in runs) + " |")
        print()
    a, b = long_text(40), " + ".join(f"{k}*x1*y1^{k}" for k in range(1, 41))
    seconds, _, result = best_of(args.repeat, lambda: (halves(a, b), halves(b, a)),
                                 lambda pair: expr_equal(*pair))
    print(f"0.5*(A) + 0.5*(B) against 0.5*(B) + 0.5*(A), 40-term sums: expr_equal "
          f"{seconds:.4f} s -> {result.equal} ({result.confidence})")
    dag = doubling(args.depth)
    seconds, _, same = best_of(args.repeat, lambda: copy.deepcopy(dag), dag.__eq__)
    print(f"doubling DAG, depth {args.depth}: == {seconds:.6f} s against a deepcopy -> {same}")
    for name, run in (("diff", by_x1), ("simplify", simplify)):
        seconds, _, out = best_of(args.repeat, lambda: doubling(args.depth), run)
        print(f"doubling DAG, depth {args.depth}: {name} {seconds:.4f} s -> {to_text(out)}")


if __name__ == "__main__":
    main()

"""Time ``simplify`` on long sums and on a DAG of shared sums.

The first table is the sum of n distinct terms ``k*x1^k*y1``, k = 1..n,
parsed from text, so it nests n deep.  Each time is the best of
``--repeat`` runs, each on a freshly parsed tree, so no run reads the
cache of another.  The last line times ``e = e + e`` done ``--depth``
times from ``e = x1``: 2^depth paths through depth + 1 nodes, which must
simplify to one term.  Usage:

    python3 benchmarks/bench_simplify.py [--sizes 200,400,800,1600] [--depth 40] [--repeat 3]
"""

import argparse
import time

from jetconn import SymbolUniverse, parse_expr, simplify, to_text
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


def long_sum(n):
    return parse_expr(" + ".join(f"{k}*x1^{k}*y1" for k in range(1, n + 1)), U)


def doubling(depth):
    e = Var("x1")
    for _ in range(depth):
        e = Add(e, e)
    return e


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="200,400,800,1600")
    parser.add_argument("--depth", type=int, default=40)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    sizes = [int(n) for n in args.sizes.split(",")]
    print("| n | " + " | ".join(map(str, sizes)) + " |")
    print("|---|" + "---|" * len(sizes))
    times = [best_of(args.repeat, lambda n=n: long_sum(n), simplify)[0] for n in sizes]
    print("| simplify, s | " + " | ".join(f"{t:.3f}" for t in times) + " |")
    seconds, out = best_of(args.repeat, lambda: doubling(args.depth), simplify)
    print(f"doubling DAG, depth {args.depth}: {seconds:.4f} s -> {to_text(out)}")


if __name__ == "__main__":
    main()

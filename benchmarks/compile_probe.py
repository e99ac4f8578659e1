"""The jetconn source each command of the cli_samples workload compiles, and its peak memory.

Each command of ``clibench``'s ``cli_samples`` workload (every subcommand on
``sample_inputs/``, seed 5) runs in a fresh interpreter that wraps
``SourceFileLoader.source_to_code``, imports ``jetconn.cli`` and calls
``main``.  No bytecode is written (``PYTHONDONTWRITEBYTECODE=1``) and the
child reads none for jetconn, even where a ``__pycache__`` holds some, so
every jetconn module a command loads is compiled from source while the
standard library's is read from its cache, as in the benchmark.  One row per
command gives the modules compiled with the source lines and milliseconds
of each, their totals, the largest module and the process's peak resident
set (``VmHWM``), the milliseconds and the peak being medians over
``REPEAT`` processes.  Usage:

    python3 benchmarks/compile_probe.py [SRC] [--commands validate,twofold]

SRC is the ``src`` directory to import jetconn from, this checkout's by
default; another checkout's gives the figures to compare with.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "clibench"))

from workloads import WORKLOADS  # noqa: E402

REPEAT = 5

# Prints, as one JSON line, each jetconn module compiled while the command
# runs, with its lines and seconds, then the process's peak resident set.
CHILD = """\
import io, json, sys, time
from importlib.machinery import SourceFileLoader
compiled = []
original = SourceFileLoader.source_to_code
def source_to_code(self, data, path, **kwargs):
    start = time.perf_counter()
    code = original(self, data, path, **kwargs)
    compiled.append((path, data.count(b"\\n"), time.perf_counter() - start))
    return code
SourceFileLoader.source_to_code = source_to_code
stats = SourceFileLoader.path_stats
def path_stats(self, path):
    # Without the source's stats the loader reads no bytecode for it.
    if self.name.partition(".")[0] == "jetconn":
        raise OSError(path)
    return stats(self, path)
SourceFileLoader.path_stats = path_stats
from jetconn.cli import main
sys.stdout = io.StringIO()
main(sys.argv[1:])
sys.stdout = sys.__stdout__
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"compiled": compiled, "peak_kb": kb}))
"""


def probe(src, argv):
    """The jetconn modules ``argv`` compiles, as {name: (lines, seconds)}, and its peak in KB."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=600, check=True)
    report = json.loads(child.stdout.splitlines()[-1])
    package = (Path(src) / "jetconn").resolve()
    modules = {Path(path).name: (lines, seconds) for path, lines, seconds in report["compiled"]
               if Path(path).resolve().parent == package}
    return modules, report["peak_kb"]


def row(label, runs):
    """The table row of one command from its ``runs`` of :func:`probe`."""
    names = runs[0][0]
    ms = {name: 1000 * statistics.median(r[0][name][1] for r in runs) for name in names}
    lines = {name: names[name][0] for name in names}
    largest = max(names, key=lines.get)
    peak = statistics.median(r[1] for r in runs) / 1024
    each = ", ".join(f"{name[:-3]} {lines[name]}/{ms[name]:.1f}" for name in names)
    return (f"| {label} | {each} | {len(names)} | {sum(lines.values())} | "
            f"{sum(ms.values()):.1f} | {largest[:-3]} {lines[largest]} | {peak:.2f} |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--commands", help="comma-separated labels; all by default")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        commands = WORKLOADS["cli_samples"](Path(work), 5).commands
        if args.commands:
            wanted = args.commands.split(",")
            commands = [c for c in commands if c.label in wanted]
        print("| command | compiled (lines/ms) | modules | lines | ms | largest | peak MB |")
        print("|---|---|---|---|---|---|---|")
        for command in commands:
            runs = [probe(args.src, command.argv) for _ in range(REPEAT)]
            print(row(command.label, runs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

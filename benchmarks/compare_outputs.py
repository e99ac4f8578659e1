"""Compare this checkout's command outputs with another checkout's on the workload commands.

For each workload of ``clibench/workloads.py`` and each seed, the inputs are
built once into a fresh directory.  Then every command of the workload runs
as its own ``python -m jetconn.cli`` process, first with this checkout's
``src`` and then with OTHER_SRC, in the workload's order, so that a command
reads what the commands before it wrote.  The exit code, stdout, stderr and
the ``--output`` file must be the same bytes.  The first difference is
printed and exits 1; otherwise one line counts the commands compared.
Usage:

    python3 benchmarks/compare_outputs.py OTHER_SRC [--seeds 5,11]
        [--workloads cli_samples,algebra,transport,sampling] [--commands N]

OTHER_SRC is the ``src`` directory of the other checkout, for example one
made with ``git archive``.  ``--commands`` runs only the first N commands of
each workload.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "clibench"))

from workloads import WORKLOADS  # noqa: E402


def run(src, command):
    """Exit code, stdout, stderr and the ``--output`` file of ``command`` under ``src``."""
    if command.output is not None:
        command.output.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.run([sys.executable, "-m", "jetconn.cli", *command.argv], cwd=ROOT,
                           env=env, capture_output=True, timeout=600)
    written = None
    if command.output is not None and command.output.exists():
        written = command.output.read_bytes()
    return {"exit code": child.returncode, "stdout": child.stdout, "stderr": child.stderr,
            "--output file": written}


def first_difference(mine, theirs):
    """The first field of two :func:`run` results that differs, with its first differing line."""
    for field, value in mine.items():
        other = theirs[field]
        if value == other:
            continue
        if isinstance(value, bytes) and isinstance(other, bytes):
            lines = zip(value.splitlines() + [b"<end>"], other.splitlines() + [b"<end>"])
            value, other = next(((a, b) for a, b in lines if a != b), (value, other))
        return f"{field}: {value!r} against {other!r}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src")
    parser.add_argument("--seeds", default="5,11")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--commands", type=int, default=None)
    args = parser.parse_args(argv)

    srcs = ROOT / "src", Path(args.other_src).resolve()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    names = args.workloads.split(",")
    compared = 0
    for name in names:
        for seed in seeds:
            with tempfile.TemporaryDirectory(prefix=f"compare-{name}-") as work:
                for command in WORKLOADS[name](Path(work), seed).commands[:args.commands]:
                    difference = first_difference(*(run(src, command) for src in srcs))
                    if difference is not None:
                        print(f"{name} seed {seed} {command.label} "
                              f"(jetconn {' '.join(command.argv)}) differs on {difference}")
                        return 1
                    compared += 1
    print(f"{compared} commands identical: workloads {', '.join(names)}, "
          f"seeds {', '.join(map(str, seeds))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

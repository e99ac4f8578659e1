#!/usr/bin/env python3
"""Benchmark of the jetconn command line on four workloads.

    python3 clibench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Inputs are generated from the seed into
``clibench/work/<workload>/``; jetconn comes from the checkout's ``src/``,
and the benchmark stops if it would import from anywhere else.

``--trace 0`` runs each command as its own ``python -m jetconn.cli``
process, pass after pass over the workload's command list until
``--seconds`` have been spent, and reports the end-to-end metrics as
medians over the passes.  Each command is paired with two bare start-ups
run just before it, ``python -c pass`` and ``python -c "import numpy"``,
and times are reported in units of their geometric mean: the host's speed
drifts by tens of percent within a minute, and the controls drift with it.  ``--trace 1`` runs the same
command lists inside this process through ``jetconn.cli.main``, alternating
untraced and traced passes, and reports the per-layer metrics of the traced
passes.  Every output is checked (see checks.py); a command that exits
non-zero or fails its check counts as failed.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
per-command times, spans) goes to ``clibench/results/``.
``--workload all`` runs every workload in turn.  ``--corrupt`` runs one
pass and shows that every check rejects a corrupted copy of its output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
STARTUP_REPEATS = 5

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_rel": "x",
    "cmd_p50_rel": "x",
    "cpu_rel": "x",
    "peak_rss_mb": "MB",
}
# A command's start-up is the interpreter, which one core runs alone, and
# numpy's import, whose OpenBLAS threads run faster when the host lends the
# second core.  Its time is measured against the geometric mean of the two.
CONTROLS = (["-c", "pass"], ["-c", "import numpy"])


class BenchError(Exception):
    """The benchmark cannot run here."""


def jetconn_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def require_checkout_package():
    """Import jetconn from the checkout's src/, or stop."""
    if not (SRC / "jetconn" / "__init__.py").is_file():
        raise BenchError(f"no jetconn package under {SRC}")
    sys.path.insert(0, str(SRC))
    import jetconn

    where = Path(jetconn.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"jetconn imported from {where}, not from {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import jetconn; print(jetconn.__file__)"],
        env=jetconn_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0:
        raise BenchError(f"jetconn does not import in a subprocess: {probe.stderr.strip()}")
    child = Path(probe.stdout.strip()).resolve()
    if SRC.resolve() not in child.parents:
        raise BenchError(f"jetconn subprocesses import from {child}, not from {SRC}")


def environment():
    import numpy

    from jetconn import kernel

    sha = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(git) == 2 and Path(git[0]).resolve() == ROOT:
            sha = git[1]
    except OSError:
        pass
    return {
        "git_sha": sha,
        "kernel_backend": kernel.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


# --- running commands -------------------------------------------------------

SPAWNER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    args, out, err = json.loads(line)
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    print(json.dumps([os.waitstatus_to_exitcode(status), wall, cpu, usage.ru_maxrss]), flush=True)
"""


class Spawner:
    """Starts every measured process from a bare helper interpreter.

    Linux counts a new process's peak resident set from the memory of the
    process that started it, and this one holds numpy and every output
    checked so far (about 39 MB, more than a jetconn command).  The helper
    is a bare interpreter, smaller than any jetconn process, so the peak
    it reports is the command's own.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SPAWNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=jetconn_env(), cwd=ROOT,
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, args, stdout=os.devnull, stderr=os.devnull):
        """Run the interpreter on ``args``: exit code, wall, CPU and peak RSS in MB."""
        self.proc.stdin.write(json.dumps([args, str(stdout), str(stderr)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the helper that starts the commands has stopped")
        rc, wall, cpu, maxrss_kb = json.loads(line)
        return rc, wall, cpu, maxrss_kb / 1024.0


def run_process(spawner, argv):
    """One jetconn command as its own process: exit code, wall, CPU, peak RSS."""
    out_path = WORK / ".stdout"
    err_path = WORK / ".stderr"
    rc, wall, cpu, rss = spawner.spawn(["-m", "jetconn.cli", *argv], out_path, err_path)
    return {
        "rc": rc,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
    }


def run_paired(spawner, argv):
    """The controls, then the command: the controls' times go with the command's."""
    walls, cpus = [], []
    for control in CONTROLS:
        rc, wall, cpu, _ = spawner.spawn(control)
        if rc != 0:
            raise BenchError(f"the control python {' '.join(control)} exited {rc}")
        walls.append(wall)
        cpus.append(cpu)
    return dict(run_process(spawner, argv), control_wall_s=statistics.geometric_mean(walls),
                control_cpu_s=statistics.geometric_mean(cpus))


def clear_caches():
    """Empty jetconn's memo caches, so each in-process command starts cold."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "jetconn":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_inprocess(argv):
    from jetconn import cli

    clear_caches()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is a failed command, not a failed run
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = 1
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": time.perf_counter() - start,
    }


def run_pass(plan, runner):
    """Run the command list once; checks come after, outside the timing."""
    results = []
    start = time.perf_counter()
    for cmd in plan.commands:
        if cmd.output is not None and cmd.output.exists():
            cmd.output.unlink()
        results.append(runner(cmd.argv))
    wall = time.perf_counter() - start
    outputs = {}
    for cmd, res in zip(plan.commands, results):
        if cmd.output is None:
            outputs[cmd.label] = res["stdout"]
        elif cmd.output.exists():
            outputs[cmd.label] = cmd.output.read_text(encoding="utf-8")
        else:
            outputs[cmd.label] = ""
    return wall, results, outputs


def build(name, seed):
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](work, seed)


def setup(name, seed, spawner):
    """Generate inputs and run one untimed warm-up command, several times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = build(name, seed)
        first_input = next(a for a in plan.commands[0].argv if a.endswith(".json"))
        run_process(spawner, ["validate", first_input])
        times.append(time.perf_counter() - start)
    return plan, statistics.median(times)


# --- the two kinds of run ---------------------------------------------------

class Tally:
    """Commands attempted and failed over a run.

    Outputs are deterministic, so the verdicts of a pass are kept by the
    digest of all its outputs and exit codes, and a repeated pass is not
    checked again.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._verdicts = {}

    def add(self, plan, results, outputs):
        key = hashlib.sha256(
            json.dumps([[r["rc"] for r in results], outputs], sort_keys=True).encode()
        ).hexdigest()
        if key not in self._verdicts:
            self._verdicts[key] = [check(cmd, res, outputs) for cmd, res in zip(plan.commands, results)]
        self.attempted += len(results)
        for cmd, reason in zip(plan.commands, self._verdicts[key]):
            if reason is not None:
                self.failures.append(f"{cmd.label}: {reason}")


def check(cmd, result, outputs):
    """Why a command failed, or None."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}"
    try:
        cmd.check(outputs)
    except (checks.CheckError, KeyError, ValueError, TypeError, IndexError) as err:
        return f"{type(err).__name__}: {err}"
    return None


def until_done(start, seconds, walls):
    """Whether another whole pass brings the run closer to ``seconds``."""
    return time.perf_counter() - start + statistics.mean(walls) / 2 < seconds


def measure_end_to_end(plan, seconds, tally, spawner):
    """Relative metrics, and the raw seconds they come from.

    A command's wall and CPU time are divided by the geometric mean of those
    of the controls run just before it, and the command's figure is the
    median of that ratio over the passes.  ``wall_rel`` and ``cpu_rel`` add the figures of a
    pass's commands; ``cmd_p50_rel`` is the median command.
    """
    passes = []
    start = time.perf_counter()
    while not passes or until_done(start, seconds, [p["pass_s"] for p in passes]):
        pass_s, results, outputs = run_pass(plan, functools.partial(run_paired, spawner))
        tally.add(plan, results, outputs)
        passes.append({
            "pass_s": pass_s,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "commands": {
                c.label: {k: r[k] for k in ("wall_s", "cpu_s", "control_wall_s", "control_cpu_s")}
                for c, r in zip(plan.commands, results)
            },
        })
    runs = [[p["commands"][c.label] for p in passes] for c in plan.commands]

    def per_command(figure):
        return [statistics.median(figure(r) for r in command) for command in runs]

    wall = per_command(lambda r: r["wall_s"] / r["control_wall_s"])
    metrics = {
        "wall_rel": sum(wall),
        "cmd_p50_rel": statistics.median(wall),
        "cpu_rel": sum(per_command(lambda r: r["cpu_s"] / r["control_cpu_s"])),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    wall_s = per_command(lambda r: r["wall_s"])
    raw = {
        "wall_s": sum(wall_s),
        "cmd_p50_s": statistics.median(wall_s),
        "cpu_s": sum(per_command(lambda r: r["cpu_s"])),
        "control_s": statistics.median(r["control_wall_s"] for command in runs for r in command),
    }
    return metrics, {"seconds": raw, "passes": passes}


def startup_probe(code):
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code], env=jetconn_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return time.perf_counter() - start, out


def measure_layers(plan, seconds, tally):
    from tracing import Tracer

    interp = [startup_probe("pass")[0] for _ in range(STARTUP_REPEATS)]
    imports = [
        startup_probe("import sys, jetconn.cli; print(len(sys.modules))")
        for _ in range(STARTUP_REPEATS)
    ]
    plain, traced, layers, tracer = [], [], [], None
    start = time.perf_counter()
    while not traced or until_done(start, seconds, [a + b for a, b in zip(plain, traced)]):
        wall, results, outputs = run_pass(plan, run_inprocess)
        tally.add(plan, results, outputs)
        plain.append(wall)
        tracer = Tracer()
        tracer.install()
        try:
            wall, results, outputs = run_pass(plan, run_inprocess)
        finally:
            tracer.uninstall()
        tally.add(plan, results, outputs)
        traced.append(wall)
        layers.append(tracer.metrics(sum(len(o.encode()) for o in outputs.values())))
    metrics = {
        "startup.interp_s": statistics.median(interp),
        "startup.import_s": statistics.median(t for t, _ in imports),
        "startup.modules": int(imports[0][1]),
    }
    for key in layers[0]:
        metrics[key] = statistics.median(layer[key] for layer in layers)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    record = {"untraced_pass_s": plain, "traced_pass_s": traced, "last_trace": tracer.dump()}
    return metrics, record


UNITS = {
    **END_TO_END,
    "evaluate.symbolic_ratio": "ratio",
    "kernel.ops_per_s": "1/s",
    "transport.tape_calls_per_step": "ratio",
    "transport.us_per_step": "us",
    "io.bytes_in": "B",
    "io.bytes_out": "B",
}


def units(name):
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def run_workload(name, seed, seconds, trace):
    tally = Tally()
    with Spawner() as spawner:
        plan, setup_s = setup(name, seed, spawner)
        if trace:
            metrics, record = measure_layers(plan, seconds, tally)
        else:
            metrics, record = measure_end_to_end(plan, seconds, tally, spawner)
            metrics = {"setup_s": setup_s, **metrics}
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "setup_s": setup_s,
        "failures": tally.failures[:50], **result, **record,
    }, indent=1) + "\n")
    return result, record


def show_corruption(name, seed):
    """Every check passes the real output and rejects a corrupted one."""
    with Spawner() as spawner:
        plan, _ = setup(name, seed, spawner)
        _, results, outputs = run_pass(plan, functools.partial(run_process, spawner))
    ok = True
    for cmd, res in zip(plan.commands, results):
        try:
            checks.expect(res["rc"] == 0, f"exit code {res['rc']}")
            cmd.check(outputs)
        except checks.CheckError as err:
            print(f"{name}/{cmd.label}: real output FAILS its check: {err}")
            ok = False
            continue
        bad = dict(outputs, **{cmd.label: cmd.corrupt(outputs[cmd.label])})
        try:
            cmd.check(bad)
        except (checks.CheckError, ValueError, KeyError) as err:
            print(f"{name}/{cmd.label}: corrupted output rejected ({err})")
        else:
            print(f"{name}/{cmd.label}: corrupted output ACCEPTED")
            ok = False
    return ok


def report(name, result, record):
    for key, metric in result["metrics"].items():
        print(f"{name} {key} = {metric['value']:.6g} {metric['unit']}")
    for key, value in record.get("seconds", {}).items():
        print(f"{name} {key} = {value:.6g} s (raw, not a benchmark metric)")
    print(f"{name} commands attempted = {result['attempted']}, failed = {result['failed']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        require_checkout_package()
        if args.corrupt:
            return 0 if all([show_corruption(n, args.seed) for n in names]) else 1
        results = {}
        for name in names:
            results[name], record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name], record)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

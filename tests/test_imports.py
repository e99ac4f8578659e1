"""Imports of the library: every imported name is used, no command imports
numpy or dataclasses, each command runs only the jetconn modules it needs,
and the package exports the same public names.

Every evaluation goes through ``Program.rows`` on plain lists, the sampling
fallback of ``expr_equal`` and the two-fold check included.  numpy is
imported only by ``Program.__call__``, which no command calls, so importing
jetconn and running any command leaves it out of ``sys.modules``.

The package registers its submodules as lazy modules, whose code runs on
first attribute access, once, even when two threads touch it together; a
lazy module's class is ``types.ModuleType`` once its code has run.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import jetconn

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "jetconn"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os.path\nos.sep\n"
    assert unused_imports(source) == [(2, "json")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


# --- no command imports numpy -------------------------------------------------

ROOT = SRC.parent.parent
S = "sample_inputs/"

# Prints, on stderr, the jetconn modules other than cli whose code has run.
RAN = (
    "import sys, types\n"
    "ran = sorted(n[8:] for n, m in sys.modules.items() if n.startswith('jetconn.')\n"
    "             and n != 'jetconn.cli' and type(m) is types.ModuleType)\n"
    "print('ran=' + ' '.join(ran), file=sys.stderr)\n"
)

# Runs cli.main in a fresh interpreter and reports, on its last two stderr
# lines, the modules that ran, then the exit code and whether numpy and
# dataclasses were imported.
CHILD = (
    "import sys\n"
    "from jetconn.cli import main\n"
    "code = main(sys.argv[1:])\n"
    + RAN
    + "print(f'exit={code} numpy={\"numpy\" in sys.modules}'\n"
    "      f' dataclasses={\"dataclasses\" in sys.modules}', file=sys.stderr)\n"
)
CLEAN = "exit=0 numpy=False dataclasses=False"

WITHOUT_NUMPY = {
    "validate": ["validate", S + "conn_linear.json"],
    "product": ["product", S + "conn_a.json", S + "conn_b.json"],
    "classify": ["classify", S + "conn_zero2.json"],
    "frames": ["frames", S + "conn_a.json"],
    "frames --at": ["frames", S + "conn_linear.json", "--at", "1.0,2.0,3.0,4.0"],
    "transport 1": [
        "transport", "1", S + "conn_affine_polar.json", S + "loop_polar.json",
        "--y0", "1,0.5", "--steps", "20",
    ],
    "transport 2": [
        "transport", "2", S + "conn_zero2.json", S + "curve_revolution.json", "--y0", "1",
        "--yj0", "0.5,-2",
    ],
    "transport ode2": [
        "transport", "ode2", S + "conn_zero2.json", S + "curve_revolution.json", "--y0", "1",
    ],
    "holonomy": ["holonomy", S + "conn_affine_polar.json", S + "loop_polar.json", "--steps", "20"],
    "semiholonomy": ["semiholonomy", S + "jet_semi.json"],
    "twofold": ["twofold", S + "twofold.json", "--seed", "1"],
    "jacobian": ["jacobian", S + "transform.json", "--seed", "1"],
}

# Commands whose output the child must print byte for byte.
GOLDEN = {"twofold": ROOT / "tests/golden/twofold.out"}

# The jetconn modules, cli aside, whose code each command runs.
EXECUTED = {
    "validate": "connections errors expr io",
    "product": "_derive connections errors expr io",
    "classify": "connections errors evaluate expr io",
    "semiholonomy": "errors expr io jets",
    "frames": "connections errors expr frames io",
    "transport 1": "_derive _tape connections errors expr io transport",
    "holonomy": "_derive _tape connections errors expr io transport",
    "twofold": "_tape errors evaluate expr frames io",
    "jacobian": "_derive errors evaluate expr frames io",
}


def run_child(args):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("module", ["jetconn", "jetconn.cli"])
def test_import_leaves_numpy_out(module):
    probe = run_child(["-c", f"import sys, {module}; print('numpy' in sys.modules)"])
    assert (probe.returncode, probe.stdout) == (0, "False\n")


def test_import_runs_no_submodule():
    assert run_child(["-c", "import jetconn\n" + RAN]).stderr == "ran=\n"


@pytest.mark.parametrize("name", sorted(EXECUTED))
def test_command_runs_only_its_modules(name):
    child = run_child(["-c", CHILD, *WITHOUT_NUMPY[name]])
    ran, status = child.stderr.splitlines()[-2:]
    assert "kernel" not in ran[len("ran="):].split()  # only the benchmark runs its hooks
    assert [ran, status] == [f"ran={EXECUTED[name]}", CLEAN]


@pytest.mark.parametrize("name", sorted(WITHOUT_NUMPY))
def test_command_runs_without_numpy(name):
    child = run_child(["-c", CHILD, *WITHOUT_NUMPY[name]])
    assert child.stderr.splitlines()[-1] == CLEAN
    if name in GOLDEN:
        assert child.stdout.encode("utf-8") == GOLDEN[name].read_bytes()


def test_atom_asymmetric_classify_runs_without_numpy(tmp_path):
    # The prolongation of F = (sin(x2)*y1, x1): H_12 and H_21 differ through
    # sin and cos atoms, which an interval enclosure proves unequal.
    first_order = ["sin(x2)*y1", "x1"]
    H = [[["sin(x2)*sin(x2)*y1", "cos(x2)*y1 + sin(x2)*x1"], ["1", "0"]]]
    doc = {"order": 2, "base_dim": 2, "fiber_dim": 1, "F": [first_order], "G": [first_order], "H": H}
    path = tmp_path / "prolonged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    child = run_child(["-c", CHILD, "classify", str(path), "--seed", "7"])
    assert child.stderr.splitlines()[-1] == CLEAN
    assert child.stdout == "semiholonomic (symbolic)\n"


def test_sampled_classify_runs_without_numpy(tmp_path):
    # H_12 and H_21 are equal only through sin^2 + cos^2 = 1, which neither
    # the exact expansion nor an enclosure settles, so the comparison is sampled.
    H = [[["0", "sin(x1)^2 + cos(x1)^2"], ["1", "0"]]]
    zero = [["0", "0"]]
    doc = {"order": 2, "base_dim": 2, "fiber_dim": 1, "F": zero, "G": zero, "H": H}
    path = tmp_path / "trig.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    child = run_child(["-c", CHILD, "classify", str(path)])
    assert child.stderr.splitlines()[-1] == CLEAN
    assert child.stdout == "holonomic (probabilistic)\n"


# --- argparse only for help and usage errors -----------------------------------

# One valid command line per subcommand.
EVERY_COMMAND = {
    **WITHOUT_NUMPY,
    "prolong": ["prolong", S + "conn_a.json"],
    "curvature": ["curvature", S + "conn_a.json"],
    "exchange": ["exchange", S + "conn_zero2.json"],
    "family": ["family", S + "conn_a.json", "--k", "0.5"],
    "transport --y0=": [
        "transport", "1", S + "conn_affine_polar.json", S + "loop_polar.json", "--y0=-0.5,1",
    ],
}
PARSER_MODULES = {"argparse", "gettext", "locale"}


def imported(*argv):
    """Exit code of ``python -X importtime -m jetconn.cli *argv``, and the
    names of the modules it imported."""
    child = run_child(["-X", "importtime", "-m", "jetconn.cli", *argv])
    lines = child.stderr.splitlines()
    return child.returncode, {line.rsplit("|", 1)[1].strip() for line in lines
                              if line.startswith("import time:")}


def test_every_subcommand_has_a_command_line():
    from jetconn.cli import _COMMANDS

    assert sorted({argv[0] for argv in EVERY_COMMAND.values()}) == sorted(_COMMANDS)


@pytest.mark.parametrize("name", sorted(EVERY_COMMAND))
def test_command_line_is_read_without_argparse(name):
    code, modules = imported(*EVERY_COMMAND[name])
    assert code == 0
    assert "jetconn" in modules and not modules & PARSER_MODULES


def test_usage_error_builds_the_parser():
    code, modules = imported("frobnicate")
    assert code == 2 and modules >= PARSER_MODULES


def test_help_in_a_process_matches_the_golden():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), COLUMNS="80")
    child = subprocess.run([sys.executable, "-m", "jetconn.cli", "--help"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120)
    usage = (ROOT / "tests/golden/cli_usage.txt").read_text(encoding="utf-8")
    assert usage.startswith(f"$ jetconn --help\nexit 0\n--- stdout\n{child.stdout}--- stderr\n\n$ ")
    assert (child.returncode, child.stderr) == (0, "")


# Four threads, more than this host's cores, released together by a barrier
# with a short switch interval, touch the name a lazy module defines last;
# each records whether it found it.
RACE = (
    "import ast, pathlib, sys, threading\n"
    "import jetconn\n"
    "name = sys.argv[1]\n"
    "source = pathlib.Path(jetconn.__file__).with_name(name + '.py').read_text()\n"
    "last = [n.name for n in ast.parse(source).body\n"
    "        if isinstance(n, (ast.FunctionDef, ast.ClassDef))][-1]\n"
    "module = getattr(jetconn, name)\n"
    "barrier = threading.Barrier(4)\n"
    "found = []\n"
    "def touch():\n"
    "    barrier.wait(timeout=60)\n"
    "    found.append(hasattr(module, last))\n"
    "sys.setswitchinterval(1e-6)\n"
    "threads = [threading.Thread(target=touch) for _ in range(4)]\n"
    "for t in threads: t.start()\n"
    "for t in threads: t.join(timeout=60)\n"
    "print(found, any(t.is_alive() for t in threads), type(module).__name__)\n"
)


@pytest.mark.parametrize("module", ["connections", "evaluate", "expr", "frames", "io", "jets",
                                    "transport", "_derive", "_enclose", "_poly", "_tape"])
def test_lazy_module_loads_once_for_threads(module):
    # Every thread waits until the first has run the module's code.
    child = run_child(["-c", RACE, module])
    assert (child.returncode, child.stdout) == (0, "[True, True, True, True] False module\n"), \
        child.stderr


# --- the public API -----------------------------------------------------------

# Each public name of the package, by the module that defines it.
PUBLIC = {
    "connections": [
        "AffineConnection", "Classification", "Connection1", "Connection2", "HOLONOMIC",
        "LinearConnection1", "NONHOLONOMIC", "SEMIHOLONOMIC", "affine_to_general", "classify",
        "curvature", "ehresmann_prolongation", "exchange", "family", "is_fiber_linear",
        "linear_to_general", "product",
    ],
    "errors": [
        "DimensionMismatchError", "EvalError", "FormatError", "FrameVerificationError",
        "FunctionArityError", "JetconnError", "ParseError", "SamplingError", "SizeLimitError",
        "TransportError", "UnknownIdentifierError",
    ],
    "evaluate": [
        "EqualityResult", "PROBABILISTIC", "SYMBOLIC", "SamplePolicy", "eval_expr", "expr_equal",
    ],
    "expr": [
        "Add", "Const", "Div", "Expr", "Fn", "Mul", "Neg", "Pow", "Sub", "SymbolUniverse", "Var",
        "as_expr", "cos", "diff", "exp", "ln", "parse_expr", "simplify", "sin", "substitute",
        "to_text",
    ],
    "frames": [
        "AdaptedFrame", "JacobianReport", "LiftRow", "LinearTwoFoldCoefficients",
        "TwoFoldConnection", "TwofoldCoframe", "TwofoldTransform", "adapted_frame",
        "horizontal_lift_field", "linear_twofold", "twofold_dual_coframe", "twofold_frame",
        "twofold_universe", "validate_twofold_jacobian",
    ],
    "io": [
        "Document", "KIND_LABELS", "connection1_to_data", "connection2_to_data",
        "curvature_to_data", "detect_kind", "dump_json", "load_data", "load_path",
        "transport_csv",
    ],
    "jets": [
        "FunctionDifferentials", "JetPoint", "JetSequence", "TangentCoordPoint", "all_sequences",
        "function_differentials", "is_holonomic_point", "is_semiholonomic_point",
        "jet_points_close", "nonzero_core", "projections_agree", "prolonged_projection",
        "rho_projection", "tangent_universe", "target_projection",
    ],
    "transport": [
        "CURVE_UNIVERSE", "Curve", "HolonomyResult", "TransportResult", "loop_holonomy",
        "second_order_ode", "transport1", "transport2",
    ],
}
PUBLIC_NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_public_names():
    assert len(PUBLIC_NAMES) == 102
    assert sorted(jetconn.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(jetconn))


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_come_from_their_module(module):
    home = getattr(jetconn, module)
    for name in PUBLIC[module]:
        assert getattr(jetconn, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from jetconn import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        jetconn.no_such_name


def test_run_as_module_warns_nothing():
    # python -m warns when the module it runs is already in sys.modules.
    child = run_child(["-W", "error", "-m", "jetconn.cli", "validate", S + "conn_linear.json"])
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == f"{S}conn_linear.json: valid linear connection\n"

"""Imports of the library: every imported name is used, and numpy is lazy.

numpy is imported only by the wide-batch layer: the sampling fallback of
``expr_equal`` and the two-fold check.  A comparison that an interval
enclosure proves unequal never reaches the sampling fallback.  Importing jetconn, and every
command that needs neither, leaves it out of ``sys.modules``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

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


# --- numpy stays off the start-up path ---------------------------------------

ROOT = SRC.parent.parent
S = "sample_inputs/"

# Runs cli.main in a fresh interpreter and reports, on its last stderr line,
# the exit code and whether numpy was imported.
CHILD = (
    "import sys\n"
    "from jetconn.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(f'exit={code} numpy={\"numpy\" in sys.modules}', file=sys.stderr)\n"
)

WITHOUT_NUMPY = {
    "validate": ["validate", S + "conn_linear.json"],
    "product": ["product", S + "conn_a.json", S + "conn_b.json"],
    "classify": ["classify", S + "conn_zero2.json"],
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


@pytest.mark.parametrize("name", sorted(WITHOUT_NUMPY))
def test_command_runs_without_numpy(name):
    child = run_child(["-c", CHILD, *WITHOUT_NUMPY[name]])
    assert child.stderr.splitlines()[-1] == "exit=0 numpy=False"


def test_atom_asymmetric_classify_runs_without_numpy(tmp_path):
    # The prolongation of F = (sin(x2)*y1, x1): H_12 and H_21 differ through
    # sin and cos atoms, which an interval enclosure proves unequal.
    first_order = ["sin(x2)*y1", "x1"]
    H = [[["sin(x2)*sin(x2)*y1", "cos(x2)*y1 + sin(x2)*x1"], ["1", "0"]]]
    doc = {"order": 2, "base_dim": 2, "fiber_dim": 1, "F": [first_order], "G": [first_order], "H": H}
    path = tmp_path / "prolonged.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    child = run_child(["-c", CHILD, "classify", str(path), "--seed", "7"])
    assert child.stderr.splitlines()[-1] == "exit=0 numpy=False"
    assert child.stdout == "semiholonomic (symbolic)\n"


def test_twofold_check_still_uses_numpy():
    child = run_child(["-c", CHILD, "twofold", S + "twofold.json", "--seed", "1"])
    assert child.stderr.splitlines()[-1] == "exit=0 numpy=True"
    assert child.stdout.encode("utf-8") == (ROOT / "tests/golden/twofold.out").read_bytes()

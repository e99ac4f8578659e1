"""Golden transcripts of the CLI subcommands on ``sample_inputs/``.

Each case pins the stdout bytes, stderr text and exit code of one CLI run,
made from the root of the repository with relative paths.  The files under
``tests/golden/`` were written by this module's ``--regen`` mode:

    PYTHONPATH=src python tests/test_golden.py --regen

Regenerate them only for a deliberate change of output, and show in the
same change why the new bytes are right.

``cli_usage.txt`` pins the parser's own text at 80 columns: the ``--help``
of ``jetconn`` and of each subcommand, the usage error of each subcommand
run with no arguments, and that of ``transport`` with an unknown variant.
It is written by the same ``--regen``.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import warnings
from unittest import mock

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "transcripts.json"

S = "sample_inputs/"
PROLONGED = "tests/golden/conn_a_prolonged.json"
HUGE = "tests/golden/conn_huge.json"

CASES = {
    "transport1_exp": ["transport", "1", S + "conn_exp.json", S + "curve_unit.json", "--y0", "1"],
    "transport1_exp_2000": [
        "transport", "1", S + "conn_exp.json", S + "curve_unit.json", "--y0", "1",
        "--steps", "2000",
    ],
    "transport1_polar": [
        "transport", "1", S + "conn_affine_polar.json", S + "loop_polar.json",
        "--y0", "1,0.5", "--steps", "200",
    ],
    "transport2_zero": [
        "transport", "2", S + "conn_zero2.json", S + "curve_revolution.json", "--y0", "1",
    ],
    "transport2_yj0": [
        "transport", "2", S + "conn_zero2.json", S + "curve_revolution.json", "--y0", "1",
        "--yj0", "0.5,-2",
    ],
    "ode2_zero": [
        "transport", "ode2", S + "conn_zero2.json", S + "curve_revolution.json", "--y0", "1",
    ],
    "holonomy_polar": [
        "holonomy", S + "conn_affine_polar.json", S + "loop_polar.json", "--steps", "200",
    ],
    # The prolongation of conn_a has nonzero H, so the jet columns move.
    "prolong_a": ["prolong", S + "conn_a.json"],
    "transport2_prolonged": [
        "transport", "2", PROLONGED, S + "loop_polar.json", "--y0", "0.5",
        "--yj0", "1,-1", "--steps", "300",
    ],
    "ode2_prolonged": [
        "transport", "ode2", PROLONGED, S + "loop_polar.json", "--y0", "0.5",
        "--steps", "300",
    ],
    "transport1_dim_mismatch": [
        "transport", "1", S + "conn_affine_polar.json", S + "curve_unit.json", "--y0", "1,0",
    ],
    "holonomy_open_curve": [
        "holonomy", S + "conn_exp.json", S + "curve_unit.json", "--steps", "10",
    ],
    # F overflows while the RK4 state does too: stderr holds only the error line.
    "transport1_overflow": [
        "transport", "1", "tests/golden/conn_exp1000.json", S + "curve_unit.json", "--y0", "1",
        "--steps", "1024",
    ],
    # F = 1.5e308: the solution 1.5e308*t stays finite though the RK4 stage
    # sum k1 + 2*k2 + 2*k3 + k4 overflows; from y0 = 1e308 it does not.
    "transport1_huge_rate": [
        "transport", "1", HUGE, S + "curve_unit.json", "--y0", "0", "--steps", "4",
    ],
    "transport1_state_overflow": [
        "transport", "1", HUGE, S + "curve_unit.json", "--y0", "1e308", "--steps", "4",
    ],
    "validate_linear": ["validate", S + "conn_linear.json"],
    "product_a_b": ["product", S + "conn_a.json", S + "conn_b.json"],
    "curvature_a": ["curvature", S + "conn_a.json"],
    "exchange_zero2": ["exchange", S + "conn_zero2.json"],
    "family_a": ["family", S + "conn_a.json", "--k", "0.5"],
    # classify, twofold and jacobian sample through the batch kernel.
    "classify_zero2": ["classify", S + "conn_zero2.json", "--seed", "1"],
    "classify_prolonged": ["classify", PROLONGED, "--seed", "1"],
    "semiholonomy_semi": ["semiholonomy", S + "jet_semi.json"],
    "semiholonomy_nonholo": ["semiholonomy", S + "jet_nonholo.json"],
    "frames_a": ["frames", S + "conn_a.json"],
    "frames_zero2": ["frames", S + "conn_zero2.json"],
    "frames_linear_at": ["frames", S + "conn_linear.json", "--at", "1.0,2.0,3.0,4.0"],
    # NaN is no JSON number: a non-finite --at coordinate is refused.
    "frames_at_nan": ["frames", S + "conn_a.json", "--at", "nan,1,2"],
    "twofold": ["twofold", S + "twofold.json", "--seed", "1"],
    "jacobian": ["jacobian", S + "transform.json", "--seed", "1"],
}

# Subcommands whose stdout is one JSON document.
JSON_COMMANDS = {
    "product", "prolong", "curvature", "exchange", "family", "frames", "twofold",
    "jacobian", "holonomy",
}


SUBCOMMANDS = (
    "validate", "product", "prolong", "curvature", "exchange", "family", "classify",
    "semiholonomy", "frames", "twofold", "jacobian", "transport", "holonomy",
)
USAGE_CASES = (
    [["--help"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
    + [[name] for name in SUBCOMMANDS]
    + [["transport", "3", "a", "b", "--y0", "1"]]
)
USAGE = GOLDEN / "cli_usage.txt"


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


def run_cli(argv):
    """Run ``jetconn`` in-process from the repository root.

    Any warning raises: a warning would reach a real run's stderr, which a
    transcript pins, but under pytest it is captured instead.
    """
    from jetconn.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def usage_transcript():
    """Exit code, stdout and stderr of each ``USAGE_CASES`` run, at 80 columns."""
    blocks = []
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in USAGE_CASES:
            code, out, err = run_cli(argv)
            blocks.append(
                f"$ jetconn {' '.join(argv)}\nexit {code}\n"
                f"--- stdout\n{out}--- stderr\n{err}"
            )
    return "\n".join(blocks)


def load_manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_covers_cases():
    assert sorted(load_manifest()) == sorted(CASES)


def test_prolonged_input_is_prolong_output():
    expected = (GOLDEN / "prolong_a.out").read_bytes()
    assert (ROOT / PROLONGED).read_bytes() == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript(name):
    record = load_manifest()[name]
    assert record["argv"] == CASES[name]
    code, out, err = run_cli(CASES[name])
    assert code == record["exit"]
    assert err == record["stderr"]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    if code == 0 and CASES[name][0] in JSON_COMMANDS:
        strict_json(out)


def test_usage_text():
    assert usage_transcript() == USAGE.read_text(encoding="utf-8")


def test_strict_json_refuses_non_finite_numbers():
    for text in ("NaN", "[Infinity]", '{"a": -Infinity}'):
        with pytest.raises(ValueError, match="is not valid JSON"):
            strict_json(text)


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    code, out, _ = run_cli(CASES["prolong_a"])
    assert code == 0
    (ROOT / PROLONGED).write_bytes(out.encode("utf-8"))
    manifest = {}
    for name, argv in CASES.items():
        code, out, err = run_cli(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
        manifest[name] = {"argv": argv, "exit": code, "stderr": err}
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    USAGE.write_text(usage_transcript(), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    regenerate()

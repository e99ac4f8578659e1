"""Command-line driver: exit codes, diagnostics, goldens, determinism."""

import ast
import errno
import gc
import json
import math
import os
import pathlib
import re
import resource
import shutil
import subprocess
import sys
import time

import pytest

import test_golden
from jetconn.cli import _read, build_parser, entry, main
from jetconn.evaluate import MAX_SAMPLES
from jetconn.expr import MAX_DIGITS
from jetconn.transport import MAX_STEPS

SAMPLE_NAMES = [
    "conn_a.json",
    "conn_b.json",
    "conn_zero2.json",
    "conn_linear.json",
    "conn_affine_polar.json",
    "conn_exp.json",
    "curve_unit.json",
    "loop_polar.json",
    "curve_revolution.json",
    "jet_semi.json",
    "jet_nonholo.json",
    "twofold.json",
    "transform.json",
]


ROOT = pathlib.Path(__file__).resolve().parent.parent


def agreed(argv):
    """The reader's attributes for ``argv``, checked against argparse's, or None.

    Values are compared by ``repr``, which tells 1 from 1.0 and finds nan
    equal to nan.
    """
    args = _read(argv)
    if args is not None:
        parsed = build_parser().parse_args(argv)
        assert {k: repr(v) for k, v in vars(args).items()} == \
            {k: repr(v) for k, v in vars(parsed).items()}, argv
    return args


@pytest.fixture
def run(capsys):
    """Run main in process: exit code, stdout and stderr.  Every command line
    of this module is also read both ways, and the two must agree."""

    def call(*argv):
        argv = [str(a) for a in argv]
        agreed(argv)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


class TestValidate:
    def test_all_samples_valid(self, run, sample_dir):
        for name in SAMPLE_NAMES:
            code, out, err = run("validate", sample_dir / name)
            assert code == 0, (name, err)
            assert f"{sample_dir / name}: valid " in out

    def test_labels_are_human_readable(self, run, sample_dir):
        _, out, _ = run("validate", sample_dir / "conn_linear.json")
        assert "valid linear connection" in out
        _, out, _ = run("validate", sample_dir / "twofold.json")
        assert "valid two-fold connection" in out

    def test_missing_file_names_path(self, run, tmp_path):
        target = tmp_path / "absent.json"
        code, out, err = run("validate", target)
        assert code == 1
        assert err.startswith("error:")
        assert str(target) in err

    def test_broken_json_diagnostic(self, run, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _, err = run("validate", bad)
        assert code == 1
        assert "not valid JSON" in err
        assert str(bad) in err

    def test_bad_expression_names_file(self, run, tmp_path):
        doc = tmp_path / "conn.json"
        doc.write_text(
            json.dumps(
                {"order": 1, "base_dim": 1, "fiber_dim": 1, "F": [["y1 +"]]}
            ),
            encoding="utf-8",
        )
        code, _, err = run("validate", doc)
        assert code == 1
        assert str(doc) in err


class TestUsageErrors:
    def test_no_subcommand(self, run):
        code, _, _ = run()
        assert code == 2

    def test_unknown_subcommand(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_missing_required_flag(self, run, sample_dir):
        code, _, _ = run("family", sample_dir / "conn_a.json")
        assert code == 2

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "transport" in out


class TestReader:
    """The reader returns the attributes argparse would for a canonical command
    line, and None for any other, which argparse then parses as before."""

    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("workload", ["cli_samples", "algebra", "transport", "sampling"])
    def test_workload_commands(self, workload, seed, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "clibench"))
        from workloads import WORKLOADS

        commands = [command.argv for command in WORKLOADS[workload](tmp_path, seed).commands]
        # The --flag=value lines of the transport workload included.
        assert all(agreed(argv) is not None for argv in commands)

    @pytest.mark.parametrize("name", sorted(test_golden.CASES))
    def test_golden_commands(self, name):
        assert agreed(test_golden.CASES[name]) is not None

    def test_usage_cases_go_to_argparse(self):
        assert all(_read(argv) is None for argv in test_golden.USAGE_CASES)

    def test_acceptance_commands(self, tmp_path):
        from test_acceptance import criterion_10_commands

        for argv in criterion_10_commands(tmp_path / "prolonged.json"):
            assert agreed([*argv, "--seed", "0"]) is not None

    @pytest.mark.parametrize(
        "argv",
        [
            ["transport", "--y0", "1", "1", "c.json", "u.json"],
            ["transport", "1", "--steps", "5", "c.json", "--y0", "1,2", "u.json", "--seed", "3"],
            ["holonomy", "--steps", "3", "c.json", "l.json", "--output", "out dir/h.json"],
            ["family", "--k", "1e400", "a.json"],
            ["classify", "a.json", "--tol", "nan", "--samples", "1_000"],
            ["frames", "a.json", "--at", ""],
            ["validate", ""],
        ],
    )
    def test_canonical_in_any_order(self, argv):
        assert agreed(argv) is not None

    # Lines argparse refuses: the exit code and the last stderr line are
    # those that argparse printed before the reader existed.
    REFUSED = [
        ([], "jetconn: error: the following arguments are required: command"),
        (["--seed", "1", "validate", "{a}"], "jetconn: error: argument command: invalid choice: "
         "'1' (choose from 'validate', 'product', 'prolong', 'curvature', 'exchange', "
         "'family', 'classify', 'semiholonomy', 'frames', 'twofold', 'jacobian', "
         "'transport', 'holonomy')"),
        (["validate"], "jetconn validate: error: the following arguments are required: file"),
        (["validate", "{a}", "{b}"], "jetconn: error: unrecognized arguments: {b}"),
        (["validate", "{a}", "--k", "1"], "jetconn: error: unrecognized arguments: --k 1"),
        (["validate", "{a}", "--seed"], "jetconn validate: error: argument --seed: expected one "
         "argument"),
        (["family", "{a}"], "jetconn family: error: the following arguments are required: --k"),
        (["family", "{a}", "--k", "x"], "jetconn family: error: argument --k: invalid float "
         "value: 'x'"),
        (["holonomy", "{a}", "{b}", "--steps", "1.5"], "jetconn holonomy: error: argument "
         "--steps: invalid int value: '1.5'"),
        (["transport", "4", "{a}", "{b}", "--y0", "1"], "jetconn transport: error: argument "
         "variant: invalid choice: '4' (choose from '1', '2', 'ode2')"),
        (["transport", "1", "{a}", "{b}", "--y0", "-0.5,1"], "jetconn transport: error: "
         "argument --y0: expected one argument"),
        (["transport", "1", "{a}", "{b}"], "jetconn transport: error: the following arguments "
         "are required: --y0"),
        (["classify", "{a}", "--s", "1"], "jetconn classify: error: ambiguous option: --s could "
         "match --seed, --samples"),
    ]

    @pytest.mark.parametrize("argv, last", REFUSED)
    def test_refused_lines_keep_their_error(self, run, sample_dir, argv, last):
        names = {"a": sample_dir / "conn_a.json", "b": sample_dir / "conn_b.json"}
        argv = [word.format(**names) for word in argv]
        assert _read(argv) is None
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: jetconn") and err.splitlines()[-1] == last.format(**names)

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["transport", "-h"]])
    def test_help_goes_to_argparse(self, run, argv):
        assert _read(argv) is None
        code, out, err = run(*argv)
        assert (code, err) == (0, "") and out.startswith("usage: jetconn")

    # Lines argparse reads and the reader leaves to it, each beside one that
    # the reader reads or that argparse reads the same way.
    EQUIVALENT = [
        (["validate", "--", "{z}"], ["validate", "{z}"]),
        (["classify", "{z}", "--se=1"], ["classify", "{z}", "--seed=1"]),
        (["classify", "{z}", "--se", "1"], ["classify", "{z}", "--seed", "1"]),
        (["classify", "{z}", "--seed", "2", "--seed", "1"], ["classify", "{z}", "--seed", "1"]),
        (["family", "{a}", "--k", "-0.5"], ["family", "{a}", "--k=-0.5"]),
        (["transport", "1", "{e}", "{u}", "--y0", "-0.5"],
         ["transport", "1", "{e}", "{u}", "--y0=-0.5"]),
    ]

    @pytest.mark.parametrize("argv, same", EQUIVALENT)
    def test_non_canonical_lines_run_as_before(self, run, sample_dir, argv, same):
        names = {"a": "conn_a.json", "z": "conn_zero2.json", "e": "conn_exp.json",
                 "u": "curve_unit.json"}
        names = {key: sample_dir / name for key, name in names.items()}
        argv, same = ([word.format(**names) for word in words] for words in (argv, same))
        assert _read(argv) is None
        result = run(*argv)
        assert result[0] == 0 and result == run(*same)

    def test_negative_list_after_equals_sign(self, run, sample_dir):
        # "--y0 -0.5,1" is refused above; written with "=" the reader takes it.
        conn, curve = sample_dir / "conn_affine_polar.json", sample_dir / "loop_polar.json"
        argv = ["transport", "1", conn, curve, "--y0=-0.5,1", "--steps", "4"]
        assert _read([str(a) for a in argv]) is not None
        code, out, err = run(*argv)
        assert (code, err) == (0, "") and out.startswith("t,y1,y2\n")

    # The value after the first "=" of a full flag, as argparse takes it.
    @pytest.mark.parametrize("options", [
        ["--y0=-0.5,1"], ["--y0", "1", "--steps=5"], ["--y0="], ["--y0", "1", "--output=a=b"],
    ])
    def test_flag_equals_value(self, options):
        argv = ["transport", "1", "c.json", "u.json", *options]
        assert vars(_read(argv)) == vars(build_parser().parse_args(argv))

    # An abbreviation, a repeat and a bad value stay argparse's.
    @pytest.mark.parametrize("options", [
        ["--y=1"], ["--y0=1", "--y0=2"], ["--y0", "1", "--steps=x"],
    ])
    def test_flag_equals_value_left_to_argparse(self, options):
        assert _read(["transport", "1", "c.json", "u.json", *options]) is None


class TestCompareOutputs:
    """``benchmarks/compare_outputs.py`` on the first commands of a workload."""

    def compare(self, other_src):
        return subprocess.run(
            [sys.executable, "benchmarks/compare_outputs.py", str(other_src), "--seeds", "5",
             "--workloads", "cli_samples", "--commands", "2"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )

    def test_same_src_is_identical(self):
        child = self.compare(ROOT / "src")
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout == "2 commands identical: workloads cli_samples, seeds 5\n"

    def test_first_difference_is_named(self, tmp_path):
        # A copy whose validate verdict reads differently.
        shutil.copytree(ROOT / "src" / "jetconn", tmp_path / "jetconn")
        cli = tmp_path / "jetconn" / "cli.py"
        cli.write_text(cli.read_text(encoding="utf-8").replace(": valid ", ": good "),
                       encoding="utf-8")
        child = self.compare(tmp_path)
        assert (child.returncode, child.stderr) == (1, "")
        path = r"\S+/conn_linear\.json"
        assert re.fullmatch(
            rf"cli_samples seed 5 validate \(jetconn validate {path}\) differs on stdout: "
            rf"b'{path}: valid linear connection' against b'{path}: good linear connection'\n",
            child.stdout,
        ), child.stdout


class Wrong(str):
    """The input file that a kind-mismatch diagnostic names."""


class TestKindMismatch:
    """A file of the wrong kind fails with exit 1 and names itself and both kinds."""

    @pytest.mark.parametrize(
        "argv, expected, got",
        [
            (["exchange", Wrong("conn_a.json")], "an order-2 connection", "order-1 connection"),
            (["classify", Wrong("jet_semi.json")], "an order-2 connection", "jet point"),
            (["transport", "2", Wrong("conn_a.json"), "curve_unit.json", "--y0", "1"],
             "an order-2 connection", "order-1 connection"),
            (["transport", "ode2", Wrong("twofold.json"), "curve_unit.json", "--y0", "1"],
             "an order-2 connection", "two-fold connection"),
            (["semiholonomy", Wrong("conn_a.json")], "a jet point", "order-1 connection"),
            (["twofold", Wrong("transform.json")], "a two-fold connection", "two-fold transform"),
            (["jacobian", Wrong("twofold.json")], "a two-fold transform", "two-fold connection"),
            (["transport", "1", "conn_a.json", Wrong("conn_b.json"), "--y0", "1"],
             "a curve", "order-1 connection"),
            (["holonomy", "conn_a.json", Wrong("jet_nonholo.json"), "--steps", "4"],
             "a curve", "jet point"),
            (["prolong", Wrong("jet_semi.json")], "a first-order connection", "jet point"),
            (["frames", Wrong("transform.json")],
             "a first-order connection or an order-2 connection", "two-fold transform"),
            (["transport", "1", Wrong("twofold.json"), "curve_unit.json", "--y0", "1"],
             "a first-order connection", "two-fold connection"),
        ],
    )
    def test_message(self, run, sample_dir, argv, expected, got):
        (wrong,) = [sample_dir / a for a in argv if isinstance(a, Wrong)]
        argv = [sample_dir / a if a.endswith(".json") else a for a in argv]
        assert run(*argv) == (1, "", f"error: {wrong}: expected {expected}, got {got}\n")


class TestEmittedDocuments:
    def test_product_emits_order2(self, run, sample_dir):
        code, out, _ = run(
            "product", sample_dir / "conn_a.json", sample_dir / "conn_a.json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 2
        assert data["H"][0][0][1] == "x1"
        assert data["H"][0][1][0] == "1"

    def test_emitted_files_revalidate(self, run, sample_dir, tmp_path):
        emitters = [
            ("product", sample_dir / "conn_a.json", sample_dir / "conn_b.json"),
            ("prolong", sample_dir / "conn_a.json"),
            # base_dim 2 and fiber_dim 1: R is checked as a 1x2x2 grid.
            ("curvature", sample_dir / "conn_a.json"),
            ("family", sample_dir / "conn_a.json", "--k", "0.5"),
        ]
        for idx, argv in enumerate(emitters):
            out_path = tmp_path / f"emitted_{idx}.json"
            code, out, err = run(*argv, "--output", out_path)
            assert code == 0, err
            assert out == ""  # --output keeps stdout quiet
            code, out, err = run("validate", out_path)
            assert code == 0, err
        # exchange consumes an emitted order-2 file
        prolonged = tmp_path / "emitted_1.json"
        swapped = tmp_path / "swapped.json"
        code, _, err = run("exchange", prolonged, "--output", swapped)
        assert code == 0, err
        code, _, _ = run("validate", swapped)
        assert code == 0

    @pytest.mark.parametrize(
        "where, errno_code",
        [("", errno.EISDIR), ("absent/out.json", errno.ENOENT)],
        ids=["directory", "missing-parent"],
    )
    def test_unwritable_output_names_the_path(self, run, sample_dir, tmp_path, where, errno_code):
        target = tmp_path / where
        code, out, err = run("prolong", sample_dir / "conn_a.json", "--output", target)
        assert (code, out, err) == (1, "", f"error: {target}: {os.strerror(errno_code)}\n")

    def test_curvature_entries(self, run, sample_dir):
        code, out, _ = run("curvature", sample_dir / "conn_a.json")
        assert code == 0
        data = json.loads(out)
        assert data["curvature"] is True
        assert data["R"][0][0][1] == "x1 - 1"
        assert data["R"][0][1][0] == "-x1 + 1"

    def test_product_dim_mismatch_names_both_files(self, run, sample_dir):
        a = sample_dir / "conn_a.json"
        b = sample_dir / "conn_exp.json"
        code, _, err = run("product", a, b)
        assert code == 1
        assert str(a) in err and str(b) in err


class TestClassifyPipeline:
    def test_zero_connection_is_holonomic(self, run, sample_dir):
        code, out, _ = run("classify", sample_dir / "conn_zero2.json")
        assert code == 0
        assert out == "holonomic (symbolic)\n"

    def test_prolonged_example_is_semiholonomic(self, run, sample_dir, tmp_path):
        out_path = tmp_path / "prolonged.json"
        run("prolong", sample_dir / "conn_a.json", "--output", out_path)
        code, out, _ = run("classify", out_path)
        assert code == 0
        assert out.startswith("semiholonomic (")

    def test_family_midpoint_is_holonomic(self, run, sample_dir, tmp_path):
        out_path = tmp_path / "mid.json"
        run("family", sample_dir / "conn_a.json", "--k", "0.5", "--output", out_path)
        code, out, _ = run("classify", out_path)
        assert code == 0
        assert out == "holonomic (symbolic)\n"

    @pytest.mark.parametrize(
        "F, H12",
        [("x1/(x1 - x1)", "0"),  # F = G would hold if the zero denominator were ignored
         ("1", "(x1 - x1)/(x2 - x2)")],  # 0/0: a zero numerator over a zero denominator
    )
    def test_zero_denominator_is_a_sampling_error(self, run, tmp_path, F, H12):
        doc = {"order": 2, "base_dim": 2, "fiber_dim": 1, "F": [[F, "x1"]],
               "G": [["1", "x1"]], "H": [[["0", H12], ["0", "0"]]]}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run("classify", path)
        assert (code, out) == (1, "")
        assert err == (
            f"error: {path}: equality sampling found no point where both sides are defined\n"
        )

    def test_overflow_on_both_sides_is_named(self, run, tmp_path):
        # Both sides are defined everywhere but leave double range at every
        # sample point, which is not the same as no point being defined.
        H = [[["0", "exp(1000 + x1^2)"], ["2*exp(1000 + x1^2)", "0"]]]
        doc = {"order": 2, "base_dim": 2, "fiber_dim": 1, "F": [["0", "0"]],
               "G": [["0", "0"]], "H": H}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run("classify", path)
        assert (code, out) == (1, "")
        assert err == (
            f"error: {path}: equality sampling found no point where both sides are finite: "
            "they overflowed at every sample point\n"
        )

    def test_semiholonomy_lines(self, run, sample_dir):
        code, out, _ = run("semiholonomy", sample_dir / "jet_semi.json")
        assert code == 0
        assert out == (
            "semiholonomic (core rule): yes\n"
            "semiholonomic (projection cross-check): yes\n"
            "holonomic: no\n"
        )
        _, out, _ = run("semiholonomy", sample_dir / "jet_nonholo.json")
        assert out.splitlines()[0].endswith("no")


class TestFrames:
    def test_order1_symbolic(self, run, sample_dir):
        code, out, _ = run("frames", sample_dir / "conn_a.json")
        assert code == 0
        data = json.loads(out)
        assert data["frame"][2][0] == "y1"
        assert data["coframe"][2][0] == "-y1"

    def test_order1_evaluated(self, run, sample_dir):
        code, out, _ = run("frames", sample_dir / "conn_a.json", "--at", "2,3,5")
        assert code == 0
        data = json.loads(out)
        assert data["frame"][2][0] == 5.0  # y1 at the given point
        assert data["frame"][2][1] == 2.0  # x1

    def test_at_length_checked(self, run, sample_dir):
        code, _, err = run("frames", sample_dir / "conn_a.json", "--at", "1,2")
        assert code == 1
        assert "x1" in err or "3" in err

    def test_equal_deep_entries_evaluated(self, run, tmp_path):
        # Two equal 399-term entries are two keys of one compiled-program
        # cache, which compares them node by node.
        terms = " + ".join(f"{k}*x1*y1" for k in range(1, 400))
        conn = tmp_path / "deep.json"
        conn.write_text(
            json.dumps({"order": 1, "base_dim": 1, "fiber_dim": 2, "F": [[terms], [terms]]}),
            encoding="utf-8",
        )
        code, out, err = run("frames", conn, "--at", "1,1,1")
        assert (code, err) == (0, "")
        assert json.loads(out)["frame"] == [[1.0, 0.0, 0.0], [79800.0, 1.0, 0.0],
                                            [79800.0, 0.0, 1.0]]

    def test_order2_lift(self, run, sample_dir, tmp_path):
        out_path = tmp_path / "prolonged.json"
        run("prolong", sample_dir / "conn_a.json", "--output", out_path)
        code, out, _ = run("frames", out_path)
        assert code == 0
        data = json.loads(out)
        assert [row["direction"] for row in data["lift"]] == [1, 2]
        assert data["lift"][0]["dy"] == ["y1"]


class TestTwofoldCommands:
    def test_twofold_report(self, run, sample_dir):
        code, out, _ = run("twofold", sample_dir / "twofold.json")
        assert code == 0
        data = json.loads(out)
        assert data["gamma_bar"][0][0] == "-v1*w1 + z1"
        assert data["max_deviation"] < 1e-10
        assert data["checked_points"] == 100

    @pytest.mark.parametrize("seed", ["0", "5"])
    def test_gamma12_base_takes_the_place_of_its_block(self, run, sample_dir, tmp_path, seed):
        data = json.loads((sample_dir / "twofold.json").read_text(encoding="utf-8"))
        grid = [["u1^2*v1 + z1"]]
        override, inline = tmp_path / "override.json", tmp_path / "inline.json"
        override.write_text(json.dumps({**data, "gamma12_base": grid}), encoding="utf-8")
        inline.write_text(json.dumps({**data, "blocks": {**data["blocks"], "g12_base": grid}}),
                          encoding="utf-8")
        expected = run("twofold", inline, "--seed", seed)
        assert expected[0] == 0 and "u1^2*v1" in expected[1]
        assert run("twofold", override, "--seed", seed) == expected

    def test_twofold_failed_entry_names_the_reason(self, run, tmp_path):
        blocks = {"g1_base": [["ln(u1)"]], "g2_base": [["0"]], "g12_base": [["z1"]],
                  "g12_f1": [["w1"]], "g12_f2": [["0"]]}
        path = tmp_path / "ln.json"
        path.write_text(json.dumps({"dims": [1, 1, 1, 1], "blocks": blocks}), encoding="utf-8")
        code, out, err = run("twofold", path)
        assert (code, out) == (1, "")
        assert err == f"error: {path}: ln of a non-positive argument\n"

    def test_twofold_builds_the_frame_once(self, run, sample_dir, monkeypatch):
        import jetconn.cli
        import jetconn.frames

        calls = []
        build = jetconn.frames.twofold_frame

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(jetconn.frames, "twofold_frame", counted)
        # Also count a call the command would make through its own import.
        monkeypatch.setattr(jetconn.cli, "twofold_frame", counted, raising=False)
        assert run("twofold", sample_dir / "twofold.json")[0] == 0
        assert len(calls) == 1

    def test_twofold_dims_bounded(self, tmp_path):
        # The dims are checked before a single coordinate name is built.  A
        # separate process with a timeout and a 2 GB address-space limit keeps
        # an unbounded build contained.
        doc = tmp_path / "huge.json"
        blocks = {name: [["0"]] for name in ("g1_base", "g2_base", "g12_base", "g12_f1", "g12_f2")}
        doc.write_text(
            json.dumps({"dims": [1000000000, 1, 1, 1], "blocks": blocks}), encoding="utf-8"
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
        out = subprocess.run(
            [sys.executable, "-m", "jetconn.cli", "validate", str(doc)],
            env=env, capture_output=True, text=True, timeout=20,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)),
        )
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == (
            f"error: {doc}: two-fold dimensions sum to 1000000003, above the bound 64\n"
        )

    def test_jacobian_valid(self, run, sample_dir):
        code, out, _ = run("jacobian", sample_dir / "transform.json")
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True
        assert data["confidence"] == "symbolic"
        assert data["violations"] == []

    def test_jacobian_invalid(self, run, tmp_path):
        doc = tmp_path / "broken.json"
        doc.write_text(
            json.dumps(
                {
                    "transform": True,
                    "dims": [1, 1, 1, 1],
                    "components": ["u1 + v1", "v1", "w1", "z1"],
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run("jacobian", doc)
        assert code == 0  # structural violation is a result, not a failure
        data = json.loads(out)
        assert data["valid"] is False
        assert ["component 1", "v1"] in data["violations"]


class TestTransportCommands:
    def test_exponential_csv(self, run, sample_dir):
        code, out, _ = run(
            "transport",
            "1",
            sample_dir / "conn_exp.json",
            sample_dir / "curve_unit.json",
            "--y0",
            "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,y1"
        assert len(lines) == 102  # header + 101 sample rows
        final = float(lines[-1].split(",")[1])
        assert abs(final - math.e) < 1e-7

    def test_variant2_with_jet_columns(self, run, sample_dir, tmp_path):
        out_path = tmp_path / "prolonged.json"
        run("prolong", sample_dir / "conn_a.json", "--output", out_path)
        code, out, _ = run(
            "transport",
            "2",
            out_path,
            sample_dir / "curve_revolution.json",
            "--y0",
            "1",
            "--steps",
            "50",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,y1,y1_1,y1_2"
        assert len(lines) == 52

    def test_yj0_length_checked(self, run, sample_dir, tmp_path):
        out_path = tmp_path / "prolonged.json"
        run("prolong", sample_dir / "conn_a.json", "--output", out_path)
        code, _, err = run(
            "transport",
            "2",
            out_path,
            sample_dir / "curve_revolution.json",
            "--y0",
            "1",
            "--yj0",
            "1,2,3",
        )
        assert code == 1
        assert "row-major" in err

    def test_ode2_constant_for_zero_connection(self, run, sample_dir):
        code, out, _ = run(
            "transport",
            "ode2",
            sample_dir / "conn_zero2.json",
            sample_dir / "curve_revolution.json",
            "--y0",
            "4",
            "--steps",
            "10",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.split(",")[1] == "4.0" for line in lines[1:])

    def test_steps_positive(self, run, sample_dir):
        code, _, err = run(
            "transport",
            "1",
            sample_dir / "conn_exp.json",
            sample_dir / "curve_unit.json",
            "--y0",
            "1",
            "--steps",
            "0",
        )
        assert code == 1
        assert "positive" in err

    def test_dim_mismatch_names_both_files(self, run, sample_dir):
        conn = sample_dir / "conn_exp.json"
        curve = sample_dir / "curve_revolution.json"
        code, _, err = run("transport", "1", conn, curve, "--y0", "1")
        assert code == 1
        assert str(conn) in err and str(curve) in err

    def test_holonomy_flat_loop(self, run, sample_dir):
        code, out, _ = run(
            "holonomy",
            sample_dir / "conn_affine_polar.json",
            sample_dir / "loop_polar.json",
            "--steps",
            "400",
        )
        assert code == 0
        data = json.loads(out)
        assert data["steps"] == 400
        assert data["defect"] < 1e-6
        assert len(data["matrix"]) == 2

    def test_holonomy_mismatch_names_both(self, run, sample_dir):
        conn = sample_dir / "conn_exp.json"
        loop = sample_dir / "loop_polar.json"
        code, _, err = run("holonomy", conn, loop, "--steps", "10")
        assert code == 1
        assert str(conn) in err and str(loop) in err

class TestFailureEdges:
    @staticmethod
    def conn_file(path, entry):
        path.write_text(
            json.dumps({"order": 1, "base_dim": 1, "fiber_dim": 1, "F": [[entry]]}),
            encoding="utf-8",
        )
        return path

    @pytest.fixture
    def deep(self, tmp_path):
        # 100 000 nested parentheses, far past the interpreter's recursion
        # limit: the parser keeps its open groups on a stack.
        return self.conn_file(tmp_path / "deep.json", "(" * 100_000 + "x1*y1" + ")" * 100_000)

    # A document of each kind that declares a dimension and holds one entry,
    # and the diagnostic it gets, both given that dimension.
    DECLARED = {
        "order 1": (lambda d: {"order": 1, "base_dim": 1, "fiber_dim": d, "F": [["y1"]]},
                    "F must be a {d}x1 grid"),
        "order 2": (lambda d: {"order": 2, "base_dim": d, "fiber_dim": 1, "F": [["y1"]],
                               "G": [["y1"]], "H": [[["0"]]]},
                    "F must be a 1x{d} grid"),
        "linear": (lambda d: {"linear": True, "base_dim": d, "fiber_dim": 1, "coeff": [[["1"]]]},
                   "coeff must be a 1x{d}x1 grid"),
        "affine": (lambda d: {"affine": True, "dim": d, "christoffel": [[["x1"]]]},
                   "christoffel must be a {d}x{d}x{d} grid"),
        "curvature": (lambda d: {"curvature": True, "base_dim": 2, "fiber_dim": d,
                                 "R": [[["0"]]]},
                      "R must be a {d}x2x2 grid"),
        "jet": (lambda d: {"order": 1, "base_dim": 1, "fiber_dim": d, "base": [0.0],
                           "values": [{"p": 1, "seq": [0], "value": 1.0}]},
                "jet point table mismatch; missing [(1, (1,)), (2, (0,)), (2, (1,))], "
                "unexpected []"),
    }

    @pytest.mark.parametrize("kind", sorted(DECLARED))
    def test_huge_declared_dimension_fails_like_a_small_one(self, run, tmp_path, kind):
        # The shape is checked before any coordinate name is listed, so 10^30
        # fails at once and in the words that 2 gets.  A separate process with
        # a timeout keeps an unbounded build contained.
        document, message = self.DECLARED[kind]
        for dim in (2, 10**30):
            path = tmp_path / f"{dim}.json"
            path.write_text(json.dumps(document(dim)), encoding="utf-8")
            expected = (1, "", f"error: {path}: {message.format(d=dim)}\n")
            child = subprocess.run(
                [sys.executable, "-m", "jetconn.cli", "validate", str(path)],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True,
                text=True, timeout=30,
            )
            assert (child.returncode, child.stdout, child.stderr) == expected
            start = time.perf_counter()
            assert run("validate", path) == expected
            assert time.perf_counter() - start < 1.0

    def test_deep_expression_prolongs_like_the_flat_one(self, run, deep, tmp_path):
        assert run("validate", deep) == (0, f"{deep}: valid order-1 connection\n", "")
        flat = run("prolong", self.conn_file(tmp_path / "flat.json", "x1*y1"))
        assert flat[0] == 0
        assert run("prolong", deep) == flat

    def test_json_nested_too_deep_is_a_format_error(self, run, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run("validate", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, position",
        [("x1^" + "7" * 5000 + "*y1", 4), ("7" * 5000 + "*y1", 1)],
        ids=["exponent", "coefficient"],
    )
    def test_literal_of_too_many_digits_names_the_file(self, run, tmp_path, entry, position):
        path = self.conn_file(tmp_path / "digits.json", entry)
        message = f"number of more than {MAX_DIGITS} digits (at position {position})"
        for command in ("validate", "prolong"):
            assert run(command, path) == (1, "", f"error: {path}: {message}\n")

    def test_constant_too_long_to_print_names_the_file(self, run, tmp_path):
        # Five 1000-digit literals fold into one coefficient of 5000 digits,
        # past the digits Python prints of an int.
        path = self.conn_file(tmp_path / "long.json", "*".join(["9" * 1000] * 5) + "*y1")
        assert run("validate", path)[0] == 0
        limit = sys.get_int_max_str_digits()
        message = f"a constant of more than {limit} digits cannot be printed"
        assert run("prolong", path) == (1, "", f"error: {path}: {message}\n")

    def test_literal_beyond_double_range_is_a_parse_error(self, run, tmp_path):
        path = self.conn_file(tmp_path / "inf.json", "x1 + 1e400*y1")
        message = "number out of floating point range (at position 6)"
        assert run("validate", path) == (1, "", f"error: {path}: {message}\n")

    def test_huge_constant_power_stays_unfolded(self, run, tmp_path):
        # Folding 3^100000000 would take minutes; past MAX_POWER_BITS it stays a power.
        code, out, err = run("prolong", self.conn_file(tmp_path / "power.json", "3^100000000*y1"))
        assert (code, err) == (0, "")
        assert json.loads(out)["H"] == [[["3^200000000*y1"]]]

    def test_long_sum_is_prolonged(self, run, tmp_path):
        # A 1000-term sum nests 1000 deep; diff and to_text walk it on a stack.
        terms = " + ".join(f"{k}*x1*y1" for k in range(1, 1001))
        code, out, err = run("prolong", self.conn_file(tmp_path / "long.json", terms))
        assert (code, err) == (0, "")
        # F = 500500*x1*y1, so H = dF/dx1 + dF/dy1*F.
        assert json.loads(out)["H"] == [[["250500250000*x1^2*y1 + 500500*y1"]]]

    def test_deep_symmetric_pair_is_settled_exactly(self, run, tmp_path):
        # H_12 and H_21 are one 1000-term sum in two orders, nested 1000
        # deep: simplify flattens both on a stack, and they cancel.
        terms = [f"{k}*x1^{k}*y1" for k in range(1, 1001)]
        h = [[["0", " + ".join(terms)], [" + ".join(reversed(terms)), "0"]]]
        path = tmp_path / "deep2.json"
        path.write_text(
            json.dumps({"order": 2, "base_dim": 2, "fiber_dim": 1, "F": [["0", "0"]],
                        "G": [["0", "0"]], "H": h}),
            encoding="utf-8",
        )
        assert run("classify", path) == (0, "holonomic (symbolic)\n", "")

    def test_deep_expression_names_every_input(self, run, deep, sample_dir):
        other = sample_dir / "conn_a.json"  # base_dim 2, against deep's 1
        code, _, err = run("product", deep, other)
        assert code == 1
        assert err == (f"error: {deep} and {other}: "
                       "connections live on different universes: (1,1) vs (2,1)\n")

    @pytest.mark.parametrize(
        "entry, h",
        [("1e308*10*y1", "1e+308*10*0 + 1e+308*10*1*1e+308*10*y1"),
         ("10^400*1e308*y1", "10^400*1e+308*0 + 10^400*1e+308*1*10^400*1e+308*y1")],
    )
    def test_coefficient_beyond_double_range_stays_unfolded(self, run, tmp_path, entry, h):
        conn = tmp_path / "overflow.json"
        conn.write_text(
            json.dumps({"order": 1, "base_dim": 1, "fiber_dim": 1, "F": [[entry]]}),
            encoding="utf-8",
        )
        code, out, err = run("prolong", conn)
        assert (code, err) == (0, "")
        assert json.loads(out)["H"][0][0][0].replace(str(10**400), "10^400") == h

    def test_constant_beyond_double_range(self, run, sample_dir, tmp_path):
        # prolong folds 10^400 into an exact constant in H; F keeps the power.
        conn = tmp_path / "huge.json"
        conn.write_text(
            json.dumps({"order": 1, "base_dim": 1, "fiber_dim": 1, "F": [["10^400*y1"]]}),
            encoding="utf-8",
        )
        prolonged = tmp_path / "prolonged.json"
        assert run("prolong", conn, "--output", prolonged)[0] == 0
        assert "10^400" not in json.loads(prolonged.read_text(encoding="utf-8"))["H"][0][0][0]
        curve = sample_dir / "curve_unit.json"
        for variant, path in (("1", conn), ("2", prolonged)):
            code, out, err = run("transport", variant, path, curve, "--y0", "1", "--steps", "4")
            assert code == 1
            assert out == ""
            assert err == f"error: {path} and {curve}: non-finite expression value at t = 0.0\n"


    # Every rate is 1.5e308 along x1 = t: y = y0 + 1.5e308*t, and for
    # variant 2 also y_1 = yj0 + 1.5e308*t.  From 1e308 either passes the
    # largest double between t = 0.5 and t = 0.75.
    @pytest.mark.parametrize(
        "variant, extra",
        [("2", ["--y0", "1e308"]), ("2", ["--y0", "0", "--yj0", "1e308"]),
         ("ode2", ["--y0", "1e308"])],
    )
    def test_state_overflow(self, run, sample_dir, tmp_path, variant, extra):
        conn = tmp_path / "huge2.json"
        conn.write_text(
            json.dumps(
                {"order": 2, "base_dim": 1, "fiber_dim": 1, "F": [["1.5e308"]],
                 "G": [["1.5e308"]], "H": [[["1.5e308"]]]}
            ),
            encoding="utf-8",
        )
        curve = sample_dir / "curve_unit.json"
        code, out, err = run("transport", variant, conn, curve, "--steps", "4", *extra)
        assert code == 1
        assert out == ""
        assert err == f"error: {conn} and {curve}: non-finite fiber value at t = 0.75\n"


class TestOptionRanges:
    """Out-of-range options fail with exit 1 and a diagnostic naming the option."""

    SAMPLING = {
        "twofold": "twofold.json",
        "classify": "conn_zero2.json",
        "jacobian": "transform.json",
    }

    @pytest.mark.parametrize("command", sorted(SAMPLING))
    @pytest.mark.parametrize(
        "option, value, message",
        [("--samples", "0", "--samples must be a positive integer"),
         ("--samples", "-2", "--samples must be a positive integer"),
         ("--tol", "-1", "--tol must be a finite number >= 0"),
         ("--tol", "nan", "--tol must be a finite number >= 0")],
    )
    def test_sampling_options(self, run, sample_dir, command, option, value, message):
        code, out, err = run(command, sample_dir / self.SAMPLING[command], option, value)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", sorted(SAMPLING))
    def test_samples_bounded(self, run, sample_dir, command):
        # Refused before any point is drawn: one past the bound fails at once.
        code, out, err = run(
            command, sample_dir / self.SAMPLING[command], "--samples", str(MAX_SAMPLES + 1)
        )
        assert (code, out, err) == (1, "", f"error: --samples must be at most {MAX_SAMPLES}\n")

    def test_samples_at_the_bound_accepted(self, run, sample_dir):
        # conn_zero2 is classified exactly, so no point is drawn.
        conn = sample_dir / "conn_zero2.json"
        code, out, _ = run("classify", conn, "--samples", str(MAX_SAMPLES))
        assert code == 0 and "(symbolic)" in out

    @pytest.mark.parametrize("value", ["nan,1,2", "1,inf,2", "1,2,-inf"])
    def test_at_must_be_finite(self, run, sample_dir, value):
        code, out, err = run("frames", sample_dir / "conn_a.json", "--at", value)
        assert (code, out, err) == (1, "", "error: --at must be finite numbers\n")

    def test_at_value_must_be_finite(self, run, tmp_path):
        # x1*x2 overflows at the point, though both coordinates are finite.
        conn = tmp_path / "product.json"
        conn.write_text(
            json.dumps({"order": 1, "base_dim": 2, "fiber_dim": 1, "F": [["x1*x2", "y1"]]}),
            encoding="utf-8",
        )
        code, out, err = run("frames", conn, "--at", "1e200,1e200,1")
        assert (code, out) == (1, "")
        assert err == f"error: {conn}: x1*x2 is not finite at the --at point\n"

    @pytest.mark.parametrize(
        "variant, option, value",
        [("1", "--y0", "nan"), ("2", "--y0", "inf"), ("2", "--yj0", "0,nan")],
    )
    def test_initial_values_must_be_finite(self, run, sample_dir, variant, option, value):
        conn = sample_dir / ("conn_exp.json" if variant == "1" else "conn_zero2.json")
        argv = ["transport", variant, conn, sample_dir / "curve_revolution.json", "--y0", "1"]
        if variant == "1":
            argv[3] = sample_dir / "curve_unit.json"
        code, out, err = run(*argv, option, value)
        assert (code, out, err) == (1, "", f"error: {option} must be finite numbers\n")

    @pytest.mark.parametrize("steps", ["10", "0", "99999999999", "2"])
    def test_holonomy_on_fiber_dimension_zero(self, run, sample_dir, tmp_path, steps):
        # A rank-0 bundle has no column to transport, and its holonomy is the
        # identity of R^0; the step count is checked all the same, and the
        # loop is still walked, so one with a pole inside it fails (2 steps).
        conn, loop = tmp_path / "rank0.json", sample_dir / "loop_polar.json"
        data = {"order": 1, "base_dim": 2, "fiber_dim": 0, "F": []}
        if steps == "2":
            data["base_dim"], loop = 1, tmp_path / "pole.json"
            pole = {"dim": 1, "components": ["1/(t - 1)^2"], "t0": 0.0, "t1": 2.0}
            loop.write_text(json.dumps(pole), encoding="utf-8")
        conn.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run("holonomy", conn, loop, "--steps", steps)
        if steps == "10":
            assert (code, err) == (0, "")
            assert json.loads(out) == {"defect": 0.0, "steps": 10, "matrix": []}
        elif steps == "2":
            message = f"error: {conn} and {loop}: division by zero at t = 1.0\n"
            assert (code, out, err) == (1, "", message)
        else:
            message = f"error: steps must be a positive integer, at most {MAX_STEPS}\n"
            assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_family_parameter_must_be_finite(self, run, sample_dir, value):
        code, out, err = run("family", sample_dir / "conn_a.json", "--k", value)
        assert (code, out, err) == (1, "", "error: --k must be a finite number\n")

    @pytest.mark.parametrize("steps", ["0", "-3", str(MAX_STEPS + 1)])
    def test_steps_bounded_for_both_commands(self, run, sample_dir, steps):
        # Refused before any step is taken or any row is allocated.
        message = f"error: steps must be a positive integer, at most {MAX_STEPS}\n"
        conn, loop = sample_dir / "conn_affine_polar.json", sample_dir / "loop_polar.json"
        for argv in (("transport", "1", conn, loop, "--y0", "1,0"), ("holonomy", conn, loop)):
            code, out, err = run(*argv, "--steps", steps)
            assert (code, out, err) == (1, "", message)

    def test_out_of_memory_names_the_inputs(self, run, sample_dir, monkeypatch):
        import jetconn.transport

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(jetconn.transport, "loop_holonomy", exhausted)
        conn, loop = sample_dir / "conn_affine_polar.json", sample_dir / "loop_polar.json"
        code, out, err = run("holonomy", conn, loop, "--steps", "10")
        assert (code, out, err) == (1, "", f"error: {conn} and {loop}: out of memory\n")


class TestMalformedInput:
    """Each malformed document is a one-line diagnostic naming the file."""

    JET = {"order": 1, "base_dim": 1, "fiber_dim": 1, "base": [0.0]}
    CURVE = {"dim": 1, "components": ["t"], "t0": 0.0, "t1": 1.0}
    BLOCKS = ("g1_base", "g2_base", "g12_base", "g12_f1", "g12_f2")
    TWOFOLD = {"dims": [1, 1, 1, 1], "blocks": {name: [["0"]] for name in BLOCKS}}
    CASES = {
        "jet record without p": (
            {**JET, "values": [{"seq": [0], "value": 1.0},
                               {"p": 1, "seq": [1], "value": 0.0}]},
            "jet record document is missing the 'p' field",
        ),
        "jet value null": (
            {**JET, "values": [{"p": 1, "seq": [0], "value": None},
                               {"p": 1, "seq": [1], "value": 0.0}]},
            "jet record field 'value' must be a number",
        ),
        "jet base null": (
            {**JET, "base": [None], "values": [{"p": 1, "seq": [0], "value": 1.0},
                                               {"p": 1, "seq": [1], "value": 0.0}]},
            "jet base must be an array of numbers",
        ),
        "curve t0 null": ({**CURVE, "t0": None}, "curve field 't0' must be a number"),
        "curve component not text": (
            {**CURVE, "components": [3]}, "expected expression text, got int"
        ),
        "transform component not text": (
            {"transform": True, "dims": [1, 1, 1, 1],
             "components": ["u1", "v1", "w1", 3]},
            "expected expression text, got int",
        ),
        "twofold dims null": (
            {**TWOFOLD, "dims": [1, None, 1, 1]},
            "twofold dims must be an array of integers",
        ),
        "curve t1 too large": ({**CURVE, "t1": 10**400}, "int too large to convert to float"),
        "twofold gamma12_base shape": (
            {**TWOFOLD, "gamma12_base": [["0", "0"]]},
            "gamma12_base must be a 1x1 grid",
        ),
        # The block that gamma12_base replaces is still checked, and first.
        "twofold g12_base shape beside gamma12_base": (
            {**TWOFOLD, "blocks": {**TWOFOLD["blocks"], "g12_base": [["0", "0"]]},
             "gamma12_base": [["0", "0"]]},
            "g12_base must be a 1x1 grid",
        ),
        "curvature R shape": (
            {"curvature": True, "base_dim": 2, "fiber_dim": 1, "R": [[["0"]]]},
            "R must be a 1x2x2 grid",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_line_error(self, run, tmp_path, case):
        document, message = self.CASES[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, out, err = run("validate", path)
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: {message}\n"


class TestDeterminism:
    def test_byte_identical_reruns(self, run, sample_dir, tmp_path):
        prolonged = tmp_path / "prolonged.json"
        run("prolong", sample_dir / "conn_a.json", "--output", prolonged)
        batteries = [
            ("validate", sample_dir / "conn_a.json"),
            ("product", sample_dir / "conn_a.json", sample_dir / "conn_b.json"),
            ("curvature", sample_dir / "conn_b.json"),
            ("exchange", prolonged),
            ("family", sample_dir / "conn_a.json", "--k", "0.25"),
            ("classify", prolonged, "--seed", "0"),
            ("semiholonomy", sample_dir / "jet_semi.json"),
            ("frames", sample_dir / "conn_a.json"),
            ("twofold", sample_dir / "twofold.json", "--seed", "0"),
            ("jacobian", sample_dir / "transform.json"),
            (
                "transport",
                "1",
                sample_dir / "conn_exp.json",
                sample_dir / "curve_unit.json",
                "--y0",
                "1",
                "--steps",
                "20",
            ),
            (
                "holonomy",
                sample_dir / "conn_affine_polar.json",
                sample_dir / "loop_polar.json",
                "--steps",
                "50",
            ),
        ]
        for argv in batteries:
            first = run(*argv)
            second = run(*argv)
            assert first[0] == 0, (argv, first[2])
            assert first == second, argv

    def test_same_bytes_under_two_hash_seeds(self, tmp_path):
        # Terms and factors are ordered by structure, never by a str hash,
        # which PYTHONHASHSEED changes.
        F = [["x3*y2 + x1*y1^2 - x2", "y1*x2*x3 - sin(y2 + x1)", "exp(x2)*y1 + y2*x1"],
             ["x3^2*y2 - y1", "y2*y1*x1", "x2 - x3*y1/3"]]
        path = tmp_path / "conn.json"
        path.write_text(json.dumps({"order": 1, "base_dim": 3, "fiber_dim": 2, "F": F}),
                        encoding="utf-8")
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            child = subprocess.run([sys.executable, "-m", "jetconn.cli", "prolong", str(path)],
                                   env=env, capture_output=True, timeout=120)
            assert child.returncode == 0, child.stderr
            outs.append(child.stdout)
        assert outs[0] == outs[1]


class TestProcessEntry:
    """``python -m jetconn.cli`` and the console script: one process per command."""

    ROOT = pathlib.Path(__file__).resolve().parent.parent

    def spawn(self, *argv, unbuffered="1", **kwargs):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"), COLUMNS="80")
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        kwargs.setdefault("stdout", subprocess.PIPE)
        kwargs.setdefault("stderr", subprocess.PIPE)
        return subprocess.run(
            [sys.executable, "-m", "jetconn.cli", *argv], cwd=self.ROOT, env=env, timeout=60,
            **kwargs,
        )

    @pytest.mark.parametrize(
        "argv, code, out, err",
        [
            (
                ("validate", "sample_inputs/conn_linear.json"), 0,
                b"sample_inputs/conn_linear.json: valid linear connection\n", b"",
            ),
            (
                ("validate", "sample_inputs/absent.json"), 1,
                b"", b"error: sample_inputs/absent.json: No such file or directory\n",
            ),
            (
                ("transport", "3", "a.json", "b.json", "--y0", "1"), 2,
                b"", b"jetconn transport: error: argument variant: invalid choice: '3' "
                b"(choose from '1', '2', 'ode2')\n",
            ),
        ],
    )
    def test_process_matches_main_byte_for_byte(self, argv, code, out, err, capsys, monkeypatch):
        child = self.spawn(*argv)
        assert child.returncode == code
        assert child.stdout == out
        assert child.stderr.endswith(err)
        monkeypatch.chdir(self.ROOT)
        monkeypatch.setenv("COLUMNS", "80")
        assert main(list(argv)) == code
        captured = capsys.readouterr()
        assert (captured.out.encode(), captured.err.encode()) == (child.stdout, child.stderr)

    @pytest.mark.parametrize(
        "argv, code",
        [(["validate", "sample_inputs/conn_linear.json"], 0),
         (["validate", "sample_inputs/absent.json"], 1),
         (["frobnicate"], 2)],
    )
    def test_entry_freezes_after_main_on_every_exit(self, argv, code, capsys, monkeypatch):
        calls = []
        monkeypatch.chdir(self.ROOT)
        monkeypatch.setattr(sys, "argv", ["jetconn", *argv])
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(capsys.readouterr()))
        assert entry() == code
        # Frozen once, after main has written everything.
        assert len(calls) == 1
        assert (calls[0].out != "") == (code == 0)
        assert (calls[0].err != "") == (code != 0)

    def test_main_in_process_does_not_freeze(self, run, sample_dir):
        before = gc.get_freeze_count()
        assert run("prolong", sample_dir / "conn_a.json")[0] == 0
        assert run("validate", sample_dir / "absent.json")[0] == 1
        assert run("frobnicate")[0] == 2
        assert gc.get_freeze_count() == before

    def test_console_script_names_the_main_block_function(self):
        tomllib = pytest.importorskip("tomllib")
        with open(self.ROOT / "pyproject.toml", "rb") as fh:
            script = tomllib.load(fh)["project"]["scripts"]["jetconn"]
        tree = ast.parse((self.ROOT / "src" / "jetconn" / "cli.py").read_text(encoding="utf-8"))
        block = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert len(block) == 1
        assert [ast.unparse(stmt) for stmt in block[0].body] == ["sys.exit(entry())"]
        assert script == "jetconn.cli:entry"

    def test_closed_stdout_is_a_one_line_error(self):
        child = self.spawn(
            "validate", "sample_inputs/conn_linear.json", preexec_fn=lambda: os.close(1)
        )
        assert child.returncode == 1
        assert child.stdout == b""
        assert child.stderr == b"error: stdout: Bad file descriptor\n"

    HELP = [("--help",), ("validate", "--help")]

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize("argv", HELP)
    def test_closed_stdout_refuses_help(self, argv, unbuffered):
        # argparse wrote help to stderr when stdout was closed, and exited 0.
        child = self.spawn(*argv, unbuffered=unbuffered, preexec_fn=lambda: os.close(1))
        assert (child.returncode, child.stdout) == (1, b"")
        assert child.stderr == b"error: stdout: Bad file descriptor\n"

    def test_closed_stdout_and_stderr_exit_1(self):
        def close():
            os.close(1)
            os.close(2)

        child = self.spawn("validate", "sample_inputs/conn_linear.json", preexec_fn=close)
        assert (child.returncode, child.stdout, child.stderr) == (1, b"", b"")

    def test_closed_stderr_keeps_the_error_off_stdout(self):
        child = self.spawn("validate", "sample_inputs/absent.json", preexec_fn=lambda: os.close(2))
        assert (child.returncode, child.stdout, child.stderr) == (1, b"", b"")

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stderr_usage_error_exits_2(self, unbuffered):
        # argparse wrote the usage line to stdout when stderr was closed.
        child = self.spawn("frobnicate", unbuffered=unbuffered, preexec_fn=lambda: os.close(2))
        assert (child.returncode, child.stdout, child.stderr) == (2, b"", b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    @pytest.mark.parametrize(
        "argv",
        [("validate", "sample_inputs/conn_linear.json"), ("prolong", "sample_inputs/conn_a.json"),
         *HELP],
    )
    def test_full_stdout_is_a_one_line_error(self, argv, unbuffered):
        # Buffered, a short text fails only at the flush; without one, at exit,
        # with Python's own exit code 120.  Unbuffered, argparse dropped the
        # failed help and exited 0.
        with open("/dev/full", "wb") as full:
            child = self.spawn(*argv, unbuffered=unbuffered, stdout=full)
        assert child.returncode == 1
        assert child.stderr == b"error: stdout: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_full_stderr_exits_1(self, unbuffered):
        # The diagnostic cannot be written, buffered or not; without the
        # flush in main, the buffered one failed at exit with code 120.
        with open("/dev/full", "wb") as full:
            child = self.spawn("validate", "sample_inputs/absent.json", unbuffered=unbuffered,
                               stderr=full)
        assert (child.returncode, child.stdout) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_full_stderr_usage_error_exits_2(self, unbuffered):
        # Buffered, argparse's usage error failed at exit, with code 120.
        with open("/dev/full", "wb") as full:
            child = self.spawn("frobnicate", unbuffered=unbuffered, stderr=full)
        assert (child.returncode, child.stdout) == (2, b"")

    def test_unwritable_stderr_raises_nothing(self, monkeypatch):
        class Full:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.chdir(self.ROOT)
        monkeypatch.setattr(sys, "stderr", Full())
        assert main(["validate", "sample_inputs/absent.json"]) == 1
        assert sys.stderr is None  # dropped, so that exit does not write to it again

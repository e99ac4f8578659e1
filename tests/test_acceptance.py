"""Acceptance gate.

Ten criteria, each a single test that prints one PASS/FAIL line on the
real terminal as it finishes.  Tolerances are pinned here and nowhere
else; every random draw is seeded so a failure reproduces exactly.
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from jetconn import (
    HOLONOMIC,
    SEMIHOLONOMIC,
    SYMBOLIC,
    Connection1,
    Connection2,
    Curve,
    CURVE_UNIVERSE,
    JetconnError,
    ParseError,
    SymbolUniverse,
    TwoFoldConnection,
    adapted_frame,
    affine_to_general,
    classify,
    curvature,
    diff,
    ehresmann_prolongation,
    eval_expr,
    exchange,
    expr_equal,
    family,
    is_semiholonomic_point,
    linear_to_general,
    load_path,
    loop_holonomy,
    parse_expr,
    product,
    projections_agree,
    simplify,
    to_text,
    transport1,
    twofold_dual_coframe,
    twofold_universe,
)
from jetconn.cli import main
from jetconn.expr import Const
from jetconn.frames import identity_matrix, symbolic_matmul

from conftest import (
    fd_product_entry,
    poly_expr,
    random_connection1,
    random_expr,
    random_jet_point,
)

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


def announce(capsys, num, label, failures):
    verdict = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"criterion {num:2d}: {verdict} - {label}")
    assert not failures, f"criterion {num}:\n" + "\n".join(failures[:10])


def grad_connection(rng, m):
    u = SymbolUniverse(m, 1)
    phi = poly_expr(rng, u.base_names)
    F = (tuple(simplify(diff(phi, name)) for name in u.base_names),)
    return Connection1(u, F)


def curve_of(strings, t0, t1):
    comps = tuple(parse_expr(s, CURVE_UNIVERSE) for s in strings)
    return Curve(len(comps), comps, t0, t1)


def test_criterion_01_product_vs_finite_differences(capsys):
    rng = np.random.default_rng(101)
    failures = []
    start = time.perf_counter()
    for case in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        gamma = random_connection1(rng, m, n)
        gamma_bar = random_connection1(rng, m, n)
        delta = product(gamma, gamma_bar)
        for _ in range(20):
            point = {
                name: float(rng.uniform(-1.5, 1.5))
                for name in gamma.universe.variable_names
            }
            for p in range(n):
                for i in range(m):
                    for j in range(m):
                        sym = eval_expr(delta.H[p][i][j], point)
                        fd = fd_product_entry(gamma, gamma_bar, p, i, j, point)
                        if abs(fd - sym) > 1e-5 * (1 + abs(sym)):
                            failures.append(
                                f"case {case} H[{p}][{i}][{j}]: "
                                f"sym {sym!r} vs fd {fd!r}"
                            )
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    announce(
        capsys,
        1,
        "product H grid matches finite differences, 50 connections",
        failures,
    )


def test_criterion_02_semiholonomy_iff_equal_projections(capsys):
    rng = np.random.default_rng(102)
    failures = []
    for case in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        gamma = random_connection1(rng, m, n)
        if case < 25:
            gamma_bar = Connection1(gamma.universe, gamma.F)
        else:
            gamma_bar = random_connection1(rng, m, n)
        grids_equal = all(
            expr_equal(gamma.F[p][i], gamma_bar.F[p][i]).equal
            for p in range(n)
            for i in range(m)
        )
        verdict = classify(product(gamma, gamma_bar)).verdict
        is_semi = verdict in (SEMIHOLONOMIC, HOLONOMIC)
        if is_semi != grids_equal:
            failures.append(
                f"case {case}: classify {verdict!r} vs equal grids {grids_equal}"
            )
    announce(
        capsys,
        2,
        "classify(product) semiholonomic iff equal coefficient grids, 50 pairs",
        failures,
    )


def test_criterion_03_gradient_holonomic_and_known_curvature(capsys):
    rng = np.random.default_rng(103)
    failures = []
    for case in range(20):
        g = grad_connection(rng, int(rng.integers(2, 4)))
        c = classify(ehresmann_prolongation(g))
        if c.verdict != HOLONOMIC:
            failures.append(f"gradient case {case}: {c}")
    u = SymbolUniverse(2, 1)
    g = Connection1(u, ((u.y(1), u.x(1)),))
    c = classify(ehresmann_prolongation(g))
    if c.verdict != SEMIHOLONOMIC:
        failures.append(f"y1/x1 example classified {c}")
    r = curvature(g)
    check = expr_equal(r[0][0][1], parse_expr("x1 - 1", u))
    if not (check.equal and check.confidence == SYMBOLIC):
        failures.append(f"R12 check: {check}")
    announce(
        capsys,
        3,
        "gradient connections holonomic; y1/x1 semiholonomic with R12 = x1 - 1",
        failures,
    )


def test_criterion_04_family_endpoints_midpoint_flat(capsys):
    rng = np.random.default_rng(104)
    failures = []

    def grids_match(a, b):
        for ga, gb in zip((a.F, a.G), (b.F, b.G)):
            for ra, rb in zip(ga, gb):
                for ea, eb in zip(ra, rb):
                    if simplify(ea) != simplify(eb):
                        return False
        for pa, pb in zip(a.H, b.H):
            for ra, rb in zip(pa, pb):
                for ea, eb in zip(ra, rb):
                    if simplify(ea) != simplify(eb):
                        return False
        return True

    for case in range(20):
        g = random_connection1(rng, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        prolonged = ehresmann_prolongation(g)
        if not grids_match(family(g, 1.0), prolonged):
            failures.append(f"case {case}: k=1 endpoint differs from self-product")
        if not grids_match(family(g, 0.0), exchange(prolonged)):
            failures.append(f"case {case}: k=0 endpoint differs from exchange")
        c = classify(family(g, 0.5))
        if c.verdict != HOLONOMIC:
            failures.append(f"case {case}: midpoint classified {c}")
    for case in range(5):
        g = grad_connection(rng, 2)
        members = [family(g, k) for k in (0.0, 0.3, 1.0)]
        base = members[0]
        for other in members[1:]:
            for p in range(1):
                for i in range(2):
                    for j in range(2):
                        if not expr_equal(base.H[p][i][j], other.H[p][i][j]).equal:
                            failures.append(
                                f"flat case {case}: H[{p}][{i}][{j}] varies with k"
                            )
    announce(
        capsys,
        4,
        "family endpoints exact, midpoint holonomic, flat members k-independent",
        failures,
    )


def test_criterion_05_exchange_involution(capsys):
    rng = np.random.default_rng(105)
    failures = []
    for case in range(50):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        u = SymbolUniverse(m, n)
        names = u.variable_names

        def grid2():
            return tuple(
                tuple(poly_expr(rng, names) for _ in range(m)) for _ in range(n)
            )

        H = tuple(
            tuple(
                tuple(poly_expr(rng, names) for _ in range(m)) for _ in range(m)
            )
            for _ in range(n)
        )
        d = Connection2(u, grid2(), grid2(), H)
        dd = exchange(exchange(d))
        for a, b in (
            (d.F, dd.F),
            (d.G, dd.G),
        ):
            for ra, rb in zip(a, b):
                for ea, eb in zip(ra, rb):
                    if simplify(ea) != simplify(eb):
                        failures.append(f"case {case}: first-order entry moved")
        for pa, pb in zip(d.H, dd.H):
            for ra, rb in zip(pa, pb):
                for ea, eb in zip(ra, rb):
                    if simplify(ea) != simplify(eb):
                        failures.append(f"case {case}: H entry moved")
    announce(capsys, 5, "exchange is an involution on 50 random grids", failures)


def test_criterion_06_jet_checks_agree(capsys):
    rng = np.random.default_rng(106)
    failures = []
    start = time.perf_counter()
    for case in range(1000):
        r = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        pt = random_jet_point(rng, r, m, n, force_semiholonomic=case % 2 == 0)
        core = is_semiholonomic_point(pt)
        proj = projections_agree(pt)
        if core != proj:
            failures.append(
                f"case {case} (r={r}, m={m}, n={n}): core {core} vs proj {proj}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    announce(
        capsys,
        6,
        "core-index rule equals projection agreement on 1000 jets",
        failures,
    )


def test_criterion_07_frames_dual_and_twofold_inverse(capsys):
    rng = np.random.default_rng(107)
    failures = []
    for case in range(10):
        g = random_connection1(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        built = adapted_frame(g)
        size = g.universe.base_dim + g.universe.fiber_dim
        eye = identity_matrix(size)
        if symbolic_matmul(built.frame, built.coframe) != eye:
            failures.append(f"case {case}: frame * coframe not identity")
        if symbolic_matmul(built.coframe, built.frame) != eye:
            failures.append(f"case {case}: coframe * frame not identity")
    for case in range(100):
        dims = tuple(int(rng.integers(1, 3)) for _ in range(4))
        n, r1, r2, r12 = dims

        def num_grid(rows, cols):
            return tuple(
                tuple(
                    Const(int(rng.integers(-8, 9)))
                    for _ in range(cols)
                )
                for _ in range(rows)
            )

        c = TwoFoldConnection(
            dims,
            num_grid(r1, n),
            num_grid(r2, n),
            num_grid(r12, n),
            num_grid(r12, r1),
            num_grid(r12, r2),
        )
        try:
            dual = twofold_dual_coframe(c, points=100, tol=1e-10)
        except JetconnError as err:
            failures.append(f"twofold case {case} dims {dims}: {err}")
            continue
        if dual.max_deviation >= 1e-10:
            failures.append(
                f"twofold case {case} dims {dims}: deviation {dual.max_deviation}"
            )
    announce(
        capsys,
        7,
        "adapted duality symbolic; two-fold coframe numeric inverse to 1e-10",
        failures,
    )


def test_criterion_08_transport_suite(capsys):
    failures = []
    u = SymbolUniverse(1, 1)
    g = Connection1(u, ((u.y(1),),))
    unit = curve_of(("t",), 0.0, 1.0)
    err100 = abs(transport1(g, unit, (1.0,), 100).values[-1][0] - math.e)
    if err100 >= 1e-7:
        failures.append(f"exp error {err100:.3e} at 100 steps")
    err25 = abs(transport1(g, unit, (1.0,), 25).values[-1][0] - math.e)
    err50 = abs(transport1(g, unit, (1.0,), 50).values[-1][0] - math.e)
    order = math.log2(err25 / err50)
    if not 3.7 <= order <= 4.1:
        failures.append(f"convergence order {order:.3f} outside [3.7, 4.1]")

    polar = affine_to_general(load_path(SAMPLES / "conn_affine_polar.json").value)
    loop = load_path(SAMPLES / "loop_polar.json").value
    res = loop_holonomy(polar, loop, steps=2000)
    if res.defect >= 1e-5:
        failures.append(f"polar loop defect {res.defect:.3e} at 2000 steps")

    linear = linear_to_general(load_path(SAMPLES / "conn_linear.json").value)
    eps = 1e-2
    e = repr(eps)
    segments = [
        curve_of((f"{e}*t", "0"), 0.0, 1.0),
        curve_of((e, f"{e}*t"), 0.0, 1.0),
        curve_of((f"{e} - {e}*t", e), 0.0, 1.0),
        curve_of(("0", f"{e} - {e}*t"), 0.0, 1.0),
    ]
    columns = []
    for j in range(2):
        y = np.eye(2)[:, j]
        for seg in segments:
            y = transport1(linear, seg, y, 50).values[-1]
        columns.append(y)
    defect = float(np.abs(np.column_stack(columns) - np.eye(2)).max())
    # commutator of the two coefficient blocks has max-abs entry 1
    expected = 1.0 * eps * eps
    if not 0.9 * expected <= defect <= 1.1 * expected:
        failures.append(f"square loop defect {defect:.6e} vs |R| eps^2 {expected:.1e}")
    announce(
        capsys,
        8,
        "exp transport, RK4 order, flat polar loop, square-loop curvature",
        failures,
    )


def test_criterion_09_parser_fuzz_and_diagnostics(capsys):
    rng = np.random.default_rng(109)
    failures = []
    u = SymbolUniverse(2, 2)
    for case in range(1000):
        e = random_expr(rng, u.variable_names, depth=int(rng.integers(1, 5)))
        t0 = to_text(e)
        try:
            t1 = to_text(parse_expr(t0, u))
        except JetconnError as err:
            failures.append(f"case {case}: printed text rejected: {t0!r} ({err})")
            continue
        if t1 != t0:
            failures.append(f"case {case}: {t0!r} reprinted as {t1!r}")
    malformed = [
        "",
        "x1 +",
        "(x1",
        "x1)",
        "sin(",
        "sin()",
        "sin(x1, x2)",
        "foo(1)",
        "x9",
        "x1 x2",
        "1..2",
        "^2",
        "x1^^2",
        "x1^(2)",
        "x1 & x2",
    ]
    for text in malformed:
        try:
            parse_expr(text, u)
        except ParseError as err:
            if "position" not in str(err):
                failures.append(f"{text!r}: diagnostic lacks position: {err}")
        except Exception as err:  # noqa: BLE001 - the point is "no crashes"
            failures.append(f"{text!r}: unexpected {type(err).__name__}: {err}")
        else:
            failures.append(f"{text!r}: accepted")
    charset = "x1y2 +-*/^()sincoe.,3"
    for case in range(200):
        text = "".join(
            rng.choice(list(charset))
            for _ in range(int(rng.integers(1, 18)))
        )
        try:
            parse_expr(text, u)
        except JetconnError:
            pass
        except Exception as err:  # noqa: BLE001
            failures.append(f"fuzz {text!r}: crash {type(err).__name__}: {err}")
    announce(
        capsys,
        9,
        "1000 print/parse round-trips; malformed inputs yield positioned errors",
        failures,
    )


def criterion_10_commands(prolonged):
    """The command lines criterion 10 runs twice each, after ``--seed 0`` is appended;
    ``prolonged`` is an order-2 connection file."""
    return [
        ("validate", str(SAMPLES / "conn_a.json")),
        ("product", str(SAMPLES / "conn_a.json"), str(SAMPLES / "conn_b.json")),
        ("prolong", str(SAMPLES / "conn_b.json")),
        ("curvature", str(SAMPLES / "conn_a.json")),
        ("exchange", str(prolonged)),
        ("family", str(SAMPLES / "conn_a.json"), "--k", "0.5"),
        ("classify", str(prolonged)),
        ("semiholonomy", str(SAMPLES / "jet_semi.json")),
        ("frames", str(SAMPLES / "conn_a.json")),
        ("frames", str(SAMPLES / "conn_a.json"), "--at", "1,2,3"),
        ("frames", str(prolonged)),
        ("twofold", str(SAMPLES / "twofold.json")),
        ("jacobian", str(SAMPLES / "transform.json")),
        (
            "transport",
            "1",
            str(SAMPLES / "conn_exp.json"),
            str(SAMPLES / "curve_unit.json"),
            "--y0",
            "1",
            "--steps",
            "40",
        ),
        (
            "transport",
            "2",
            str(prolonged),
            str(SAMPLES / "curve_revolution.json"),
            "--y0",
            "1",
            "--steps",
            "40",
        ),
        (
            "transport",
            "ode2",
            str(SAMPLES / "conn_zero2.json"),
            str(SAMPLES / "curve_revolution.json"),
            "--y0",
            "2",
            "--steps",
            "40",
        ),
        (
            "holonomy",
            str(SAMPLES / "conn_affine_polar.json"),
            str(SAMPLES / "loop_polar.json"),
            "--steps",
            "200",
        ),
    ]


def test_criterion_10_cli_byte_determinism(capsys, tmp_path):
    failures = []
    prolonged = tmp_path / "prolonged.json"
    code = main(
        ["prolong", str(SAMPLES / "conn_a.json"), "--output", str(prolonged)]
    )
    assert code == 0
    capsys.readouterr()
    commands = criterion_10_commands(prolonged)
    for argv in commands:
        seeded = list(argv) + ["--seed", "0"]
        runs = []
        for _ in range(2):
            code = main(seeded)
            captured = capsys.readouterr()
            runs.append((code, captured.out.encode(), captured.err.encode()))
        if runs[0][0] != 0:
            failures.append(f"{argv[0]}: exit {runs[0][0]}: {runs[0][2]!r}")
        if runs[0] != runs[1]:
            failures.append(f"{argv[0]}: runs differ")
    announce(
        capsys,
        10,
        "every subcommand byte-identical across two seeded runs",
        failures,
    )

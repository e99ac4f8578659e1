"""The four workloads: input generation from a seed, and the command lists.

A workload is a list of :class:`Command`.  Each names the jetconn argument
list, where its output goes, the check that output must pass and a way to
corrupt it.  Inputs are written into a work directory by ``build`` from the
workload's seed alone; nothing else influences them.  Sizes are fixed per
workload and only the coefficients, variables and term order vary with the
seed, so that every seed does about the same amount of work.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_inputs"


@dataclass
class Command:
    """One jetconn invocation of a workload.

    ``argv`` follows ``jetconn``.  The output is stdout, or the file named
    by ``output``.  ``check(outputs)`` gets every output of the pass by
    label and raises :class:`checks.CheckError` on a wrong one;
    ``corrupt(text)`` returns a wrong version of a right output.
    """

    label: str
    argv: list
    check: Callable
    corrupt: Callable
    output: Optional[Path] = None


class Plan:
    """Command list of a workload plus the helpers that build it."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.commands = []

    def write(self, name, data):
        path = self.work / name
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
        return data

    def add(self, label, argv, check, corrupt, output=None):
        out = None if output is None else self.work / output
        argv = [str(a) for a in argv] + ([] if out is None else ["--output", str(out)])
        self.commands.append(Command(label, argv, check, corrupt, out))

    def path(self, name):
        return str(self.work / name)

    def rng(self, label):
        """A check's own points: fixed by seed and command, fresh per check."""
        return np.random.default_rng([self.seed, sum(map(ord, label))])


def _sum(terms):
    return " + ".join(terms).replace("+ -", "- ")


def poly(rng, names, terms, degree=3, coeff=8):
    """Random polynomial text with integer coefficients.

    Term k has degree k mod (degree + 1), so every seed gets the same mix of
    degrees and about the same amount of work.
    """
    out = []
    for k in range(terms):
        c = int(rng.integers(1, coeff + 1)) * int(rng.choice((-1, 1)))
        factors = [str(rng.choice(names)) for _ in range(k % (degree + 1))]
        out.append("*".join([str(c)] + factors))
    rng.shuffle(out)
    return _sum(out)


def mixed(rng, names, terms):
    """Polynomial terms mixed with sin, cos, exp and ln factors, in turn."""
    out = []
    for kind in range(terms):
        c = int(rng.integers(1, 6)) * int(rng.choice((-1, 1)))
        a, b = (str(v) for v in rng.choice(names, 2))
        factor = (
            f"{a}*{b}",
            f"sin({a})*{b}",
            f"cos({a} - {b})",
            f"exp({a}/4)*{b}",
            f"ln(1 + {a}^2)",
        )[kind % 5]
        out.append(f"{c}*{factor}")
    rng.shuffle(out)
    return _sum(out)


def connection1(m, n, F):
    return {"order": 1, "base_dim": m, "fiber_dim": n, "F": F}


# --- cli_samples -----------------------------------------------------------

def cli_samples(work: Path, seed: int) -> Plan:
    """Every subcommand on sample_inputs/ with default options."""
    plan = Plan(work, seed)
    docs = {}
    for src in sorted(SAMPLES.glob("*.json")):
        shutil.copyfile(src, work / src.name)
        docs[src.stem] = json.loads(src.read_text(encoding="utf-8"))
    p = plan.path
    s = ["--seed", seed]

    plan.add(
        "validate",
        ["validate", p("conn_linear.json")],
        lambda o: checks.expect(
            o["validate"] == f"{p('conn_linear.json')}: valid linear connection\n",
            "validate verdict",
        ),
        lambda t: t.replace("linear", "affine"),
    )
    plan.add(
        "product",
        ["product", p("conn_a.json"), p("conn_b.json")],
        lambda o: checks.check_product(o["product"], docs["conn_a"], docs["conn_b"], plan.rng("product")),
        lambda t: checks.corrupt_json(t, "H"),
    )
    plan.add(
        "prolong",
        ["prolong", p("conn_a.json")],
        lambda o: checks.check_product(o["prolong"], docs["conn_a"], docs["conn_a"], plan.rng("prolong")),
        lambda t: checks.corrupt_json(t, "H"),
    )
    plan.add(
        "curvature",
        ["curvature", p("conn_a.json")],
        lambda o: checks.check_curvature(o["curvature"], docs["conn_a"], plan.rng("curvature")),
        lambda t: checks.corrupt_json(t, "R"),
    )
    plan.add(
        "exchange",
        ["exchange", p("conn_zero2.json")],
        lambda o: checks.check_exchange(o["exchange"], docs["conn_zero2"], plan.rng("exchange")),
        lambda t: checks.corrupt_json(t, "H"),
    )
    plan.add(
        "family",
        ["family", p("conn_a.json"), "--k", "0.5"],
        lambda o: checks.check_family(o["family"], docs["conn_a"], 0.5, plan.rng("family")),
        lambda t: checks.corrupt_json(t, "H"),
    )
    plan.add(
        "classify",
        ["classify", p("conn_zero2.json"), *s],
        lambda o: checks.check_verdict(o["classify"], "holonomic"),
        checks.corrupt_words,
    )
    for name in ("jet_semi", "jet_nonholo"):
        plan.add(
            f"semiholonomy_{name}",
            ["semiholonomy", p(f"{name}.json")],
            lambda o, name=name: checks.check_semiholonomy(o[f"semiholonomy_{name}"], docs[name]),
            checks.corrupt_words,
        )
    plan.add(
        "frames",
        ["frames", p("conn_a.json")],
        lambda o: checks.check_frames(o["frames"], docs["conn_a"], plan.rng("frames")),
        lambda t: checks.corrupt_json(t, "coframe"),
    )
    at = (1.0, 2.0, 3.0, 4.0)
    plan.add(
        "frames_at",
        ["frames", p("conn_linear.json"), "--at", ",".join(map(str, at))],
        lambda o: checks.check_frames_at(o["frames_at"], docs["conn_linear"], at),
        lambda t: checks.corrupt_numbers(t, "coframe"),
    )
    plan.add(
        "lift",
        ["frames", p("conn_zero2.json")],
        lambda o: checks.check_lift(o["lift"], docs["conn_zero2"], plan.rng("lift")),
        lambda t: checks.corrupt_json(t, "lift"),
    )
    plan.add(
        "twofold",
        ["twofold", p("twofold.json"), *s],
        lambda o: checks.check_twofold(o["twofold"], docs["twofold"], 100, plan.rng("twofold")),
        lambda t: checks.corrupt_json(t, "coframe"),
    )
    plan.add(
        "jacobian",
        ["jacobian", p("transform.json"), *s],
        lambda o: checks.check_jacobian(o["jacobian"], docs["transform"], [], plan.rng("jacobian")),
        lambda t: checks.corrupt_json(t, "jacobian"),
    )
    plan.add(
        "transport1",
        ["transport", "1", p("conn_exp.json"), p("curve_unit.json"), "--y0", "1"],
        lambda o: checks.check_trajectory(
            o["transport1"], ["t", "y1"], lambda t: np.exp(t)[:, None], 100, 0.0, 1.0
        ),
        checks.corrupt_csv,
    )
    two_pi = 6.283185307179586
    plan.add(
        "transport2",
        ["transport", "2", p("conn_zero2.json"), p("curve_revolution.json"), "--y0", "1"],
        lambda o: checks.check_trajectory(
            o["transport2"], ["t", "y1", "y1_1", "y1_2"],
            lambda t: np.array([[1.0, 0.0, 0.0]] * len(t)), 100, 0.0, two_pi,
        ),
        checks.corrupt_csv,
    )
    plan.add(
        "ode2",
        ["transport", "ode2", p("conn_zero2.json"), p("curve_revolution.json"), "--y0", "1"],
        lambda o: checks.check_trajectory(
            o["ode2"], ["t", "y1"], lambda t: np.ones((len(t), 1)), 100, 0.0, two_pi
        ),
        checks.corrupt_csv,
    )
    plan.add(
        "holonomy",
        ["holonomy", p("conn_affine_polar.json"), p("loop_polar.json"), "--steps", "200"],
        lambda o: checks.check_holonomy(o["holonomy"], 2, 200, 1e-6),
        lambda t: checks.corrupt_numbers(t, "matrix"),
    )
    return plan


# --- algebra ---------------------------------------------------------------

ALGEBRA_DIMS = (4, 3)
LONG_TERMS = 160


def algebra(work: Path, seed: int) -> Plan:
    """Generated connections through product, prolong, curvature, family,
    exchange, classify and frames, chained through files."""
    plan = Plan(work, seed)
    rng = np.random.default_rng([1, seed])
    m, n = ALGEBRA_DIMS
    names = checks.names_of(m, n)
    A = plan.write("A.json", connection1(m, n, [[mixed(rng, names, 5) for _ in range(m)] for _ in range(n)]))
    B = plan.write("B.json", connection1(m, n, [[poly(rng, names, 5) for _ in range(m)] for _ in range(n)]))
    base = names[:3]
    L = plan.write("L.json", {
        "linear": True, "base_dim": 3, "fiber_dim": 3,
        "coeff": [[[poly(rng, base, 2, degree=2) for _ in range(3)] for _ in range(3)] for _ in range(3)],
    })
    Aff = plan.write("Aff.json", {
        "affine": True, "dim": 3,
        "christoffel": [[[poly(rng, base, 3, degree=2) for _ in range(3)] for _ in range(3)] for _ in range(3)],
    })
    big_names = checks.names_of(2, 1)
    Big = plan.write("Big.json", connection1(2, 1, [[poly(rng, big_names, LONG_TERMS), mixed(rng, big_names, 4)]]))
    p = plan.path
    s = ["--seed", seed]

    def product_check(label, first, second, transpose=False):
        return lambda o: checks.check_product(o[label], first, second, plan.rng(label), transpose)

    H = lambda t: checks.corrupt_json(t, "H")
    plan.add("product", ["product", p("A.json"), p("B.json")], product_check("product", A, B), H, "D.json")
    plan.add("prolong", ["prolong", p("A.json")], product_check("prolong", A, A), H, "P.json")
    plan.add(
        "curvature", ["curvature", p("A.json")],
        lambda o: checks.check_curvature(o["curvature"], A, plan.rng("curvature")),
        lambda t: checks.corrupt_json(t, "R"), "R.json",
    )
    plan.add(
        "family", ["family", p("A.json"), "--k", "0.5"],
        lambda o: checks.check_family(o["family"], A, 0.5, plan.rng("family")), H, "Fam.json",
    )
    plan.add("exchange", ["exchange", p("D.json")], product_check("exchange", A, B, True), H, "X.json")
    plan.add(
        "exchange2", ["exchange", p("X.json")],
        lambda o: checks.check_involution(o["exchange2"], o["product"]), H, "XX.json",
    )
    for label, target, verdict in (
        ("classify_prolong", "P.json", "semiholonomic"),
        ("classify_product", "D.json", "nonholonomic"),
        ("classify_family", "Fam.json", "holonomic"),
    ):
        plan.add(
            label, ["classify", p(target), *s],
            lambda o, label=label, verdict=verdict: checks.check_verdict(o[label], verdict),
            checks.corrupt_words,
        )
    plan.add(
        "frames", ["frames", p("A.json")],
        lambda o: checks.check_frames(o["frames"], A, plan.rng("frames")),
        lambda t: checks.corrupt_json(t, "coframe"),
    )
    plan.add("prolong_linear", ["prolong", p("L.json")], product_check("prolong_linear", L, L), H, "PL.json")
    plan.add(
        "curvature_affine", ["curvature", p("Aff.json")],
        lambda o: checks.check_curvature(o["curvature_affine"], Aff, plan.rng("curvature_affine")),
        lambda t: checks.corrupt_json(t, "R"), "RA.json",
    )
    plan.add("prolong_long", ["prolong", p("Big.json")], product_check("prolong_long", Big, Big), H, "PB.json")
    plan.add(
        "classify_long", ["classify", p("PB.json"), *s],
        lambda o: checks.check_verdict(o["classify_long"], "semiholonomic"),
        checks.corrupt_words,
    )
    return plan


# --- transport -------------------------------------------------------------

# Similar costs per command keep cmd_p50_rel inside one cluster of times.
TRANSPORT_STEPS = {"exp": 3500, "scalar": 3000, "rotation": 3000, "ode2": 3000, "holonomy": 1200}


def transport(work: Path, seed: int) -> Plan:
    """Long RK4 runs on small connections whose solutions have closed forms."""
    plan = Plan(work, seed)
    rng = np.random.default_rng([2, seed])
    u = lambda lo, hi: round(float(rng.uniform(lo, hi)), 3)
    p = plan.path
    st = TRANSPORT_STEPS

    # dy/dt = c*y along x = t on [0, 1]: y = y0 exp(c t)
    c, y0 = u(0.5, 1.5), u(0.5, 2.0)
    plan.write("E.json", connection1(1, 1, [[f"{c}*y1"]]))
    plan.write("line.json", {"dim": 1, "components": ["t"], "t0": 0.0, "t1": 1.0})
    plan.add(
        "exp", ["transport", "1", p("E.json"), p("line.json"), "--y0", y0, "--steps", st["exp"]],
        lambda o: checks.check_trajectory(
            o["exp"], ["t", "y1"], lambda t: (y0 * np.exp(c * t))[:, None], st["exp"], 0.0, 1.0
        ),
        checks.corrupt_csv, "exp.csv",
    )

    # F = ((a + b cos x1) y1, k x1 y1) along (t, t^2) on [0, 1]:
    # y = y0 exp(a x1 + b sin x1 + (2k/3) t^3), x1 = t
    a, b, k, ys = u(-0.5, 0.5), u(0.2, 1.0), u(-1.0, 1.0), u(0.5, 2.0)
    scalar_F = [[f"({a} + {b}*cos(x1))*y1", f"{k}*x1*y1"]]
    plan.write("S.json", connection1(2, 1, scalar_F))
    plan.write("para.json", {"dim": 2, "components": ["t", "t^2"], "t0": 0.0, "t1": 1.0})

    def scalar_exact(t):
        return (ys * np.exp(a * t + b * np.sin(t) + (2 * k / 3) * t**3))[:, None]

    plan.add(
        "scalar", ["transport", "1", p("S.json"), p("para.json"), "--y0", ys, "--steps", st["scalar"]],
        lambda o: checks.check_trajectory(o["scalar"], ["t", "y1"], scalar_exact, st["scalar"], 0.0, 1.0),
        checks.corrupt_csv, "scalar.csv",
    )

    # order 2 with the same F: its y column must reproduce transport 1
    H = [[[poly(rng, ["x1", "x2", "y1"], 3, degree=2) for _ in range(2)] for _ in range(2)]]
    jet_columns = ["t", "y1", "y1_1", "y1_2"]
    para = (checks.Expression("t"), checks.Expression("t^2"))
    plan.write("S2.json", {"order": 2, "base_dim": 2, "fiber_dim": 1, "F": scalar_F, "G": scalar_F, "H": H})
    plan.add(
        "jet", ["transport", "2", p("S2.json"), p("para.json"), "--y0", ys, "--steps", st["scalar"]],
        lambda o: (
            checks.check_same_fiber(o["jet"], jet_columns, o["scalar"], ["t", "y1"]),
            checks.check_jets(o["jet"], jet_columns, checks.grid(H), para, st["scalar"], 0.0, 1.0),
        ),
        checks.corrupt_csv, "jet.csv",
    )

    # rotation generator: y = R(w (x(t) - x(t0))) y0 along x = s sin t
    w, sc = u(0.5, 2.0), u(0.5, 1.5)
    r0 = (u(-1.0, 1.0), u(-1.0, 1.0))
    plan.write("Rot.json", connection1(1, 2, [[f"-{w}*y2"], [f"{w}*y1"]]))
    plan.write("wave.json", {"dim": 1, "components": [f"{sc}*sin(t)"], "t0": 0.0, "t1": 3.0})

    def rotation_exact(t):
        th = w * sc * np.sin(t)
        return np.stack((np.cos(th) * r0[0] - np.sin(th) * r0[1], np.sin(th) * r0[0] + np.cos(th) * r0[1]), 1)

    plan.add(
        "rotation",
        # "--y0 -0.5,1" would be read as an option: argparse only takes a
        # leading minus as a value when the whole word is one number
        ["transport", "1", p("Rot.json"), p("wave.json"), f"--y0={r0[0]},{r0[1]}", "--steps", st["rotation"]],
        lambda o: checks.check_trajectory(o["rotation"], ["t", "y1", "y2"], rotation_exact, st["rotation"], 0.0, 3.0),
        checks.corrupt_csv, "rotation.csv",
    )

    # F = grad phi, H = Hessian phi: ode2 gives y = y0 + d/dt phi(x(t)) |_t0^t
    pa, pb, pc = u(0.5, 1.5), u(0.5, 1.5), u(-0.5, 0.5)
    F = [[f"2*{pa}*x1*x2 + {pb}*cos(x1)", f"{pa}*x1^2 + 3*({pc})*x2^2"]]
    Hphi = [[[f"2*{pa}*x2 - {pb}*sin(x1)", f"2*{pa}*x1"], [f"2*{pa}*x1", f"6*({pc})*x2"]]]
    plan.write("Phi.json", {"order": 2, "base_dim": 2, "fiber_dim": 1, "F": F, "G": F, "H": Hphi})
    plan.write("loop.json", {"dim": 2, "components": ["cos(t)", "sin(2*t)/2 + t/4"], "t0": 0.0, "t1": 2.0})
    phi = checks.Expression(f"{pa}*x1^2*x2 + {pb}*sin(x1) + ({pc})*x2^3")
    curve = (checks.Expression("cos(t)"), checks.Expression("sin(2*t)/2 + t/4"))
    y0o = u(-1.0, 1.0)

    def ode2_exact(t):
        env = {"t": t + 1j * checks.STEP}
        rate = np.imag(phi({"x1": curve[0](env), "x2": curve[1](env)})) / checks.STEP
        return (y0o + rate - rate[0])[:, None]

    plan.add(
        "ode2", ["transport", "ode2", p("Phi.json"), p("loop.json"), f"--y0={y0o}", "--steps", st["ode2"]],
        lambda o: checks.check_trajectory(o["ode2"], ["t", "y1"], ode2_exact, st["ode2"], 0.0, 2.0),
        checks.corrupt_csv, "ode2.csv",
    )

    # the flat plane in polar coordinates: trivial holonomy on every loop
    shutil.copyfile(SAMPLES / "conn_affine_polar.json", work / "polar.json")
    ca, ra, rb = u(2.0, 3.0), u(0.5, 1.0), u(0.5, 1.5)
    plan.write("polar_loop.json", {
        "dim": 2, "components": [f"{ca} + {ra}*cos(t)", f"{rb}*sin(t)"], "t0": 0.0, "t1": 2 * math.pi,
    })
    plan.add(
        "holonomy", ["holonomy", p("polar.json"), p("polar_loop.json"), "--steps", st["holonomy"]],
        lambda o: checks.check_holonomy(o["holonomy"], 2, st["holonomy"], 1e-8),
        lambda t: checks.corrupt_numbers(t, "matrix"),
    )
    return plan


# --- sampling --------------------------------------------------------------

SAMPLING_DIMS = (4, 2)
CLASSIFY_SAMPLES = 3000
TWOFOLD_SAMPLES = 4000
JACOBIAN_SAMPLES = 20000


def _reordered(rng, text):
    """The same polynomial with its terms and factors in another order."""
    terms = text.replace("- ", "+ -").split(" + ")
    rng.shuffle(terms)
    out = []
    for term in terms:
        coeff, *factors = term.split("*")
        factors.reverse()
        out.append("*".join(factors + [f"({coeff})"]) if factors else coeff)
    return _sum(out)


def sampling(work: Path, seed: int) -> Plan:
    """Wide sampled comparisons: classify, twofold and jacobian."""
    plan = Plan(work, seed)
    rng = np.random.default_rng([3, seed])
    p = plan.path
    s = ["--seed", seed]
    m, n = SAMPLING_DIMS
    names = checks.names_of(m, n)

    for label, verdict in (("symmetric", "holonomic"), ("skewed", "semiholonomic")):
        F = [[poly(rng, names, 3, degree=2) for _ in range(m)] for _ in range(n)]
        H = [[[None] * m for _ in range(m)] for _ in range(n)]
        for q in range(n):
            for i in range(m):
                for j in range(i, m):
                    H[q][i][j] = poly(rng, names, 6)
                    H[q][j][i] = _reordered(rng, H[q][i][j])
        if verdict == "semiholonomic":
            H[n - 1][m - 1][0] += " + x1*y1"
        plan.write(f"{label}.json", {"order": 2, "base_dim": m, "fiber_dim": n, "F": F, "G": F, "H": H})
        plan.add(
            f"classify_{label}", ["classify", p(f"{label}.json"), "--samples", CLASSIFY_SAMPLES, *s],
            lambda o, label=label, verdict=verdict: checks.check_verdict(o[f"classify_{label}"], verdict),
            checks.corrupt_words,
        )

    dims = [2, 2, 2, 2]
    tf_names = checks.twofold_names(dims)
    u_, v_, w_ = tf_names[:2], tf_names[2:4], tf_names[4:6]
    block = lambda vars_, rows, cols: [[poly(rng, vars_, 2, degree=2, coeff=3) for _ in range(cols)] for _ in range(rows)]
    TF = plan.write("twofold.json", {
        "dims": dims,
        "blocks": {
            "g1_base": block(u_ + v_, 2, 2),
            "g2_base": block(u_ + w_, 2, 2),
            "g12_base": block(tf_names, 2, 2),
            "g12_f1": block(tf_names, 2, 2),
            "g12_f2": block(tf_names, 2, 2),
        },
    })
    plan.add(
        "twofold", ["twofold", p("twofold.json"), "--samples", TWOFOLD_SAMPLES, *s],
        lambda o: checks.check_twofold(o["twofold"], TF, TWOFOLD_SAMPLES, plan.rng("twofold")),
        lambda t: checks.corrupt_json(t, "coframe"),
    )

    # A fibered transform; each component also carries a zero that the
    # simplifier cannot see, so its forbidden Jacobian entries are sampled.
    def hidden_zero(a, b):
        return f"({a} + {b})^2 - {a}^2 - 2*{a}*{b} - {b}^2"

    z_ = tf_names[6:]
    comps = (
        [f"{poly(rng, u_, 3, degree=2)} + {hidden_zero(u_[k], v_[k])}" for k in range(2)]
        + [f"{poly(rng, u_ + v_, 3, degree=2)} + {hidden_zero(v_[k], w_[k])}" for k in range(2)]
        + [f"{poly(rng, u_ + w_, 3, degree=2)} + {hidden_zero(w_[k], z_[k])}" for k in range(2)]
        + [poly(rng, tf_names, 4, degree=2) + f" + {z}" for z in z_]
    )
    T = plan.write("transform.json", {"transform": True, "dims": dims, "components": comps})
    plan.add(
        "jacobian", ["jacobian", p("transform.json"), "--samples", JACOBIAN_SAMPLES, *s],
        lambda o: checks.check_jacobian(o["jacobian"], T, [], plan.rng("jacobian")),
        lambda t: checks.corrupt_json(t, "jacobian"),
    )
    bad = dict(T, components=[comps[0] + f" + {w_[1]}"] + comps[1:])
    violations = [("component 1", w_[1])]
    plan.write("transform_bad.json", bad)
    plan.add(
        "jacobian_bad", ["jacobian", p("transform_bad.json"), "--samples", JACOBIAN_SAMPLES, *s],
        lambda o: checks.check_jacobian(o["jacobian_bad"], bad, violations, plan.rng("jacobian_bad")),
        lambda t: checks.corrupt_json(t, "jacobian"),
    )
    return plan


WORKLOADS = {
    "cli_samples": cli_samples,
    "algebra": algebra,
    "transport": transport,
    "sampling": sampling,
}

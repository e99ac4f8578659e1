"""Output checks that do not use jetconn.

Every check recomputes what a command must produce, or tests a property the
method must have, with code of its own: expression text is read by Python's
parser and evaluated with numpy at fresh points, and derivatives come from
the complex step, f'(x) = Im f(x + ih) / h with h = 1e-20, which is exact to
rounding for the analytic functions of the grammar.  Nothing is compared
against a stored copy of earlier output.

A check raises :class:`CheckError` on a wrong output.  ``corrupt_*``
functions make a wrong output from a right one, so that the benchmark can
show that every check rejects one (``run.py --corrupt``).
"""

from __future__ import annotations

import json
import re

import numpy as np

STEP = 1e-20
RTOL = 1e-8
_NAMESPACE = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "ln": np.log}
_CHUNK = 150


class CheckError(Exception):
    """The output of a command is wrong."""


def expect(condition, message):
    if not condition:
        raise CheckError(message)


# --- expression text -------------------------------------------------------

def _top_level_terms(text):
    """Split text at its top-level + and - signs, keeping each sign.

    Python's compiler recurses once per operator of a chained sum, so long
    sums are compiled in chunks of terms instead of in one piece.
    """
    terms, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+-" and pos > start and text[pos - 1] not in "eE":
            prev = text[:pos].rstrip()
            if prev[-1] not in "*/+-":
                terms.append(text[start:pos])
                start = pos
    terms.append(text[start:])
    return terms


class Expression:
    """Expression text of the jetconn grammar, evaluated with numpy."""

    def __init__(self, text):
        if not isinstance(text, str):
            raise CheckError(f"expected expression text, got {text!r}")
        terms = _top_level_terms(text.replace("^", "**"))
        try:
            self._code = [
                compile("".join(terms[k : k + _CHUNK]), "<expr>", "eval")
                for k in range(0, len(terms), _CHUNK)
            ]
        except SyntaxError:
            raise CheckError(f"unreadable expression text {text[:80]!r}") from None
        self.text = text

    def __call__(self, env):
        total = 0.0
        for code in self._code:
            total = total + eval(code, _NAMESPACE, env)
        return total + np.zeros(np.broadcast_shapes(*(np.shape(v) for v in env.values())))

    def grad(self, env, name):
        """d/d name at every point of ``env``, by the complex step."""
        shifted = dict(env)
        shifted[name] = env[name] + 1j * STEP
        return np.imag(self(shifted)) / STEP


def grid(texts):
    """Nested lists of expression text as nested lists of Expression."""
    if isinstance(texts, list):
        return [grid(t) for t in texts]
    return Expression(texts)


def points(rng, names, count=6, low=0.25, high=1.75):
    """Fresh points, one array per variable; the range keeps clear of 0."""
    return {name: rng.uniform(low, high, count) for name in names}


def close(got, want, what, rtol=RTOL):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    expect(np.all(np.isfinite(got)), f"{what}: non-finite value")
    err = np.abs(got - want) - rtol * (1.0 + np.abs(want))
    expect(np.all(err <= 0), f"{what}: off by {np.max(np.abs(got - want)):.3e}")


def values(exprs, env):
    """Evaluate a nested grid of Expression to an array of shape grid + points."""
    if isinstance(exprs, list):
        return np.stack([values(e, env) for e in exprs])
    return exprs(env).real


def names_of(m, n):
    return [f"x{i}" for i in range(1, m + 1)] + [f"y{p}" for p in range(1, n + 1)]


# --- connections -----------------------------------------------------------

def first_order_F(data):
    """The F grid text of an order-1, linear or affine connection document.

    Linear and affine documents are expanded here from their definitions:
    F_i^p = sum_q coeff[p][i][q] y^q, and F (row k, column j) =
    -sum_l Gamma^k_jl y^l.
    """
    if data.get("affine") is True:
        d = data["dim"]
        gamma = data["christoffel"]
        return d, d, [
            [
                "-(" + " + ".join(f"({gamma[k][j][l]})*y{l + 1}" for l in range(d)) + ")"
                for j in range(d)
            ]
            for k in range(d)
        ]
    m, n = data["base_dim"], data["fiber_dim"]
    if data.get("linear") is True:
        c = data["coeff"]
        return m, n, [
            [" + ".join(f"({c[p][i][q]})*y{q + 1}" for q in range(n)) for i in range(m)]
            for p in range(n)
        ]
    return m, n, data["F"]


def product_H(F, Fbar, m, n, env):
    """H_ij^p = d_j F_i^p + sum_q d_{y_q} F_i^p * Fbar_j^q at ``env``."""
    Fv = values(Fbar, env)
    out = []
    for p in range(n):
        rows = []
        for i in range(m):
            f = F[p][i]
            dy = [f.grad(env, f"y{q + 1}") for q in range(n)]
            rows.append(
                [
                    f.grad(env, f"x{j + 1}") + sum(dy[q] * Fv[q][j] for q in range(n))
                    for j in range(m)
                ]
            )
        out.append(rows)
    return np.array(out)


def read_connection2(text, m, n):
    data = json.loads(text)
    expect(data.get("order") == 2, "output is not an order-2 connection")
    expect((data.get("base_dim"), data.get("fiber_dim")) == (m, n), "wrong dimensions")
    return data


def check_product(text, first, second, rng, transpose=False):
    """Product (or prolongation) of two order-1 documents, optionally exchanged."""
    m, n, F = first_order_F(first)
    _, _, Fbar = first_order_F(second)
    data = read_connection2(text, m, n)
    env = points(rng, names_of(m, n))
    F, Fbar = grid(F), grid(Fbar)
    H = product_H(F, Fbar, m, n, env)
    if transpose:
        H = H.transpose(0, 2, 1, 3)
        F, Fbar = Fbar, F
    close(values(grid(data["F"]), env), values(F, env), "F")
    close(values(grid(data["G"]), env), values(Fbar, env), "G")
    close(values(grid(data["H"]), env), H, "H")


def check_family(text, source, k, rng):
    m, n, F = first_order_F(source)
    data = read_connection2(text, m, n)
    env = points(rng, names_of(m, n))
    F = grid(F)
    H = product_H(F, F, m, n, env)
    want = k * H + (1 - k) * H.transpose(0, 2, 1, 3)
    close(values(grid(data["F"]), env), values(F, env), "F")
    close(values(grid(data["G"]), env), values(F, env), "G")
    close(values(grid(data["H"]), env), want, "H")


def check_curvature(text, source, rng):
    """R is antisymmetric and equals H_ij - H_ji of the prolongation."""
    m, n, F = first_order_F(source)
    data = json.loads(text)
    expect(data.get("curvature") is True, "output is not a curvature grid")
    env = points(rng, names_of(m, n))
    R = values(grid(data["R"]), env)
    close(R, -R.transpose(0, 2, 1, 3), "R antisymmetry")
    H = product_H(grid(F), grid(F), m, n, env)
    close(R, H - H.transpose(0, 2, 1, 3), "R")


def check_exchange(text, source, rng):
    """exchange swaps F and G and transposes H."""
    m, n = source["base_dim"], source["fiber_dim"]
    data = read_connection2(text, m, n)
    env = points(rng, names_of(m, n))
    close(values(grid(data["F"]), env), values(grid(source["G"]), env), "F")
    close(values(grid(data["G"]), env), values(grid(source["F"]), env), "G")
    H = values(grid(source["H"]), env).transpose(0, 2, 1, 3)
    close(values(grid(data["H"]), env), H, "H")


def check_involution(text, original_text):
    """exchange applied twice gives back the original document."""
    expect(json.loads(text) == json.loads(original_text), "exchange twice is not the identity")


def check_verdict(text, verdict):
    expect(
        re.fullmatch(rf"{verdict} \((symbolic|probabilistic)\)\n", text) is not None,
        f"expected {verdict}, got {text.strip()!r}",
    )


def _identity_product(frame, coframe, size, env, what):
    A = values(grid(frame), env).transpose(2, 0, 1)
    B = values(grid(coframe), env).transpose(2, 0, 1)
    expect(A.shape[1:] == (size, size), f"{what}: frame is not {size}x{size}")
    eye = np.broadcast_to(np.eye(size), A.shape)
    close(B @ A, eye, f"{what}: coframe * frame")
    close(A @ B, eye, f"{what}: frame * coframe")
    return A


def check_frames(text, source, rng):
    """Adapted frame: lower-left block F, unit diagonal, coframe its inverse."""
    m, n, F = first_order_F(source)
    data = json.loads(text)
    env = points(rng, names_of(m, n))
    A = _identity_product(data["frame"], data["coframe"], m + n, env, "frame")
    close(A[:, m:, :m].transpose(1, 2, 0), values(grid(F), env), "frame F block")


def check_frames_at(text, source, at):
    m, n, F = first_order_F(source)
    data = json.loads(text)
    env = {name: np.array([v]) for name, v in zip(names_of(m, n), at)}
    A = np.array(data["frame"], dtype=np.float64)
    B = np.array(data["coframe"], dtype=np.float64)
    close(B @ A, np.eye(m + n), "coframe * frame")
    close(A[m:, :m], values(grid(F), env)[..., 0], "frame F block")


def check_lift(text, source, rng):
    """Horizontal lift of an order-2 connection: dy = F_i, dyj = H_ij."""
    m, n = source["base_dim"], source["fiber_dim"]
    rows = json.loads(text)["lift"]
    expect([r["direction"] for r in rows] == list(range(1, m + 1)), "lift directions")
    env = points(rng, names_of(m, n))
    F = values(grid(source["F"]), env)
    H = values(grid(source["H"]), env)
    for i, row in enumerate(rows):
        close(values(grid(row["dy"]), env), F[:, i], f"lift {i + 1} dy")
        close(values(grid(row["dyj"]), env), H[:, i], f"lift {i + 1} dyj")


# --- two-fold frames and transforms ----------------------------------------

def twofold_names(dims):
    n, r1, r2, r12 = dims
    return (
        [f"u{i}" for i in range(1, n + 1)]
        + [f"v{a}" for a in range(1, r1 + 1)]
        + [f"w{a}" for a in range(1, r2 + 1)]
        + [f"z{a}" for a in range(1, r12 + 1)]
    )


def check_twofold(text, source, samples, rng):
    """The emitted frame and coframe are inverse at fresh points."""
    data = json.loads(text)
    dims = source["dims"]
    size = sum(dims)
    env = points(rng, twofold_names(dims), low=-2.0, high=2.0)
    _identity_product(data["frame"], data["coframe"], size, env, "twofold")
    expect(data["checked_points"] == samples, "checked_points != --samples")
    expect(0 <= data["max_deviation"] <= 1e-10, "max_deviation above tolerance")


def check_jacobian(text, source, violations, rng):
    """Jacobian entries by the complex step; validity as constructed."""
    data = json.loads(text)
    names = twofold_names(source["dims"])
    env = points(rng, names)
    comps = grid(source["components"])
    want = np.array([[c.grad(env, name) for name in names] for c in comps])
    close(values(grid(data["jacobian"]), env), want, "jacobian")
    expect(data["valid"] == (not violations), f"valid should be {not violations}")
    expect([tuple(v) for v in data["violations"]] == violations, "violation list")


# --- jets ------------------------------------------------------------------

def check_semiholonomy(text, source):
    """Semiholonomic: values equal on each class of equal nonzero cores;
    holonomic: also on each class of equal sorted cores."""
    table = {(r["p"], tuple(r["seq"])): r["value"] for r in source["values"]}

    def constant_on(key):
        groups = {}
        for (p, seq), value in table.items():
            groups.setdefault((p, key(seq)), set()).add(value)
        return all(len(g) == 1 for g in groups.values())

    def core(seq):
        return tuple(k for k in seq if k)

    semi = constant_on(core)
    holo = semi and constant_on(lambda seq: tuple(sorted(core(seq))))
    yes = {True: "yes", False: "no"}
    want = (
        f"semiholonomic (core rule): {yes[semi]}\n"
        f"semiholonomic (projection cross-check): {yes[semi]}\n"
        f"holonomic: {yes[holo]}\n"
    )
    expect(text == want, f"expected {want!r}, got {text!r}")


# --- transport -------------------------------------------------------------

def read_csv(text, columns):
    lines = text.splitlines()
    expect(lines and lines[0].split(",") == columns, f"CSV header should be {columns}")
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError:
        raise CheckError("CSV holds a value that is not a number") from None
    expect(table.ndim == 2 and table.shape[1] == len(columns), "ragged CSV")
    return table


def rk4_tol(steps, span=1.0):
    """Allowed global error of classical RK4 at this step count (scaled)."""
    h = span / steps
    return max(1e-10, 10 * h**4)


def check_trajectory(text, columns, exact, steps, t0, t1):
    """Every row matches the closed-form solution ``exact(t)`` (rows x cols)."""
    table = read_csv(text, columns)
    expect(table.shape[0] == steps + 1, f"expected {steps + 1} rows")
    t = table[:, 0]
    close(t, t0 + np.arange(steps + 1) * ((t1 - t0) / steps), "t column", rtol=1e-12)
    want = exact(t)
    close(table[:, 1 : 1 + want.shape[1]], want, "trajectory", rtol=rk4_tol(steps, t1 - t0))


def check_same_fiber(text, columns, reference_text, reference_columns):
    """The y columns of transport 2 equal transport 1 on the same F."""
    table = read_csv(text, columns)
    ref = read_csv(reference_text, reference_columns)
    expect(table.shape[0] == ref.shape[0], "row counts differ")
    close(table[:, : ref.shape[1]], ref, "y columns vs transport 1", rtol=1e-12)


def check_jets(text, columns, H, curve, steps, t0, t1):
    """Jet columns of transport 2: y_i^p(t) = y_i^p(t0) + int H_ij^p(x, y) dx^j,
    by Simpson's rule on the even rows, with y and x taken along the run."""
    table = read_csv(text, columns)
    m, n = len(curve), len(H)
    t = table[:, 0]
    env = {f"y{p + 1}": table[:, 1 + p] for p in range(n)}
    env.update({f"x{j + 1}": curve[j]({"t": t}).real for j in range(m)})
    speed = [c.grad({"t": t}, "t") for c in curve]
    rate = np.einsum("pijk,jk->pik", values(H, env), np.array(speed))
    h = (t1 - t0) / steps
    pieces = h / 3 * (rate[..., 0:-1:2] + 4 * rate[..., 1::2] + rate[..., 2::2])
    jets = table[:, 1 + n :].T.reshape(n, m, -1)
    want = jets[..., :1] + np.concatenate((np.zeros((n, m, 1)), np.cumsum(pieces, -1)), -1)
    close(jets[..., ::2], want, "jet columns", rtol=rk4_tol(steps, t1 - t0))


def check_holonomy(text, n, steps, tol):
    """A flat connection has trivial holonomy around a contractible loop."""
    data = json.loads(text)
    M = np.array(data["matrix"], dtype=np.float64)
    expect(M.shape == (n, n), f"matrix is not {n}x{n}")
    expect(data["steps"] == steps, "steps field")
    close(M, np.eye(n), "holonomy", rtol=tol)
    close(data["defect"], np.abs(M - np.eye(n)).max(), "defect", rtol=1e-12)


# --- corruption ------------------------------------------------------------

def _corrupt_first_expr(node):
    if isinstance(node, str):
        return f"({node})*1.001 + 1", True
    if isinstance(node, list):
        for k, child in enumerate(node):
            new, done = _corrupt_first_expr(child)
            if done:
                return node[:k] + [new] + node[k + 1 :], True
    if isinstance(node, dict):
        for key in sorted(node):
            new, done = _corrupt_first_expr(node[key])
            if done:
                return {**node, key: new}, True
    return node, False


def corrupt_json(text, key):
    """Perturb the first expression under ``key``."""
    data = json.loads(text)
    data[key], _ = _corrupt_first_expr(data[key])
    return json.dumps(data, indent=2) + "\n"


def corrupt_numbers(text, key):
    """Perturb the numbers under ``key`` by one part in a thousand."""
    data = json.loads(text)
    data[key] = (np.asarray(data[key], dtype=np.float64) * 1.001 + 1e-3).tolist()
    return json.dumps(data, indent=2) + "\n"


def corrupt_csv(text):
    """Perturb the last value of the last row by one part in a thousand."""
    lines = text.rstrip("\n").split("\n")
    cells = lines[-1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-3) + 1e-3)
    lines[-1] = ",".join(cells)
    return "\n".join(lines) + "\n"


_FLIP = {
    "holonomic": "semiholonomic",
    "semiholonomic": "nonholonomic",
    "nonholonomic": "holonomic",
    "yes": "no",
    "no": "yes",
}


def corrupt_words(text):
    """Flip the first verdict of a text output."""
    match = re.search(r"\b(yes|no)$", text, re.M) or re.search(
        r"\b(holonomic|semiholonomic|nonholonomic)\b", text
    )
    return text[: match.start()] + _FLIP[match.group(1)] + text[match.end() :]

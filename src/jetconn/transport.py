"""Parallel transport along base curves via fixed-step RK4.

The fiber ODEs are assembled from connection coefficient grids evaluated
at (x(t), y); curve derivatives come from symbolic differentiation, so the
integrator is the only source of numerical error.  Classical fourth order
Runge-Kutta with a fixed step keeps runs deterministic and makes the
convergence order testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Tuple

import numpy as np

from ._tape import STATUS_MESSAGES, Program, compile_program
from .connections import Connection1, Connection2, is_fiber_linear
from .errors import DimensionMismatchError, TransportError
from .expr import Expr, SymbolUniverse, as_expr, diff, expr_grid, substitute

CURVE_UNIVERSE = SymbolUniverse(0, 0, frozenset({"t"}))


@dataclass(frozen=True)
class Curve:
    """A base curve t -> (x^1(t), ..., x^m(t)) on a closed interval."""

    dim: int
    components: Tuple
    t0: float
    t1: float

    def __post_init__(self):
        names = CURVE_UNIVERSE.extra_symbols
        comps = expr_grid(self.components, (self.dim,), names, "curve components")
        t0, t1 = float(self.t0), float(self.t1)
        if not (np.isfinite(t0) and np.isfinite(t1)):
            raise ValueError("interval endpoints must be finite")
        if not t0 < t1:
            raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)

    def velocity(self) -> Tuple[Expr, ...]:
        return tuple(diff(c, "t") for c in self.components)

    def acceleration(self) -> Tuple[Expr, ...]:
        return tuple(diff(v, "t") for v in self.velocity())

    def reversed(self) -> "Curve":
        """The same trace walked backwards over the same interval."""
        total = as_expr(self.t0 + self.t1) - CURVE_UNIVERSE.var("t")
        comps = tuple(substitute(c, {"t": total}) for c in self.components)
        return Curve(self.dim, comps, self.t0, self.t1)


@dataclass(frozen=True, eq=False)
class TransportResult:
    """Sampled trajectory of a transport integration.

    ``values[k]`` is y at ``times[k]``; ``jet_values`` adds y_i^p for
    second order transport.  The first row is the initial condition,
    bit for bit.
    """

    times: np.ndarray
    values: np.ndarray
    steps: int
    rhs_evaluations: int
    jet_values: np.ndarray = None


# Largest step count of one integration.  Each step keeps one row of
# 8-byte floats, the time plus the state, so 10^6 steps of a state of
# size s hold about 8*(s + 1) MB of trajectory before any output is written.
MAX_STEPS = 10**6

# RK4 steps whose curve nodes one batched program call evaluates.  A
# constant, so memory stays flat however many steps a run asks for.
_CHUNK = 64


def _curve_program(curve: Curve, order: int) -> Program:
    exprs = list(curve.components) + list(curve.velocity())
    if order >= 2:
        exprs += list(curve.acceleration())
    return compile_program(exprs, ("t",))


def _failure(status, t: float) -> str:
    """Why an evaluated row is unusable: its first failed status, else a non-finite value."""
    for code in status:
        if code:
            return f"{STATUS_MESSAGES[code]} at t = {t}"
    return f"non-finite expression value at t = {t}"


def _checked_row(program: Program, point: list, t: float) -> list:
    values, status = program.row(point)
    if any(status) or not all(map(isfinite, values)):
        raise TransportError(_failure(status, t))
    return values


def _check_shapes(universe: SymbolUniverse, curve: Curve, y0, steps):
    if universe.base_dim != curve.dim:
        raise DimensionMismatchError(
            f"curve dimension {curve.dim} does not match base dimension "
            f"{universe.base_dim}"
        )
    if not isinstance(steps, int) or not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be a positive integer, at most {MAX_STEPS}")
    y = np.asarray(y0, dtype=np.float64)
    if y.shape != (universe.fiber_dim,):
        raise DimensionMismatchError(
            f"initial fiber value must have length {universe.fiber_dim}"
        )
    return y


def _curve_chunks(cprog: Program, curve: Curve, steps: int):
    """The curve program at every RK4 node, one batched call per _CHUNK steps.

    Step k has the nodes t = t0 + k*h, t + h/2 and t + h, in the order its
    stages use them; t + h need not equal the next step's t.  Yields
    ``(times, values, failure)`` per chunk, where ``failure`` is None or
    the index and message of the chunk's first unusable node.  Nothing is
    raised here: the integration reports a curve failure only when it
    reaches that node, so an earlier failure of F still comes first.
    """
    t0 = curve.t0
    h = (curve.t1 - t0) / steps
    for first in range(0, steps, _CHUNK):
        times = []
        for k in range(first, min(first + _CHUNK, steps)):
            t = t0 + k * h
            times += (t, t + h / 2, t + h)
        values, status = cprog(np.array(times).reshape(-1, 1))
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            i = int(bad[0])
            yield times, values, (i, _failure(status[i].tolist(), times[i]))
            return
        yield times, values, None


def _node_triples(chunks, m: int):
    """The nodes ``(t, x, rates)`` of each RK4 step, three per step.

    ``x`` is the curve point as a list and ``rates`` its derivatives as an
    array.  From a failed node on, nodes are ``(t, None, message)``.
    """
    for times, values, failure in chunks:
        nodes = list(zip(times, values[:, :m].tolist(), values[:, m:]))
        if failure is not None:
            i, message = failure
            nodes[i:] = [(times[i], None, message)] * (len(nodes) - i)
        for i in range(0, len(nodes), 3):
            yield nodes[i : i + 3]


def _stage_values(program: Program, node, y: np.ndarray) -> np.ndarray:
    """The coefficients of one RK4 stage, at curve node ``node`` and fiber point ``y``."""
    t, x, rates = node
    if x is None:
        raise TransportError(rates)
    return np.array(_checked_row(program, x + y.tolist(), t))


def _integrate_rk4(rhs, chunks, curve: Curve, y0: np.ndarray, steps: int) -> TransportResult:
    """Classical RK4 of dy/dt = rhs(node, y) over the nodes in ``chunks``."""
    h = (curve.t1 - curve.t0) / steps
    times = curve.t0 + np.arange(steps + 1) * h
    values = np.empty((steps + 1, y0.shape[0]))
    values[0] = y0
    y = y0
    # numpy warns when the state overflows.  The warning names a source
    # line and is no diagnostic: a non-finite state or coefficient fails
    # its finite check with one.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (a, b, c) in enumerate(_node_triples(chunks, curve.dim)):
            k1 = rhs(a, y)
            k2 = rhs(b, y + (h / 2) * k1)
            k3 = rhs(b, y + (h / 2) * k2)
            k4 = rhs(c, y + h * k3)
            y_next = y + (h / 6) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not all(map(isfinite, y_next.tolist())):
                # The stage sum k1 + 2*k2 + ... overflows before the state does.
                y_next = y + (h / 6) * k1 + (h / 3) * k2 + (h / 3) * k3 + (h / 6) * k4
                if not all(map(isfinite, y_next.tolist())):
                    raise TransportError(
                        f"non-finite fiber value at t = {float(times[k + 1])}"
                    )
            y = values[k + 1] = y_next
    return TransportResult(times, values, steps, 4 * steps)


def _coefficient_program(conn, order: int) -> Program:
    """F, then for order 2 also H, flattened row-major over base and fiber variables."""
    u = conn.universe
    m, n = u.base_dim, u.fiber_dim
    flat = [conn.F[p][i] for p in range(n) for i in range(m)]
    if order >= 2:
        flat += [conn.H[p][i][j] for p in range(n) for i in range(m) for j in range(m)]
    return compile_program(flat, u.base_names + u.fiber_names)


def _transport1_rhs(gamma: Connection1):
    m, n = gamma.universe.base_dim, gamma.universe.fiber_dim
    fprog = _coefficient_program(gamma, 1)

    def rhs(node, y):
        return _stage_values(fprog, node, y).reshape(n, m) @ node[2]

    return rhs


def transport1(
    gamma: Connection1, curve: Curve, y0, steps: int
) -> TransportResult:
    """Integrate dy^p/dt = sum_i F_i^p(x(t), y) dx^i/dt by RK4."""
    y = _check_shapes(gamma.universe, curve, y0, steps)
    chunks = _curve_chunks(_curve_program(curve, 1), curve, steps)
    return _integrate_rk4(_transport1_rhs(gamma), chunks, curve, y, steps)


def transport2(
    delta: Connection2, curve: Curve, y0, yj0, steps: int
) -> TransportResult:
    """Integrate the coupled system dy = F dx, dy_i = H_ij dx^j by RK4.

    The H coefficients are evaluated at (x(t), y(t)); the jet slots y_i do
    not feed back, so the y component reproduces transport1 exactly on
    matching F grids.  The integrated state is y followed by the rows of
    the jet block.
    """
    u = delta.universe
    y = _check_shapes(u, curve, y0, steps)
    m, n = u.base_dim, u.fiber_dim
    yj = np.asarray(yj0, dtype=np.float64)
    if yj.shape != (n, m):
        raise DimensionMismatchError(f"initial jet value must be {n}x{m}")
    chunks = _curve_chunks(_curve_program(curve, 1), curve, steps)
    prog = _coefficient_program(delta, 2)
    split = n * m

    def rhs(node, state):
        allvals = _stage_values(prog, node, state[:n])
        xdot = node[2]
        fvals = allvals[:split].reshape(n, m)
        hvals = allvals[split:].reshape(n, m, m)
        return np.concatenate((fvals @ xdot, (hvals @ xdot).reshape(-1)))

    flat = _integrate_rk4(rhs, chunks, curve, np.concatenate((y, yj.reshape(-1))), steps)
    return TransportResult(
        flat.times,
        flat.values[:, :n],
        steps,
        flat.rhs_evaluations,
        flat.values[:, n:].reshape(steps + 1, n, m),
    )


def second_order_ode(
    delta: Connection2, curve: Curve, y0, steps: int
) -> TransportResult:
    """Integrate dy^p = H_ij^p dx^i dx^j + F_i^p d2x^i along the curve.

    Needs the curve's symbolic second derivative; everything else matches
    the first order transports.
    """
    u = delta.universe
    y = _check_shapes(u, curve, y0, steps)
    m, n = u.base_dim, u.fiber_dim
    chunks = _curve_chunks(_curve_program(curve, 2), curve, steps)
    prog = _coefficient_program(delta, 2)
    split = n * m

    def rhs(node, state):
        allvals = _stage_values(prog, node, state)
        rates = node[2]
        xdot, xacc = rates[:m], rates[m:]
        fvals = allvals[:split].reshape(n, m)
        hvals = allvals[split:].reshape(n, m, m)
        return (hvals @ xdot) @ xdot + fvals @ xacc

    return _integrate_rk4(rhs, chunks, curve, y, steps)


@dataclass(frozen=True, eq=False)
class HolonomyResult:
    """Holonomy matrix of a loop plus its max-abs distance from identity."""

    matrix: np.ndarray
    defect: float
    steps: int


def loop_holonomy(
    gamma: Connection1, loop: Curve, basis=None, steps: int = 1000
) -> HolonomyResult:
    """Transport a basis around a closed loop and measure the defect.

    Requires closed endpoints (within 1e-9) and a connection linear in the
    fiber variables, so the column-by-column transports assemble a genuine
    linear map.  The default basis is the standard one; then the matrix
    represents the holonomy map itself.
    """
    u = gamma.universe
    m, n = u.base_dim, u.fiber_dim
    cprog = _curve_program(loop, 1)
    start = _checked_row(cprog, [loop.t0], loop.t0)[:m]
    end = _checked_row(cprog, [loop.t1], loop.t1)[:m]
    gap = max(abs(a - b) for a, b in zip(start, end))
    if gap > 1e-9:
        raise TransportError(
            f"curve endpoints differ by {gap:.3e}; not a loop"
        )
    if not is_fiber_linear(gamma):
        raise TransportError(
            "holonomy matrix needs a connection linear in the fiber variables"
        )
    if basis is None:
        basis_arr = np.eye(n)
    else:
        basis_arr = np.asarray(basis, dtype=np.float64)
        if basis_arr.ndim != 2 or basis_arr.shape[0] != n:
            raise DimensionMismatchError(
                f"basis must be an {n}-row matrix of column vectors"
            )
    columns = []
    for j in range(basis_arr.shape[1]):
        y = _check_shapes(u, loop, basis_arr[:, j], steps)
        if j == 0:
            # F and the loop's nodes are the same for every column.
            rhs = _transport1_rhs(gamma)
            chunks = list(_curve_chunks(cprog, loop, steps))
        columns.append(_integrate_rk4(rhs, chunks, loop, y, steps).values[-1])
    matrix = np.column_stack(columns)
    defect = float(np.abs(matrix - np.eye(n, basis_arr.shape[1])).max())
    return HolonomyResult(matrix, defect, steps)

"""Parallel transport along base curves via fixed-step RK4.

The fiber ODEs are assembled from connection coefficient grids evaluated
at (x(t), y); curve derivatives come from symbolic differentiation, so the
integrator is the only source of numerical error.  Classical fourth order
Runge-Kutta with a fixed step keeps runs deterministic and makes the
convergence order testable.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from math import isfinite
from typing import Tuple

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
        if not (isfinite(t0) and isfinite(t1)):
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

    ``values[k]`` is the tuple y at ``times[k]``; ``jet_values[k][p][i]``
    adds y_i^p for second order transport.  Every field is a tuple of
    Python floats (nested per step), and the first row is the initial
    condition, bit for bit.
    """

    times: Tuple[float, ...]
    values: Tuple[Tuple[float, ...], ...]
    steps: int
    rhs_evaluations: int
    jet_values: Tuple[Tuple[Tuple[float, ...], ...], ...] = None


# Largest step count of one integration.  A transport keeps each step's
# time and a tuple of the state, about 80 + 32*s bytes as Python objects,
# so 10^6 steps of a state of size s hold about (80 + 32*s) MB of
# trajectory before any output is written; a holonomy keeps only the last
# state of each column.
MAX_STEPS = 10**6

# RK4 steps whose curve nodes one program call evaluates.  A constant, so
# memory stays flat however many steps a run asks for.
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


def _checked_row(program: Program, point, t: float) -> list:
    values, status = program.rows((point,))
    if any(status) or not all(map(isfinite, values)):
        raise TransportError(_failure(status, t))
    return values


def _real_rows(values, rows: int, cols, message: str) -> tuple:
    """``values`` as ``rows`` tuples of ``cols`` floats, else DimensionMismatchError.

    ``cols`` None takes the length of the first row, which must be at least 1.
    Every entry must be a real number.
    """
    try:
        grid = [tuple(row) for row in values]
    except TypeError:
        raise DimensionMismatchError(message) from None
    if cols is None:
        cols = max(1, len(grid[0])) if grid else 1
    if len(grid) != rows or any(
        len(row) != cols or not all(isinstance(v, numbers.Real) for v in row) for row in grid
    ):
        raise DimensionMismatchError(message)
    return tuple(tuple(map(float, row)) for row in grid)


def _check_shapes(universe: SymbolUniverse, curve: Curve, y0, steps) -> tuple:
    if universe.base_dim != curve.dim:
        raise DimensionMismatchError(
            f"curve dimension {curve.dim} does not match base dimension "
            f"{universe.base_dim}"
        )
    if not isinstance(steps, int) or not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be a positive integer, at most {MAX_STEPS}")
    n = universe.fiber_dim
    return _real_rows((y0,), 1, n, f"initial fiber value must have length {n}")[0]


def _node_triples(cprog: Program, curve: Curve, steps: int):
    """The nodes ``(t, x, rates)`` of each RK4 step, three per step.

    Step k has the nodes t = t0 + k*h, t + h/2 and t + h, in the order its
    stages use them; t + h need not equal the next step's t.  The curve
    program evaluates the nodes of _CHUNK steps per call.  ``x`` is the
    curve point and ``rates`` its derivatives, both lists.  From the first
    unusable node of a chunk on, nodes are ``(t, None, message)``.  Nothing
    is raised here: the integration reports a curve failure only when it
    reaches that node, so an earlier failure of F still comes first.
    """
    t0, m = curve.t0, curve.dim
    width = cprog.n_exprs
    h = (curve.t1 - t0) / steps
    for first in range(0, steps, _CHUNK):
        times = []
        for k in range(first, min(first + _CHUNK, steps)):
            t = t0 + k * h
            times += (t, t + h / 2, t + h)
        values, status = cprog.rows([(t,) for t in times])
        nodes = []
        for i, t in enumerate(times):
            row = values[i * width : (i + 1) * width]
            if not all(map(isfinite, row)):
                message = _failure(status[i * width : (i + 1) * width], t)
                nodes += [(t, None, message)] * (len(times) - i)
                break
            nodes.append((t, row[:m], row[m:]))
        for i in range(0, len(nodes), 3):
            yield nodes[i : i + 3]


def _stage_values(program: Program, node, y) -> list:
    """The coefficients of one RK4 stage, at curve node ``node`` and fiber point ``y``."""
    t, x, rates = node
    if x is None:
        raise TransportError(rates)
    return _checked_row(program, (*x, *y), t)


def _matvec(flat, vec) -> list:
    """The row-major matrix ``flat`` times ``vec``, one left-fold dot per row.

    Each dot is a0*b0 + a1*b1 + ... summed left to right, one IEEE operation
    at a time, so the result does not depend on a BLAS kernel or on
    Python's compensated ``sum``.
    """
    m = len(vec)
    out = []
    for first in range(0, len(flat), m):
        acc = flat[first] * vec[0]
        for i in range(1, m):
            acc += flat[first + i] * vec[i]
        out.append(acc)
    return out


def _times(curve: Curve, steps: int) -> tuple:
    """The times of a trajectory's states, t0 + k*h for k = 0, ..., steps."""
    h = (curve.t1 - curve.t0) / steps
    return tuple(curve.t0 + k * h for k in range(steps + 1))


def _integrate_rk4(rhs, nodes, curve: Curve, y0: tuple, steps: int):
    """Classical RK4 of dy/dt = rhs(node, y) over the node triples ``nodes``.

    Yields the state after each step, a tuple of floats; the caller keeps
    what it needs of the trajectory.
    """
    t0 = curve.t0
    h = (curve.t1 - t0) / steps
    h2, h3, h6 = h / 2, h / 3, h / 6
    y = y0
    # The state is updated slot by slot, each slot in the order written:
    # y + (h/2)*k1, ..., then y + (h/6)*(k1 + 2*k2 + 2*k3 + k4).
    for k, (start, mid, end) in enumerate(nodes, 1):
        k1 = rhs(start, y)
        k2 = rhs(mid, [v + h2 * d for v, d in zip(y, k1)])
        k3 = rhs(mid, [v + h2 * d for v, d in zip(y, k2)])
        k4 = rhs(end, [v + h * d for v, d in zip(y, k3)])
        slots = list(zip(y, k1, k2, k3, k4))
        y_next = tuple([v + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4) for v, d1, d2, d3, d4 in slots])
        if not all(map(isfinite, y_next)):
            # The stage sum k1 + 2*k2 + ... overflows before the state does.
            y_next = tuple(
                [v + h6 * d1 + h3 * d2 + h3 * d3 + h6 * d4 for v, d1, d2, d3, d4 in slots]
            )
            if not all(map(isfinite, y_next)):
                raise TransportError(f"non-finite fiber value at t = {t0 + k * h}")
        yield y_next
        y = y_next


def _trajectory(rhs, nodes, curve: Curve, y0: tuple, steps: int) -> TransportResult:
    """:func:`_integrate_rk4` as a result that holds every state, ``y0`` first."""
    states = (y0, *_integrate_rk4(rhs, nodes, curve, y0, steps))
    return TransportResult(_times(curve, steps), states, steps, 4 * steps)


def _coefficient_program(conn, order: int) -> Program:
    """F, then for order 2 also H, flattened row-major over base and fiber variables."""
    u = conn.universe
    m, n = u.base_dim, u.fiber_dim
    flat = [conn.F[p][i] for p in range(n) for i in range(m)]
    if order >= 2:
        flat += [conn.H[p][i][j] for p in range(n) for i in range(m) for j in range(m)]
    return compile_program(flat, u.base_names + u.fiber_names)


def _transport1_rhs(gamma: Connection1):
    fprog = _coefficient_program(gamma, 1)

    def rhs(node, y):
        return _matvec(_stage_values(fprog, node, y), node[2])

    return rhs


def transport1(
    gamma: Connection1, curve: Curve, y0, steps: int
) -> TransportResult:
    """Integrate dy^p/dt = sum_i F_i^p(x(t), y) dx^i/dt by RK4."""
    y = _check_shapes(gamma.universe, curve, y0, steps)
    nodes = _node_triples(_curve_program(curve, 1), curve, steps)
    return _trajectory(_transport1_rhs(gamma), nodes, curve, y, steps)


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
    yj = _real_rows(yj0, n, m, f"initial jet value must be {n}x{m}")
    nodes = _node_triples(_curve_program(curve, 1), curve, steps)
    prog = _coefficient_program(delta, 2)

    def rhs(node, state):
        # F (n rows) and H (n*m rows) are both rows of m against x', so
        # one product gives F x' followed by H x' row-major.
        return _matvec(_stage_values(prog, node, state[:n]), node[2])

    start = y + tuple(v for row in yj for v in row)
    values, jet_values = [], []
    for state in itertools.chain((start,), _integrate_rk4(rhs, nodes, curve, start, steps)):
        values.append(state[:n])
        jet_values.append(tuple(state[n + p * m : n + (p + 1) * m] for p in range(n)))
    return TransportResult(
        _times(curve, steps), tuple(values), steps, 4 * steps, tuple(jet_values)
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
    nodes = _node_triples(_curve_program(curve, 2), curve, steps)
    prog = _coefficient_program(delta, 2)
    split = n * m

    def rhs(node, state):
        allvals = _stage_values(prog, node, state)
        rates = node[2]
        xdot, xacc = rates[:m], rates[m:]
        quadratic = _matvec(_matvec(allvals[split:], xdot), xdot)
        return [a + b for a, b in zip(quadratic, _matvec(allvals[:split], xacc))]

    return _trajectory(rhs, nodes, curve, y, steps)


@dataclass(frozen=True, eq=False)
class HolonomyResult:
    """Holonomy matrix of a loop plus its max-abs distance from identity.

    ``matrix`` is a tuple of rows of floats, column j the transport of basis
    column j.
    """

    matrix: Tuple[Tuple[float, ...], ...]
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
    start = _checked_row(cprog, (loop.t0,), loop.t0)[:m]
    end = _checked_row(cprog, (loop.t1,), loop.t1)[:m]
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
        basis = [[1.0 if p == j else 0.0 for j in range(n)] for p in range(n)]
    rows = _real_rows(basis, n, None, f"basis must be an {n}-row matrix of column vectors")
    columns = []
    for j, column in enumerate(zip(*rows)):
        y = _check_shapes(u, loop, column, steps)
        if j == 0:
            rhs = _transport1_rhs(gamma)  # the same F for every column
        nodes = _node_triples(cprog, loop, steps)
        for y in _integrate_rk4(rhs, nodes, loop, y, steps):
            pass  # only the state at the end of the loop is kept
        columns.append(y)
    matrix = tuple(zip(*columns))
    defect = max(
        abs(v - (1.0 if p == j else 0.0))
        for p, row in enumerate(matrix)
        for j, v in enumerate(row)
    )
    return HolonomyResult(matrix, defect, steps)

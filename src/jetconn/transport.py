"""Parallel transport along base curves via fixed-step RK4.

The fiber ODEs are assembled from connection coefficient grids evaluated
at (x(t), y); curve derivatives come from symbolic differentiation, so the
integrator is the only source of numerical error.  Classical fourth order
Runge-Kutta with a fixed step keeps runs deterministic and makes the
convergence order testable.

Each integration runs as one generated function
(:func:`jetconn._tape.compile_integrator`): the whole step loop, with the
curve and the coefficients evaluated inline at each node and stage, and
every dot product a left fold.  It returns what failed, if anything, and
the message is formed here, so the first failure in time order is the one
reported, whether of the curve, the coefficients or the state.
"""

from __future__ import annotations

import numbers
from math import isfinite
from typing import Tuple

from ._tape import STATUS_MESSAGES, Program, compile_integrator, compile_program
from .connections import Connection1, Connection2, is_fiber_linear
from .errors import DimensionMismatchError, TransportError
from .expr import Expr, SymbolUniverse, Value, as_expr, diff, expr_grid, substitute

CURVE_UNIVERSE = SymbolUniverse(0, 0, frozenset({"t"}))


class Curve(Value):
    """A base curve t -> (x^1(t), ..., x^m(t)) on a closed interval."""

    __slots__ = ("dim", "components", "t0", "t1")

    def __init__(self, dim: int, components, t0: float, t1: float):
        names = CURVE_UNIVERSE.extra_symbols
        comps = expr_grid(components, (dim,), names, "curve components")
        t0, t1 = float(t0), float(t1)
        if not (isfinite(t0) and isfinite(t1)):
            raise ValueError("interval endpoints must be finite")
        if not t0 < t1:
            raise ValueError(f"need t0 < t1, got [{t0}, {t1}]")
        super().__init__(dim, comps, t0, t1)

    def velocity(self) -> Tuple[Expr, ...]:
        return tuple(diff(c, "t") for c in self.components)

    def acceleration(self) -> Tuple[Expr, ...]:
        return tuple(diff(v, "t") for v in self.velocity())

    def reversed(self) -> "Curve":
        """The same trace walked backwards over the same interval."""
        total = as_expr(self.t0 + self.t1) - CURVE_UNIVERSE.var("t")
        comps = tuple(substitute(c, {"t": total}) for c in self.components)
        return Curve(self.dim, comps, self.t0, self.t1)


class TransportResult(Value):
    """Sampled trajectory of a transport integration.

    ``values[k]`` is the tuple y at ``times[k]``; ``jet_values[k][p][i]``
    adds y_i^p for second order transport.  Every field is a tuple of
    Python floats (nested per step), and the first row is the initial
    condition, bit for bit.  Results compare by identity.
    """

    __slots__ = ("times", "values", "steps", "rhs_evaluations", "jet_values")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, times, values, steps: int, rhs_evaluations: int, jet_values=None):
        super().__init__(times, values, steps, rhs_evaluations, jet_values)


# Largest step count of one integration.  A transport keeps each step's
# time and a tuple of the state, about 80 + 32*s bytes as Python objects,
# so 10^6 steps of a state of size s hold about (80 + 32*s) MB of
# trajectory before any output is written; a holonomy keeps only the last
# state of each column.
MAX_STEPS = 10**6


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


def _check_shapes(universe: SymbolUniverse, curve: Curve, steps, *values) -> list:
    """Check the curve's dimension and ``steps``, then return each initial fiber value."""
    if universe.base_dim != curve.dim:
        raise DimensionMismatchError(
            f"curve dimension {curve.dim} does not match base dimension "
            f"{universe.base_dim}"
        )
    if not isinstance(steps, int) or not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be a positive integer, at most {MAX_STEPS}")
    n = universe.fiber_dim
    message = f"initial fiber value must have length {n}"
    return [_real_rows((y0,), 1, n, message)[0] for y0 in values]


def _times(curve: Curve, steps: int) -> tuple:
    """The times of a trajectory's states, t0 + k*h for k = 0, ..., steps."""
    h = (curve.t1 - curve.t0) / steps
    return tuple(curve.t0 + k * h for k in range(steps + 1))


def _integrator(conn, curve: Curve, rows, order=1, **options):
    """The generated RK4 loop of ``conn``'s coefficient ``rows`` along ``curve``."""
    u = conn.universe
    exprs = [*curve.components, *curve.velocity()]
    if order == 2:
        exprs += curve.acceleration()
    return compile_integrator(rows, u.base_names, u.fiber_names, exprs, order, **options)


def _jet_rows(delta: Connection2) -> list:
    """The rows of F, then the m rows of H^p for each p."""
    return [*delta.F, *(row for grid in delta.H for row in grid)]


def _integrate(run, curve: Curve, steps: int, state: tuple, *put) -> tuple:
    """Run a generated integrator from ``state`` to its last state; raise what failed."""
    h = (curve.t1 - curve.t0) / steps
    failure, state = run(curve.t0, h, steps, state, *put)
    if failure is not None:
        t, status = failure
        if status is None:
            raise TransportError(f"non-finite fiber value at t = {t}")
        raise TransportError(_failure(status, t))
    return state


def transport1(
    gamma: Connection1, curve: Curve, y0, steps: int
) -> TransportResult:
    """Integrate dy^p/dt = sum_i F_i^p(x(t), y) dx^i/dt by RK4."""
    (y,) = _check_shapes(gamma.universe, curve, steps, y0)
    states = [y]
    _integrate(_integrator(gamma, curve, gamma.F), curve, steps, y, states.append)
    return TransportResult(_times(curve, steps), tuple(states), steps, 4 * steps)


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
    (y,) = _check_shapes(u, curve, steps, y0)
    m, n = u.base_dim, u.fiber_dim
    yj = _real_rows(yj0, n, m, f"initial jet value must be {n}x{m}")
    values, jet_values = [y], [yj]
    run = _integrator(delta, curve, _jet_rows(delta), jets=True)
    start = y + tuple(v for row in yj for v in row)
    _integrate(run, curve, steps, start, values.append, jet_values.append)
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
    (y,) = _check_shapes(delta.universe, curve, steps, y0)
    states = [y]
    run = _integrator(delta, curve, _jet_rows(delta), order=2)
    _integrate(run, curve, steps, y, states.append)
    return TransportResult(_times(curve, steps), tuple(states), steps, 4 * steps)


class HolonomyResult(Value):
    """Holonomy matrix of a loop plus its max-abs distance from identity.

    ``matrix`` is a tuple of rows of floats, column j the transport of basis
    column j.  Results compare by identity.
    """

    __slots__ = ("matrix", "defect", "steps")
    __eq__, __hash__ = object.__eq__, object.__hash__


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
    cprog = compile_program([*loop.components, *loop.velocity()], ("t",))
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
    columns = _check_shapes(u, loop, steps, *zip(*rows))
    # One walk of the curve for every column, the columns side by side.
    run = _integrator(gamma, loop, gamma.F, lanes=len(columns), keep=False)
    try:
        state = _integrate(run, loop, steps, sum(columns, ()))
    except TransportError:
        # The columns fail independently: report the failure of the first
        # one that fails, as when each was transported in turn.
        single = _integrator(gamma, loop, gamma.F, keep=False)
        for column in columns:
            _integrate(single, loop, steps, column)
        raise
    matrix = tuple(zip(*(state[j * n : (j + 1) * n] for j in range(len(columns)))))
    # On a rank-0 bundle the matrix is empty, the identity of R^0.
    defect = max(
        (abs(v - (1.0 if p == j else 0.0)) for p, row in enumerate(matrix)
         for j, v in enumerate(row)),
        default=0.0,
    )
    return HolonomyResult(matrix, defect, steps)

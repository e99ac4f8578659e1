"""Compilation of expression trees to straight-line Python functions.

:func:`_statements` walks a tree in post-order with an explicit stack and
writes one statement per computing node: a variable or constant is a
local read by name (``x0``, ``c0``, ...), so it emits no statement; a
computed operand is a local named after its depth on the walk's operand
stack (``s0``, ``s1``, ...), and the root of expression ``e`` writes
``v{e}``.  Two generators ``exec`` such statements once, as one function
each:

- :func:`compile_program`, one function per program, ``run(rows)``, with
  the statements of its expressions in a loop over rows of variables.  It
  serves every evaluation through ``Program.rows``.
- :func:`compile_integrator`, one function per connection, curve and
  variant of transport: the whole fixed-step RK4 loop, with the curve's
  statements at every node and the coefficients' at every stage, bound to
  the stage's locals, and each dot product written out.

No input text reaches the generated source: it holds only slot indices,
integer exponents (range-checked here), the generators' own literals (0.0,
2.0) and the fixed helper names below.
Every constant, inf from a constant beyond double range included, is read
from the constant list.

Numeric contract: every operation is one IEEE double operation or one libm
call through :mod:`math`, so results are bit-for-bit reproducible on a given
platform (and may differ in the last bit where another platform's libm
does).  The wrappers below return what C returns where the math module
raises instead of returning inf or nan.  Guarded failures (division by 0.0,
a negative power of 0.0, ln of a value <= 0) never raise.  In a program
one leaves NaN and its status code in its expression's slot and moves on
to the next expression; an integrator returns at the first of them, with
its status (see :func:`compile_integrator`).
"""

from __future__ import annotations

import math
from typing import Sequence

from . import kernel
from .errors import EvalError
from .expr import Add, Const, Div, Expr, Fn, Mul, Neg, Pow, Sub, Var

STATUS_DIV_BY_ZERO = 1
STATUS_LN_DOMAIN = 2

STATUS_MESSAGES = {
    STATUS_DIV_BY_ZERO: "division by zero",
    STATUS_LN_DOMAIN: "ln of a non-positive argument",
}

_INF = math.inf
_NAN = math.nan


def _sin(x):
    try:
        return math.sin(x)
    except ValueError:  # sin(inf) in C yields nan quietly
        return _NAN


def _cos(x):
    try:
        return math.cos(x)
    except ValueError:
        return _NAN


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:  # C exp overflows to inf
        return _INF


def _pow(x, n):
    try:
        return math.pow(x, n)
    except OverflowError:
        # C pow overflows to +-inf; the sign follows the base and parity.
        if x < 0 and n % 2 != 0:
            return -_INF
        return _INF


class Program:
    """Compiled evaluator for a fixed tuple of expressions.

    ``run`` is the generated function.  ``code`` has one entry per compiled
    node; like :meth:`__call__`, it is kept only because the benchmark's
    tracer reads it (its length, as the ops a row runs).
    """

    __slots__ = ("var_names", "consts", "n_exprs", "code", "run")

    def __init__(self, var_names, consts, n_exprs, code, run):
        self.var_names = var_names
        self.consts = consts
        self.n_exprs = n_exprs
        self.code = code
        self.run = run

    def __call__(self, points):
        """Evaluate all expressions at each row of ``points``, a 2-d array (1-d: one row).

        Returns ``(values, status)`` as numpy arrays of shape (npoints,
        nexprs).  A nonzero status marks the matching value slot as NaN;
        evaluation continues with the next expression.  Kept, importing
        numpy on first use, only because the benchmark's tracer wraps it:
        jetconn itself evaluates through :meth:`rows`.
        """
        import numpy as np

        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != len(self.var_names):
            raise EvalError(
                f"program expects {len(self.var_names)} variables, got {pts.shape[1]}"
            )
        return kernel.active()(self.run, pts, self.n_exprs)

    def rows(self, points):
        """Evaluate all expressions at each point of ``points``, a sequence of float rows.

        Returns ``(values, status)`` as two flat Python lists, one slot per
        point and expression, point after point, equal slot for slot to
        ``self(points)`` flattened.
        """
        width = len(self.var_names)
        for point in points:
            if len(point) != width:
                raise EvalError(f"program expects {width} variables, got {len(point)}")
        return self.run(points)


_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_CALLS = {"sin": "_sin", "cos": "_cos", "exp": "_exp", "ln": "_log"}


def _tuple(items) -> str:
    return "(" + "".join(item + ", " for item in items) + ")"


def _statements(root: Expr, e: int, leaf, fail) -> tuple:
    """The statements leaving expression ``e`` in ``v{e}``, and its node count.

    ``leaf`` names the local of a constant or variable, and ``fail(code)``
    is the statement a failed guard runs.  Guards run in post-order, so
    the left operand's first.
    """
    lines = []

    def guard(failed, code):
        lines.append(f"if {failed}: {fail(code)}")

    # The operands as the generated code names them: a constant or variable
    # stays its own local (c3, x0) and costs no statement; a computed value
    # lives in the slot of its stack depth (s0, s1, ...).
    stack = []
    nodes = 0
    todo = [(root, False)]
    while todo:
        node, ready = todo.pop()
        if not isinstance(node, Expr):
            raise TypeError(f"not an expression: {node!r}")
        operands = node.children()
        if operands and not ready:
            todo.append((node, True))
            todo.extend((child, False) for child in reversed(operands))
            continue
        nodes += 1
        if isinstance(node, (Const, Var)):
            stack.append(leaf(node))
            if todo:
                continue
            value = stack.pop()  # the whole expression is one leaf
        elif isinstance(node, Pow):
            n = int(node.exponent)
            if not -(2**31) <= n < 2**31:
                raise EvalError("power exponent out of range")
            if n < 0:
                guard(f"{stack[-1]} == 0.0", STATUS_DIV_BY_ZERO)
            value = f"_pow({stack.pop()}, {n})"
        elif isinstance(node, Fn):
            if node.name == "ln":
                guard(f"{stack[-1]} <= 0.0", STATUS_LN_DOMAIN)
            value = f"{_CALLS[node.name]}({stack.pop()})"
        elif isinstance(node, Neg):
            value = f"-{stack.pop()}"
        else:
            right = stack.pop()
            if isinstance(node, Div):
                guard(f"{right} == 0.0", STATUS_DIV_BY_ZERO)
            value = f"{stack.pop()} {_BINARY[type(node)]} {right}"
        target = f"s{len(stack)}" if todo else f"v{e}"
        stack.append(target)
        lines.append(f"{target} = {value}")
    return lines, nodes


def _namer(const_slot: dict, names: dict):
    """The ``leaf`` of :func:`_statements` for one map of variable locals.

    A constant is ``c{k}``, its slot in ``const_slot``, which is keyed by
    value and sign (so 0.0 and -0.0 stay apart) and filled in order of
    first use; a variable is its local in ``names``.
    """

    def leaf(e: Expr) -> str:
        if isinstance(e, Const):
            try:
                v = float(e.value)
            except OverflowError:  # outside double range: 10^400 evaluates to inf
                v = math.inf if e.value > 0 else -math.inf
            return f"c{const_slot.setdefault((v, math.copysign(1.0, v)), len(const_slot))}"
        if e.name not in names:
            raise EvalError(f"no value bound for variable {e.name!r}")
        return names[e.name]

    return leaf


def _function(lines, const_slot: dict, name: str):
    """``exec`` the generated function ``run`` from its source lines."""
    namespace = {
        "_consts": [v for v, _ in const_slot],
        "_isfinite": math.isfinite,
        "_nan": _NAN,
        "_pow": _pow,
        "_sin": _sin,
        "_cos": _cos,
        "_exp": _exp,
        "_log": math.log,
    }
    exec(compile("\n".join(lines), name, "exec"), namespace)
    return namespace["run"]


def _locals(names) -> str:
    return ", ".join(names)


def compile_program(exprs: Sequence[Expr], var_names: Sequence[str]) -> Program:
    """Compile expressions over the given variables to one generated function.

    Every free variable of every expression must appear in ``var_names``.
    The tree is walked with an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit.  The function, ``run(rows) ->
    (values, status)``, takes a sequence of rows of floats and returns two
    flat lists with one slot per row and expression, row after row.
    """
    var_names = tuple(var_names)
    const_slot = {}
    leaf = _namer(const_slot, {name: f"x{i}" for i, name in enumerate(var_names)})
    row, status, nodes = [], [], 0
    for e, root in enumerate(exprs):
        # A guarded expression runs in a one-pass loop, which a failed
        # guard leaves, with NaN and its status, for the next expression.
        body, count = _statements(root, e, leaf, lambda code: f"v{e} = _nan; t{e} = {code}; break")
        nodes += count
        if any(line.startswith("if ") for line in body):
            row += [f"t{e} = 0", "while True:", *("    " + line for line in body), "    break"]
            status.append(f"t{e}")
        else:
            row += body
            status.append("0")
    row.append(f"put_values({_tuple(f'v{e}' for e in range(len(status)))})")
    row.append(f"put_status({_tuple(status)})")
    run = _function(
        [
            "def run(rows):",
            f"    [{_locals(f'c{i}' for i in range(len(const_slot)))}] = _consts",
            "    values = []",
            "    status = []",
            "    put_values = values.extend",
            "    put_status = status.extend",
            f"    for [{_locals(f'x{i}' for i in range(len(var_names)))}] in rows:",
            *("        " + line for line in row),
            "    return values, status",
        ],
        const_slot,
        "<jetconn program>",
    )
    return Program(var_names, [v for v, _ in const_slot], len(status), range(nodes), run)


# Terms of one generated sum.  A sum is a nested expression to Python's
# compiler, which gives up at a few thousand terms; longer sums continue in
# the next statement, which rounds the same.
_FOLD = 64


def _fold(target: str, terms) -> list:
    """Statements leaving ``terms`` summed left to right in ``target`` (0.0 if none)."""
    terms = list(terms) or ["0.0"]
    lines = [f"{target} = " + " + ".join(terms[:_FOLD])]
    for i in range(_FOLD, len(terms), _FOLD):
        lines.append(f"{target} = {target} + " + " + ".join(terms[i : i + _FOLD]))
    return lines


def _unless_finite(fast, exact, failure) -> list:
    """Lines running ``failure`` unless every value named in ``exact`` is finite.

    ``fast`` names values that are all finite whenever those of ``exact``
    are, and summing them costs one add each.  Only a sum that is not
    finite (an inf or nan among them, or an overflow of finite values) has
    ``exact`` checked value by value.
    """
    if not exact:
        return []
    return [
        *_fold("f", fast),
        "if f - f:",
        f"    if not all(map(_isfinite, {_tuple(exact)})):",
        *("        " + line for line in failure),
    ]


def compile_integrator(rows, base_names, fiber_names, curve, order=1, keep=True, jets=False):
    """Generate one function that runs a whole fixed-step RK4 integration along a curve.

    ``curve`` holds the expressions in t of the curve's m components, its m
    velocities and, for ``order`` 2, its m accelerations.  ``rows`` are rows
    of m expressions over ``base_names``, bound to the curve point, and
    ``fiber_names``, bound to the first n slots of the state:

    - ``order`` 1: state slot r moves at row r dotted with the velocity
      (F; F and then the rows of H for the jet slots of a prolongation);
    - ``order`` 2: n rows of F, then the m rows of H^p for each p; slot p
      moves at ``(H^p x') x' + F^p x''``.

    The function is ``run(start, h, steps, state, put, put_jet) ->
    (failure, state)``.  Step k takes its nodes at t = start + k*h, t + h/2
    and t + h, and evaluates the curve there inline, once per node; the
    stages take their coefficients at those nodes and update the state
    ``v + h/6*(d1 + 2.0*d2 + 2.0*d3 + d4)``, or, where that is not finite,
    ``v + h/6*d1 + h/3*d2 + h/3*d3 + h/6*d4``.  With ``keep``, each step
    passes its state to ``put``; with ``jets`` too, only its first n slots,
    and the rest to ``put_jet`` as n rows of m jet slots.  Every dot is a
    left fold, one IEEE operation at a time.  ``failure`` is None, and
    ``state`` the last state, unless something fails.  Then it is ``(t,
    status)``, with t the node time: the status of the first failed guard
    of the curve or of the coefficients there, or 0 where their values are
    computed but not all finite.  Or it is ``(t, None)``, with t the time
    after the step whose state is not finite.
    """
    m, n = len(base_names), len(fiber_names)
    width = n if order == 2 else len(rows)
    const_slot = {}

    def fail(code):
        return f"return (tn, {code}), None"

    def block(exprs, first, leaf):
        return [line for e, root in enumerate(exprs, first)
                for line in _statements(root, e, leaf, fail)[0]]

    curve_lines = block(curve, 0, _namer(const_slot, {"t": "tn"}))
    point = [f"v{i}" for i in range(len(curve))]
    velocity, acceleration = point[m : 2 * m], point[2 * m :]
    names = {name: point[i] for i, name in enumerate(base_names)}
    names.update((name, f"x{q}") for q, name in enumerate(fiber_names))
    flat = [e for row in rows for e in row]
    coeff_lines = block(flat, len(curve), _namer(const_slot, names))
    values = [f"v{len(curve) + e}" for e in range(len(flat))]

    def dot(target, first, vec):
        return _fold(target, (f"{values[first + i]} * {vec[i]}" for i in range(m)))

    def node(time):
        return [f"tn = {time}", *curve_lines, *_unless_finite(point, point, [fail(0)])]

    def stage(s, rate):
        d = [f"d{s}_{r}" for r in range(width)]
        lines = [f"x{q} = y{q}" + (f" + {rate} * d{s - 1}_{q}" if rate else "") for q in range(n)]
        lines += coeff_lines
        for r in range(width):
            if order == 1:
                lines += dot(d[r], r * m, velocity)
                continue
            # (H^r x') x': g_i = H^r_i x' first, then g x'; then + F^r x''.
            for i in range(m):
                lines += dot(f"g{i}", n * m + (r * m + i) * m, velocity)
            lines += _fold("q", (f"g{i} * {velocity[i]}" for i in range(m)))
            lines += dot(d[r], r * m, acceleration)
            lines.append(f"{d[r]} = q + {d[r]}")
        return lines + _unless_finite(d, values, [fail(0)])

    slots = range(width)
    z = [f"z{i}" for i in slots]
    # The stage sum k1 + 2*k2 + ... can overflow before the state does.
    fallback = [
        *(f"z{i} = y{i} + h6 * d1_{i} + h3 * d2_{i} + h3 * d3_{i} + h6 * d4_{i}" for i in slots),
        f"if not all(map(_isfinite, {_tuple(z)})):",
        "    return (start + (k + 1) * h, None), None",
    ]
    body = [
        *node("ta = start + k * h"),
        *stage(1, None),
        *node("ta + h2"),
        *stage(2, "h2"),
        *stage(3, "h2"),
        *node("ta + h"),
        *stage(4, "h"),
        *(f"z{i} = y{i} + h6 * (d1_{i} + 2.0 * d2_{i} + 2.0 * d3_{i} + d4_{i})" for i in slots),
        *_unless_finite(z, z, fallback),
    ]
    if keep:
        body.append(f"put({_tuple(f'z{q}' for q in range(n if jets else width))})")
        if jets:
            jet = (_tuple(f"z{n + p * m + i}" for i in range(m)) for p in range(n))
            body.append(f"put_jet({_tuple(jet)})")
    if slots:
        body.append(f"{_locals(f'y{i}' for i in slots)}, = {_locals(f'z{i}' for i in slots)},")
    return _function(
        [
            "def run(start, h, steps, state, put=None, put_jet=None):",
            f"    [{_locals(f'c{i}' for i in range(len(const_slot)))}] = _consts",
            "    h2 = h / 2",
            "    h3 = h / 3",
            "    h6 = h / 6",
            f"    [{_locals(f'y{i}' for i in slots)}] = state",
            "    for k in range(steps):",
            *("        " + line for line in body),
            f"    return None, {_tuple(f'y{i}' for i in slots)}",
        ],
        const_slot,
        "<jetconn integrator>",
    )

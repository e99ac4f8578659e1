"""Compilation of expression trees to one straight-line Python function.

:func:`compile_program` walks each tree in post-order with an explicit
stack and writes, as it goes, the source of one flat Python function,
``run(rows)``, which it ``exec``s once.  The function has one statement per
computing node, in post-order: every variable is a local unpacked from the
row (``x0``, ...), every constant a local unpacked from the program's
constant list (``c0``, ...), and a node reads them by name, so a constant
or variable emits no statement.  A computed operand is a local named after
its depth on the walk's operand stack (``s0``, ``s1``, ...), and the root of
expression ``e`` writes ``v{e}``.  ``run`` serves every evaluation through
``Program.rows``, on lists of rows.

No input text reaches the generated source: it holds only slot indices,
integer exponents (range-checked here) and the fixed helper names below.
Every constant, inf from a constant beyond double range included, is read
from the constant list.

Numeric contract: every operation is one IEEE double operation or one libm
call through :mod:`math`, so results are bit-for-bit reproducible on a given
platform (and may differ in the last bit where another platform's libm
does).  The wrappers below return what C returns where the math module
raises instead of returning inf or nan.  Guarded failures (division by 0.0,
a negative power of 0.0, ln of a value <= 0) leave NaN and a status code in
their slot and move on to the next expression; they never raise.
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


def _statements(root: Expr, e: int, leaf) -> tuple:
    """The statements leaving expression ``e`` in ``v{e}``, and its node count.

    ``leaf`` names the local of a constant or variable.
    """
    lines = []

    def guard(failed, code):
        lines.append(f"if {failed}: v{e} = _nan; t{e} = {code}; break")

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


def compile_program(exprs: Sequence[Expr], var_names: Sequence[str]) -> Program:
    """Compile expressions over the given variables to one generated function.

    Every free variable of every expression must appear in ``var_names``.
    The tree is walked with an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit.  The function, ``run(rows) ->
    (values, status)``, takes a sequence of rows of floats and returns two
    flat lists with one slot per row and expression, row after row.
    """
    var_names = tuple(var_names)
    slots = {name: i for i, name in enumerate(var_names)}
    consts = []
    const_slot = {}

    def leaf(e: Expr) -> str:
        if isinstance(e, Const):
            try:
                v = float(e.value)
            except OverflowError:  # outside double range: 10^400 evaluates to inf
                v = math.inf if e.value > 0 else -math.inf
            key = (v, math.copysign(1.0, v))  # keeps 0.0 and -0.0 apart
            if key not in const_slot:
                const_slot[key] = len(consts)
                consts.append(v)
            return f"c{const_slot[key]}"
        if e.name not in slots:
            raise EvalError(f"no value bound for variable {e.name!r}")
        return f"x{slots[e.name]}"

    nodes = 0
    row = []  # the statements of one row
    status = []  # the status of each expression: its local if guarded, else 0
    for e, root in enumerate(exprs):
        lines, count = _statements(root, e, leaf)
        nodes += count
        if any(line.startswith("if ") for line in lines):
            # A guard's break leaves the one-pass loop for the next expression.
            row += [f"t{e} = 0", "while True:", *("    " + line for line in lines), "    break"]
            status.append(f"t{e}")
        else:
            row += lines
            status.append("0")

    row.append(f"put_values({_tuple(f'v{e}' for e in range(len(status)))})")
    row.append(f"put_status({_tuple(status)})")
    consts_target = ", ".join(f"c{i}" for i in range(len(consts)))
    vars_target = ", ".join(f"x{i}" for i in range(len(var_names)))
    source = "\n".join(
        [
            "def run(rows):",
            f"    [{consts_target}] = _consts",
            "    values = []",
            "    status = []",
            "    put_values = values.extend",
            "    put_status = status.extend",
            f"    for [{vars_target}] in rows:",
            *("        " + line for line in row),
            "    return values, status",
        ]
    )
    namespace = {
        "_consts": list(consts),
        "_nan": _NAN,
        "_pow": _pow,
        "_sin": _sin,
        "_cos": _cos,
        "_exp": _exp,
        "_log": math.log,
    }
    exec(compile(source, "<jetconn program>", "exec"), namespace)
    return Program(var_names, consts, len(status), range(nodes), namespace["run"])

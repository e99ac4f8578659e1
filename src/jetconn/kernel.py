"""The evaluation kernel: each tape compiled to one straight-line function.

:func:`generate` turns a program's postfix tape into the source of one
flat Python function, ``run(rows)``, and ``exec``s it once.  The function
has one statement per computing tape op, in tape order: every variable is a
local unpacked from the row (``x0``, ...), every constant a local unpacked
from the program's constant list (``c0``, ...), and an op reads them by
name, so a constant or variable op emits no statement.  Every computed
stack slot is a local (``s0``, ``s1``, ...), and the last op of expression
``e`` writes ``v{e}``.
``run`` serves every evaluation through ``Program.rows``, on lists of
rows.  :func:`eval_program`, :func:`active` and :func:`backend_name` are
kept only for the benchmark under ``clibench/``, which calls and wraps them.

No input text reaches the generated source: it is built from the tape
alone, so it holds only slot indices, integer exponents (range-checked by
the compiler) and the fixed helper names below.  Every constant, inf from
a constant beyond double range included, is read from the constant list.

Numeric contract: every operation is one IEEE double operation or one
libm call through :mod:`math`, so results are bit-for-bit reproducible on a
given platform (and may differ in the last bit where another platform's
libm does).  The wrappers below return what C returns where the math
module raises instead of returning inf or nan.  Guarded failures (division
by 0.0, a negative power of 0.0, ln of a value <= 0) leave NaN and a status
code in their slot and move on to the next expression; they never raise.
"""

from __future__ import annotations

import math

# Tape instructions.  OP_POW carries its integer exponent as argument,
# OP_CONST and OP_VAR their slot; the others take no argument.
OP_CONST = 0
OP_VAR = 1
OP_NEG = 2
OP_ADD = 3
OP_SUB = 4
OP_MUL = 5
OP_DIV = 6
OP_POW = 7
OP_SIN = 8
OP_COS = 9
OP_EXP = 10
OP_LN = 11

STATUS_OK = 0
STATUS_DIV_BY_ZERO = 1
STATUS_LN_DOMAIN = 2

_INF = math.inf
_NAN = math.nan
_BLOCK_SLOTS = 4096  # input and output values converted per block


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


_BINARY = {OP_ADD: "+", OP_SUB: "-", OP_MUL: "*", OP_DIV: "/"}
_CALLS = {OP_SIN: "_sin", OP_COS: "_cos", OP_EXP: "_exp", OP_LN: "_log"}


def _expression(code, arg, first, end, e):
    """Statements leaving expression ``e`` in ``v{e}``, and whether any is guarded."""
    lines = []

    def guard(failed, status):
        lines.append(f"if {failed}: v{e} = _nan; t{e} = {status}; break")

    # The operands as the generated code names them: a constant or variable
    # stays its own local (c3, x0) and costs no statement; a computed value
    # lives in the slot of its stack depth (s0, s1, ...).
    stack = []
    for pc in range(first, end):
        op, a = code[pc], int(arg[pc])
        if op == OP_CONST or op == OP_VAR:
            stack.append(f"c{a}" if op == OP_CONST else f"x{a}")
            if pc < end - 1:
                continue
            value = stack.pop()
        elif op in _BINARY:
            right = stack.pop()
            if op == OP_DIV:
                guard(f"{right} == 0.0", STATUS_DIV_BY_ZERO)
            value = f"{stack.pop()} {_BINARY[op]} {right}"
        elif op == OP_NEG:
            value = f"-{stack.pop()}"
        elif op == OP_POW:
            if a < 0:
                guard(f"{stack[-1]} == 0.0", STATUS_DIV_BY_ZERO)
            value = f"_pow({stack.pop()}, {a})"
        else:
            if op == OP_LN:
                guard(f"{stack[-1]} <= 0.0", STATUS_LN_DOMAIN)
            value = f"{_CALLS[op]}({stack.pop()})"
        target = f"v{e}" if pc == end - 1 else f"s{len(stack)}"
        stack.append(target)
        lines.append(f"{target} = {value}")
    return lines, any(line.startswith("if ") for line in lines)


def _tuple(items) -> str:
    return "(" + "".join(item + ", " for item in items) + ")"


def generate(code, arg, starts, consts, n_vars):
    """Compile the tape to ``run(rows) -> (values, status)``.

    ``rows`` is a sequence of rows of ``n_vars`` floats.  ``values`` and
    ``status`` are flat lists with one slot per row and expression, row
    after row.
    """
    row = []  # the statements of one row
    status = []
    for e in range(len(starts) - 1):
        lines, guarded = _expression(code, arg, starts[e], starts[e + 1], e)
        if guarded:
            # A guard's break leaves the one-pass loop for the next expression.
            row += [f"t{e} = 0", "while True:", *("    " + line for line in lines), "    break"]
            status.append(f"t{e}")
        else:
            row += lines
            status.append("0")
    row.append(f"put_values({_tuple(f'v{e}' for e in range(len(status)))})")
    row.append(f"put_status({_tuple(status)})")
    consts_target = ", ".join(f"c{i}" for i in range(len(consts)))
    vars_target = ", ".join(f"x{i}" for i in range(n_vars))
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
    return namespace["run"]


def eval_program(run, points, n_expr):
    """Run a generated function on each row of ``points``, a 2-d float64 array.

    Returns ``(values, status)`` as arrays of shape (npoints, nexprs).
    Kept, with its numpy import, for ``Program.__call__``, which only the
    benchmark's tracer calls; no command pays for the import.
    """
    import numpy as np

    out = np.empty((points.shape[0], n_expr), dtype=np.float64)
    status = np.empty((points.shape[0], n_expr), dtype=np.uint8)
    # Rows go to and from numpy a block at a time: one conversion per
    # block is cheaper than one per row, and a block's size in values is
    # bounded, so memory does not grow with the batch.
    block = max(1, _BLOCK_SLOTS // (1 + points.shape[1] + n_expr))
    for first in range(0, points.shape[0], block):
        rows = points[first : first + block].tolist()
        values, codes = run(rows)
        shape = (len(rows), n_expr)
        out[first : first + len(rows)] = np.reshape(values, shape)
        status[first : first + len(rows)] = np.reshape(codes, shape)
    return out, status


def backend_name() -> str:
    """Name of the one evaluation kernel, kept because the benchmark records it."""
    return "python"


def active(name=None):
    """The batch evaluator, :func:`eval_program`.

    ``Program.__call__`` looks it up on every call, so the benchmark's tracer
    can wrap it; kept for that.  ``name`` is ignored: there is one kernel.
    """
    return eval_program

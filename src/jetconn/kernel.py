"""The evaluation kernel: a pure-Python interpreter for the postfix tape.

One interpreter loop, :func:`eval_rows`, works on plain lists: it serves
batches through :func:`eval_program` and single points through
``Program.row`` without any numpy call in between, which is what keeps one
RK4 stage cheap.

Numeric contract: every operation is one IEEE double operation or one
libm call through :mod:`math`, so results are bit-for-bit reproducible on a
given platform (and may differ in the last bit where another platform's
libm does).  The wrappers below return what C returns where the math
module raises instead of returning inf or nan.  Guarded failures leave NaN
and a status code in their slot; they never raise.
"""

from __future__ import annotations

import math

import numpy as np

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
_BLOCK_SLOTS = 256  # input and output values converted per block


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


def eval_rows(code, arg, starts, consts, rows, stack_need):
    """Run the tape on each row of ``rows``, all as plain Python lists.

    Returns ``(values, status)``, two flat lists with one slot per row and
    expression, row after row.  A guarded failure leaves NaN in the value
    slot and its code in the status slot.
    """
    n_expr = len(starts) - 1
    stack = [0.0] * stack_need
    log = math.log
    values = []
    status = []
    put_value = values.append
    put_status = status.append
    for row in rows:
        for e in range(n_expr):
            sp = 0
            err = 0
            for pc in range(starts[e], starts[e + 1]):
                op = code[pc]
                a = arg[pc]
                if op == OP_CONST:
                    stack[sp] = consts[a]
                    sp += 1
                elif op == OP_VAR:
                    stack[sp] = row[a]
                    sp += 1
                elif op == OP_ADD:
                    sp -= 1
                    stack[sp - 1] = stack[sp - 1] + stack[sp]
                elif op == OP_SUB:
                    sp -= 1
                    stack[sp - 1] = stack[sp - 1] - stack[sp]
                elif op == OP_MUL:
                    sp -= 1
                    stack[sp - 1] = stack[sp - 1] * stack[sp]
                elif op == OP_DIV:
                    sp -= 1
                    if stack[sp] == 0.0:
                        err = STATUS_DIV_BY_ZERO
                        break
                    stack[sp - 1] = stack[sp - 1] / stack[sp]
                elif op == OP_NEG:
                    stack[sp - 1] = -stack[sp - 1]
                elif op == OP_POW:
                    x = stack[sp - 1]
                    if a < 0 and x == 0.0:
                        err = STATUS_DIV_BY_ZERO
                        break
                    stack[sp - 1] = _pow(x, a)
                elif op == OP_SIN:
                    stack[sp - 1] = _sin(stack[sp - 1])
                elif op == OP_COS:
                    stack[sp - 1] = _cos(stack[sp - 1])
                elif op == OP_EXP:
                    stack[sp - 1] = _exp(stack[sp - 1])
                else:  # OP_LN
                    x = stack[sp - 1]
                    if x <= 0.0:
                        err = STATUS_LN_DOMAIN
                        break
                    stack[sp - 1] = log(x)
            if err:
                put_value(_NAN)
                put_status(err)
            else:
                put_value(stack[sp - 1])
                put_status(0)  # STATUS_OK
    return values, status


def eval_program(code, arg, starts, consts, points, stack_need):
    """Run the tape on each row of ``points``, a 2-d float64 array.

    Returns ``(values, status)`` as arrays of shape (npoints, nexprs).
    """
    n_expr = len(starts) - 1
    out = np.empty((points.shape[0], n_expr), dtype=np.float64)
    status = np.empty((points.shape[0], n_expr), dtype=np.uint8)
    # Rows go to and from numpy a block at a time: one conversion per
    # block is cheaper than one per row, and a block's size in values is
    # bounded, so memory does not grow with the batch.
    block = max(1, _BLOCK_SLOTS // (1 + points.shape[1] + n_expr))
    for first in range(0, points.shape[0], block):
        rows = points[first : first + block].tolist()
        values, codes = eval_rows(code, arg, starts, consts, rows, stack_need)
        shape = (len(rows), n_expr)
        out[first : first + len(rows)] = np.reshape(values, shape)
        status[first : first + len(rows)] = np.reshape(codes, shape)
    return out, status


def backend_name() -> str:
    """Name of the evaluation kernel, recorded with benchmark results."""
    return "python"


def active(name=None):
    """The batch evaluator, :func:`eval_program`.

    ``Program`` looks it up here on every call, so a profiler can wrap it.
    ``name`` is ignored: there is one kernel.
    """
    return eval_program

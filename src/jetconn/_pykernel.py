"""Pure Python tape interpreter.

One interpreter loop, :func:`eval_rows`, works on plain lists: it serves
the batch kernel contract through :func:`eval_program` and single points
through ``Program.row`` without any numpy call in between, which is what
keeps one RK4 stage cheap.  It mirrors the compiled kernel operation for
operation.  Both call into the same libm, so results agree bit for bit;
the wrappers below only paper over places where the math module raises
instead of returning inf or nan.
"""

from __future__ import annotations

import math

import numpy as np

from ._tape import (
    OP_ADD,
    OP_CONST,
    OP_COS,
    OP_DIV,
    OP_EXP,
    OP_LN,
    OP_MUL,
    OP_NEG,
    OP_POW,
    OP_SIN,
    OP_SUB,
    OP_VAR,
)

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
                        err = 1
                        break
                    stack[sp - 1] = stack[sp - 1] / stack[sp]
                elif op == OP_NEG:
                    stack[sp - 1] = -stack[sp - 1]
                elif op == OP_POW:
                    x = stack[sp - 1]
                    if a < 0 and x == 0.0:
                        err = 1
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
                        err = 2
                        break
                    stack[sp - 1] = log(x)
            if err:
                put_value(_NAN)
                put_status(err)
            else:
                put_value(stack[sp - 1])
                put_status(0)
    return values, status


def eval_program(code, arg, starts, consts, points, out, status, stack_need):
    """The batch kernel contract: fill ``out`` and ``status`` row by row."""
    tape = (code.tolist(), arg.tolist(), starts.tolist(), consts.tolist())
    # Rows go to and from numpy a block at a time: one conversion per
    # block is cheaper than one per row, and a block's size in values is
    # bounded, so memory does not grow with the batch.
    block = max(1, _BLOCK_SLOTS // (1 + points.shape[1] + out.shape[1]))
    for first in range(0, points.shape[0], block):
        rows = points[first : first + block].tolist()
        values, codes = eval_rows(*tape, rows, stack_need)
        shape = (len(rows), out.shape[1])
        out[first : first + len(rows)] = np.reshape(values, shape)
        status[first : first + len(rows)] = np.reshape(codes, shape)

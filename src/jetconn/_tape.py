"""Compilation of expression trees to a flat postfix tape.

A program holds one tape per expression, concatenated, with ``starts``
marking segment boundaries.  :mod:`jetconn.kernel` defines the
instructions and runs the tape.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import kernel
from .errors import EvalError
from .expr import Add, Const, Div, Expr, Fn, Mul, Neg, Pow, Sub, Var
from .kernel import (
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
    STATUS_DIV_BY_ZERO,
    STATUS_LN_DOMAIN,
)

_FN_OPS = {"sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP, "ln": OP_LN}

STATUS_MESSAGES = {
    STATUS_DIV_BY_ZERO: "division by zero",
    STATUS_LN_DOMAIN: "ln of a non-positive argument",
}


class Program:
    """Compiled batch evaluator for a fixed tuple of expressions.

    The tape is kept as Python lists, the form the kernel runs.
    """

    __slots__ = ("var_names", "code", "arg", "starts", "consts", "stack_need")

    def __init__(self, var_names, code, arg, starts, consts, stack_need):
        self.var_names = var_names
        self.code = code
        self.arg = arg
        self.starts = starts
        self.consts = consts
        self.stack_need = stack_need

    def __call__(self, points: np.ndarray):
        """Evaluate all expressions at each row of ``points``.

        Returns ``(values, status)`` of shape (npoints, nexprs).  A nonzero
        status marks the matching value slot as NaN; evaluation continues
        with the next expression.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != len(self.var_names):
            raise EvalError(
                f"program expects {len(self.var_names)} variables, got {pts.shape[1]}"
            )
        return kernel.active()(
            self.code, self.arg, self.starts, self.consts, pts, self.stack_need
        )

    def row(self, point: list):
        """Evaluate all expressions at one point, a list of floats.

        Returns ``(values, status)`` as two Python lists, equal slot for slot
        to the single row of ``self(point)``, without going through numpy.
        """
        if len(point) != len(self.var_names):
            raise EvalError(
                f"program expects {len(self.var_names)} variables, got {len(point)}"
            )
        return kernel.eval_rows(
            self.code, self.arg, self.starts, self.consts, (point,), self.stack_need
        )

    def eval_checked(self, points: np.ndarray) -> np.ndarray:
        """Like calling the program, but any nonzero status raises EvalError."""
        out, status = self(points)
        if status.any():
            row, col = np.argwhere(status)[0]
            raise EvalError(STATUS_MESSAGES[int(status[row, col])])
        return out


def compile_program(exprs: Sequence[Expr], var_names: Sequence[str]) -> Program:
    """Flatten expressions into one postfix tape over the given variables.

    Every free variable of every expression must appear in ``var_names``.
    """
    var_names = tuple(var_names)
    slots = {name: i for i, name in enumerate(var_names)}
    code = []
    arg = []
    starts = [0]
    consts = []
    const_slot = {}
    stack_need = 1

    def emit(e: Expr) -> int:
        # Returns the stack depth consumed by this subtree's evaluation peak.
        if isinstance(e, Const):
            try:
                v = float(e.value)
            except OverflowError:  # outside double range: as the tape gives 10^400
                v = math.inf if e.value > 0 else -math.inf
            idx = const_slot.get(v)
            if idx is None:
                idx = len(consts)
                consts.append(v)
                const_slot[v] = idx
            code.append(OP_CONST)
            arg.append(idx)
            return 1
        if isinstance(e, Var):
            if e.name not in slots:
                raise EvalError(f"no value bound for variable {e.name!r}")
            code.append(OP_VAR)
            arg.append(slots[e.name])
            return 1
        if isinstance(e, Neg):
            depth = emit(e.arg)
            code.append(OP_NEG)
            arg.append(0)
            return depth
        if isinstance(e, (Add, Sub, Mul, Div)):
            d1 = emit(e.left)
            d2 = emit(e.right)
            code.append(
                {Add: OP_ADD, Sub: OP_SUB, Mul: OP_MUL, Div: OP_DIV}[type(e)]
            )
            arg.append(0)
            return max(d1, 1 + d2)
        if isinstance(e, Pow):
            depth = emit(e.base)
            if not -(2**31) <= e.exponent < 2**31:
                raise EvalError("power exponent out of range")
            code.append(OP_POW)
            arg.append(e.exponent)
            return depth
        if isinstance(e, Fn):
            depth = emit(e.arg)
            code.append(_FN_OPS[e.name])
            arg.append(0)
            return depth
        raise TypeError(f"not an expression: {e!r}")

    for e in exprs:
        stack_need = max(stack_need, emit(e))
        starts.append(len(code))

    return Program(
        var_names=var_names,
        code=code,
        arg=arg,
        starts=starts,
        consts=consts,
        stack_need=stack_need,
    )

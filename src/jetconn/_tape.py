"""Compilation of expression trees to a flat postfix tape.

A program holds one tape per expression, concatenated, with ``starts``
marking segment boundaries.  Both evaluation backends interpret the same
tape, so their results can be compared instruction for instruction.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

from .errors import EvalError
from .expr import Add, Const, Div, Expr, Fn, Mul, Neg, Pow, Sub, Var

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

_FN_OPS = {"sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP, "ln": OP_LN}

STATUS_OK = 0
STATUS_DIV_BY_ZERO = 1
STATUS_LN_DOMAIN = 2

STATUS_MESSAGES = {
    STATUS_DIV_BY_ZERO: "division by zero",
    STATUS_LN_DOMAIN: "ln of a non-positive argument",
}


class Program:
    """Compiled batch evaluator for a fixed tuple of expressions."""

    __slots__ = ("var_names", "n_exprs", "code", "arg", "starts", "consts",
                 "stack_need", "_lists")

    def __init__(self, var_names, n_exprs, code, arg, starts, consts, stack_need):
        self.var_names = var_names
        self.n_exprs = n_exprs
        self.code = code
        self.arg = arg
        self.starts = starts
        self.consts = consts
        self.stack_need = stack_need
        self._lists = None

    def __call__(self, points: np.ndarray, backend=None):
        """Evaluate all expressions at each row of ``points``.

        Returns ``(values, status)`` of shape (npoints, nexprs).  A nonzero
        status marks the matching value slot as NaN; evaluation continues
        with the next expression.
        """
        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != len(self.var_names):
            raise EvalError(
                f"program expects {len(self.var_names)} variables, got {pts.shape[1]}"
            )
        out = np.empty((pts.shape[0], self.n_exprs), dtype=np.float64)
        status = np.empty((pts.shape[0], self.n_exprs), dtype=np.uint8)
        fn = _kernel().active(backend)
        fn(self.code, self.arg, self.starts, self.consts, pts, out, status,
           self.stack_need)
        return out, status

    def row(self, point: list):
        """Evaluate all expressions at one point, a list of floats.

        Returns ``(values, status)`` as two Python lists, equal slot for slot
        to the single row of ``self(point)``.  The Python backend runs the
        tape as lists, made on the first call and kept; any other backend
        goes through the batch call.
        """
        kernel = _kernel()
        if kernel.backend_name() != "python":
            out, status = self(point)
            return out[0].tolist(), status[0].tolist()
        if len(point) != len(self.var_names):
            raise EvalError(
                f"program expects {len(self.var_names)} variables, got {len(point)}"
            )
        if self._lists is None:
            self._lists = (
                self.code.tolist(), self.arg.tolist(), self.starts.tolist(), self.consts.tolist()
            )
        return kernel.eval_rows(*self._lists, (point,), self.stack_need)

    def eval_checked(self, points: np.ndarray, backend=None) -> np.ndarray:
        """Like calling the program, but any nonzero status raises EvalError."""
        out, status = self(points, backend)
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
            v = float(e.value)
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
        n_exprs=len(exprs),
        code=np.asarray(code, dtype=np.int32),
        arg=np.asarray(arg, dtype=np.int32),
        starts=np.asarray(starts, dtype=np.int32),
        consts=np.asarray(consts if consts else [0.0], dtype=np.float64),
        stack_need=stack_need,
    )


@cache
def _kernel():
    # Imported on first evaluation rather than with this module, because
    # importing the kernel module reads and checks JETCONN_KERNEL.
    from . import kernel

    return kernel

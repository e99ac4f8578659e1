"""Benchmark hooks around the generated functions of :mod:`jetconn._tape`.

:func:`eval_program`, :func:`active` and :func:`backend_name` are kept only
for the benchmark under ``clibench/``, which calls and wraps them; no
command runs this module.
"""

_BLOCK_SLOTS = 4096  # input and output values converted per block


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

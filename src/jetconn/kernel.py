"""Evaluation backend selection.

The compiled extension is preferred when it imported cleanly; the pure
Python interpreter is always available.  Set ``JETCONN_KERNEL=python`` or
``JETCONN_KERNEL=compiled`` to force a choice at import time, or use
:func:`force_backend` to pin one temporarily (tests and benchmarks do).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from . import _pykernel
from ._pykernel import eval_rows  # noqa: F401  (Program.row under the Python backend)

try:
    from . import _ckernel
except ImportError:
    _ckernel = None

_BACKENDS = {"python": _pykernel.eval_program}
if _ckernel is not None:
    _BACKENDS["compiled"] = _ckernel.eval_program


def _initial() -> str:
    forced = os.environ.get("JETCONN_KERNEL", "").strip().lower()
    if forced:
        if forced not in ("python", "compiled"):
            raise RuntimeError(
                f"JETCONN_KERNEL={forced!r}: expected 'python' or 'compiled'"
            )
        if forced == "compiled" and "compiled" not in _BACKENDS:
            raise RuntimeError(
                "JETCONN_KERNEL=compiled, but the compiled kernel is not installed"
            )
        return forced
    return "compiled" if "compiled" in _BACKENDS else "python"


_active_name = _initial()


def backend_name() -> str:
    """Name of the backend new evaluations will use: 'compiled' or 'python'."""
    return _active_name


def available_backends() -> tuple:
    return tuple(sorted(_BACKENDS))


def active(override: str = None):
    """The eval_program callable for ``override`` or the active backend."""
    name = override or _active_name
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"backend {name!r} is not available") from None


@contextmanager
def force_backend(name: str):
    """Temporarily route all evaluation through the named backend."""
    global _active_name
    if name not in _BACKENDS:
        raise ValueError(f"backend {name!r} is not available")
    previous = _active_name
    _active_name = name
    try:
        yield
    finally:
        _active_name = previous

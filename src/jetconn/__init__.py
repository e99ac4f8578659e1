"""Connections on fibered manifolds: symbolic coefficients, products,
adapted frames, and parallel transport.

The expression layer is a small exact-rational symbolic core with a text
grammar; the numeric layer compiles each set of expressions, and each
transport's whole RK4 loop, to one straight-line Python function (see
:mod:`jetconn._tape`).

Importing the package runs no submodule.  Each submodule but ``cli`` is
registered in ``sys.modules`` and bound here as a :class:`_LazyModule`,
whose code runs on its first attribute access; so a command loads only the
modules it uses.  The code runs under one lock, and the module becomes a
plain module only once it has run, so a thread that touches a module
another thread is loading waits for it.  Inside the package, ``from .
import evaluate`` binds a module without loading it, while ``from .expr
import Expr`` loads ``expr`` at once.  A public name such as
``jetconn.simplify`` is looked up in its home module by the module
``__getattr__`` below, through ``_EXPORTS``, from which ``__all__`` is
also derived.  ``cli`` is left out because ``python -m jetconn.cli`` warns
when ``jetconn.cli`` is already in ``sys.modules`` before it runs.  Its
handler groups and its help parser are the lazy ``_cli_*`` modules.
"""

import importlib.util
import sys
import threading
import types

__version__ = "0.1.0"

# Home module -> the public names it gives the package.
_EXPORTS = {
    "connections": """HOLONOMIC NONHOLONOMIC SEMIHOLONOMIC AffineConnection
        Classification Connection1 Connection2 LinearConnection1 affine_to_general
        classify curvature ehresmann_prolongation exchange family is_fiber_linear
        linear_to_general product""",
    "errors": """DimensionMismatchError EvalError FormatError FrameVerificationError
        FunctionArityError JetconnError ParseError SamplingError SizeLimitError
        TransportError UnknownIdentifierError""",
    "evaluate": "PROBABILISTIC SYMBOLIC EqualityResult SamplePolicy eval_expr expr_equal",
    "expr": """Add Const Div Expr Fn Mul Neg Pow Sub SymbolUniverse Var as_expr cos
        diff exp ln parse_expr simplify sin substitute to_text""",
    "frames": """AdaptedFrame JacobianReport LinearTwoFoldCoefficients LiftRow
        TwoFoldConnection TwofoldCoframe TwofoldTransform adapted_frame
        horizontal_lift_field linear_twofold twofold_dual_coframe twofold_frame
        twofold_universe validate_twofold_jacobian""",
    "io": """KIND_LABELS Document connection1_to_data connection2_to_data
        curvature_to_data detect_kind dump_json load_data load_path transport_csv""",
    "jets": """FunctionDifferentials JetPoint JetSequence TangentCoordPoint
        all_sequences function_differentials is_holonomic_point
        is_semiholonomic_point jet_points_close nonzero_core projections_agree
        prolonged_projection rho_projection tangent_universe target_projection""",
    "transport": """CURVE_UNIVERSE Curve HolonomyResult TransportResult loop_holonomy
        second_order_ode transport1 transport2""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


# Reentrant: loading one module may load another in the same thread.
_LOCK = threading.RLock()
_RUNNING = set()  # the lazy modules whose code is running


class _LazyModule(types.ModuleType):
    """A submodule whose code runs on the first access to any attribute."""

    def __getattribute__(self, name):
        with _LOCK:
            # The loading thread reads the module as its code fills it in.
            if type(self) is _LazyModule and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    spec = types.ModuleType.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _RUNNING.discard(self)
        return types.ModuleType.__getattribute__(self, name)


def _register(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


# Every submodule but cli: the homes of public names, then the private ones.
for _name in (*_EXPORTS, "_cli_algebra", "_cli_frames", "_cli_transport", "_cli_usage",
              "_derive", "_enclose", "_poly", "_simplify", "_tape", "kernel"):
    globals()[_name] = _register(_name)
del _name


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())

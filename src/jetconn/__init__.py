"""Connections on fibered manifolds: symbolic coefficients, products,
adapted frames, and parallel transport.

The expression layer is a small exact-rational symbolic core with a text
grammar; the numeric layer compiles each set of expressions, and each
transport's whole RK4 loop, to one straight-line Python function (see
:mod:`jetconn._tape`).

Importing the package runs no submodule.  Each submodule but ``cli`` is
registered in ``sys.modules`` and bound here as an
:class:`importlib.util.LazyLoader` module, whose code runs on its first
attribute access; so a command loads only the modules it uses.  Inside
the package, ``from . import evaluate`` binds a module without loading it,
while ``from .expr import Expr`` loads ``expr`` at once.  A public name
such as ``jetconn.simplify`` is looked up in its home module by the
module ``__getattr__`` below, through ``_EXPORTS``, from which
``__all__`` is also derived.  ``cli`` is left out because ``python -m
jetconn.cli`` warns when ``jetconn.cli`` is already in ``sys.modules``
before it runs.  The ``LazyLoader`` of Python 3.10 and 3.11 takes no
lock, so a program that uses jetconn from several threads should touch
the modules it needs before it starts them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Home module -> the public names it gives the package.
_EXPORTS = {
    "connections": """HOLONOMIC NONHOLONOMIC SEMIHOLONOMIC AffineConnection
        Classification Connection1 Connection2 LinearConnection1 affine_to_general
        classify curvature ehresmann_prolongation exchange family is_fiber_linear
        linear_to_general product""",
    "errors": """DimensionMismatchError EvalError FormatError FrameVerificationError
        FunctionArityError JetconnError ParseError SamplingError TransportError
        UnknownIdentifierError""",
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


def _register(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Every submodule but cli: the homes of public names and four private ones.
for _name in (*_EXPORTS, "_enclose", "_poly", "_tape", "kernel"):
    globals()[_name] = _register(_name)
del _name


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())

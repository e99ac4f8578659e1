"""The immutable records of the package, all built on ``expr.Value``.

Every public ``Value`` subclass has a sample here, and each sample is
checked for immutability, equality and hashing by fields, and the field
count of its constructor.
"""

import copy
import pickle

import pytest

import jetconn
from jetconn import (
    AffineConnection,
    Classification,
    Connection1,
    Connection2,
    Curve,
    CURVE_UNIVERSE,
    Document,
    EqualityResult,
    FunctionDifferentials,
    HolonomyResult,
    JetPoint,
    JetSequence,
    LinearConnection1,
    LinearTwoFoldCoefficients,
    SamplePolicy,
    SymbolUniverse,
    TangentCoordPoint,
    TransportResult,
    TwoFoldConnection,
    TwofoldTransform,
    adapted_frame,
    horizontal_lift_field,
    parse_expr,
    twofold_dual_coframe,
    twofold_universe,
    validate_twofold_jacobian,
)
from jetconn.expr import Value

U = SymbolUniverse(1, 1)
DIMS = (1, 1, 1, 1)


def P(text, universe=U):
    return parse_expr(text, universe)


def connection1():
    return Connection1(U, ((P("x1*y1"),),))


def connection2():
    return Connection2(U, ((P("y1"),),), ((P("y1"),),), (((P("x1"),),),))


def twofold():
    W, zero = twofold_universe(DIMS), ((P("0"),),)
    return TwoFoldConnection(DIMS, ((P("v1", W),),), zero, ((P("u1*v1", W),),), zero, zero)


def transform():
    W = twofold_universe(DIMS)
    return TwofoldTransform(DIMS, tuple(P(name, W) for name in ("u1", "v1", "w1", "z1")))


def linear_coefficients():
    c = (((P("1"),),),)
    return LinearTwoFoldCoefficients(DIMS, c, c, c, c, (c,), c)


def curve():
    return Curve(1, (P("t^2", CURVE_UNIVERSE),), 0.0, 1.0)


# One sample per public Value subclass.
SAMPLES = {
    "AdaptedFrame": lambda: adapted_frame(connection1()),
    "AffineConnection": lambda: AffineConnection(1, (((P("x1"),),),)),
    "Classification": lambda: Classification("holonomic", "symbolic"),
    "Connection1": connection1,
    "Connection2": connection2,
    "Curve": curve,
    "Document": lambda: Document("curve", curve()),
    "EqualityResult": lambda: EqualityResult(True, "symbolic"),
    "FunctionDifferentials": lambda: FunctionDifferentials(U, 1, P("x1")),
    "HolonomyResult": lambda: HolonomyResult(((1.0,),), 0.0, 10),
    "JacobianReport": lambda: validate_twofold_jacobian(transform()),
    "JetPoint": lambda: JetPoint(1, 1, 1, (0.5,), {(1, (0,)): 1.0, (1, (1,)): 2.0}),
    "JetSequence": lambda: JetSequence((0, 1), 1),
    "LiftRow": lambda: horizontal_lift_field(connection2())[0],
    "LinearConnection1": lambda: LinearConnection1(U, (((P("x1"),),),)),
    "LinearTwoFoldCoefficients": linear_coefficients,
    "SamplePolicy": lambda: SamplePolicy(points=8),
    "SymbolUniverse": lambda: SymbolUniverse(1, 2, frozenset({"t"})),
    "TangentCoordPoint": lambda: TangentCoordPoint(1, 1, {(): (1.0,), (1,): (2.0,)}),
    "TransportResult": lambda: TransportResult((0.0, 1.0), ((1.0,), (2.0,)), 1, 4),
    "TwoFoldConnection": twofold,
    "TwofoldCoframe": lambda: twofold_dual_coframe(twofold(), points=4),
    "TwofoldTransform": transform,
}

# Results compare by identity; the points hold a dict and are unhashable.
BY_IDENTITY = {"HolonomyResult", "TransportResult"}
UNHASHABLE = {"JetPoint", "TangentCoordPoint"}


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


def test_every_public_value_type_has_a_sample():
    public = [getattr(jetconn, name) for name in jetconn.__all__]
    values = {cls.__name__ for cls in public if isinstance(cls, type) and issubclass(cls, Value)}
    assert values == set(SAMPLES)
    assert len(values) == 23


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_cannot_be_set(name):
    value = SAMPLES[name]()
    for field in (*type(value).__slots__, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert fields(value) == fields(SAMPLES[name]())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_fields_make_equal_values(name):
    value = SAMPLES[name]()
    twin = type(value)(*fields(value))
    assert twin is not value and fields(twin) == fields(value)
    assert value == value and value != "text" and value.__eq__("text") is NotImplemented
    if name in BY_IDENTITY:
        assert twin != value
        assert hash(value) == object.__hash__(value)
    elif name in UNHASHABLE:
        assert twin == value
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert twin == value
        assert hash(twin) == hash(value)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_wrong_field_count_is_a_type_error(name):
    value = SAMPLES[name]()
    with pytest.raises(TypeError):
        type(value)(*fields(value), None)


def test_the_base_checks_its_field_count():
    with pytest.raises(TypeError, match="EqualityResult takes 2 fields, got 1"):
        EqualityResult(True)


def test_repr_names_the_fields():
    assert repr(SymbolUniverse(1, 1)) == (
        "SymbolUniverse(base_dim=1, fiber_dim=1, extra_symbols=frozenset())"
    )
    assert repr(SAMPLES["JetPoint"]()) == "JetPoint(order=1, base_dim=1, fiber_dim=1)"
    assert repr(SAMPLES["TangentCoordPoint"]()) == "TangentCoordPoint(level=1, dim=1)"


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_copy_and_pickle_rebuild_the_value(name):
    value = SAMPLES[name]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and fields(twin) == fields(value)


def test_different_types_with_equal_fields_differ():
    assert EqualityResult(True, "symbolic") != Classification(True, "symbolic")

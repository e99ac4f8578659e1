"""Every grid-bearing constructor checks shape and variables through ``expr_grid``."""

from functools import partial

import pytest

from jetconn import (
    AffineConnection,
    Connection1,
    Connection2,
    Curve,
    DimensionMismatchError,
    LinearConnection1,
    LinearTwoFoldCoefficients,
    SymbolUniverse,
    TwoFoldConnection,
    TwofoldTransform,
    function_differentials,
)
from jetconn.expr import Const, Var, expr_grid

U = SymbolUniverse(1, 1)
DIMS = (1, 1, 1, 1)
ZERO = Const(0)


def grid(entry, rows=1, depth=2):
    """A 1x...x1 nested tuple holding ``entry``, with ``rows`` outer rows."""
    for _ in range(depth - 1):
        entry = (entry,)
    return (entry,) * rows


BLOCKS = ("g1_base", "g2_base", "g12_base", "g12_f1", "g12_f2")
TENSORS = {"c1": 3, "c2": 3, "c12_f1f2": 3, "c12_f2f1": 3, "c12_jf1f2": 4, "c12_jf12": 3}


def twofold(field, value):
    blocks = {name: grid(ZERO) for name in BLOCKS}
    return TwoFoldConnection(DIMS, **{**blocks, field: value})


def linear_twofold(field, value):
    tensors = {name: grid(ZERO, depth=depth) for name, depth in TENSORS.items()}
    return LinearTwoFoldCoefficients(DIMS, **{**tensors, field: value})


def connection2(field, value):
    grids = {"F": grid(ZERO), "G": grid(ZERO), "H": grid(ZERO, depth=3)}
    return Connection2(U, **{**grids, field: value})


# name -> (field, an allowed and a stray variable, build(value), grid depth);
# the valid value of the field is ``grid(ZERO, depth=depth)``.
CASES = {
    "Connection1": ("F", "y1", "x2", lambda v: Connection1(U, v), 2),
    "Connection2.F": ("F", "y1", "x2", lambda v: connection2("F", v), 2),
    "Connection2.G": ("G", "x1", "y2", lambda v: connection2("G", v), 2),
    "Connection2.H": ("H", "y1", "x2", lambda v: connection2("H", v), 3),
    "LinearConnection1": ("coeff", "x1", "y1", lambda v: LinearConnection1(U, v), 3),
    "AffineConnection": ("christoffel", "x1", "y1", lambda v: AffineConnection(1, v), 3),
    **{
        f"TwoFoldConnection.{name}": (name, "z1", "x1", partial(twofold, name), 2)
        for name in BLOCKS
    },
    **{
        f"LinearTwoFoldCoefficients.{name}": (
            name, "u1", "v1", partial(linear_twofold, name), TENSORS[name]
        )
        for name in TENSORS
    },
    "TwofoldTransform": (
        "transform components", "w1", "x1", lambda v: TwofoldTransform(DIMS, v * 4), 1
    ),
    "Curve": ("curve components", "t", "x1", lambda v: Curve(1, v, 0.0, 1.0), 1),
    "function_differentials": (
        "function", "x1", "y1", lambda v: function_differentials(v, 1, U), 0
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_valid_grid_builds(case):
    *_, build, depth = CASES[case]
    build(ZERO if depth == 0 else grid(ZERO, depth=depth))


@pytest.mark.parametrize("case", sorted(CASES))
def test_wrong_shape_names_field(case):
    field, _, _, build, depth = CASES[case]
    # One row too many; a scalar field gets a list instead.
    value = (ZERO,) if depth == 0 else grid(ZERO, rows=2, depth=depth)
    with pytest.raises(DimensionMismatchError, match=f"^{field} must be "):
        build(value)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stray_variable_names_field_and_variable(case):
    field, ok, name, build, depth = CASES[case]
    entry = Var(ok) * Var(name)
    value = entry if depth == 0 else grid(entry, depth=depth)
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value) == f"{field} references variables ['{name}'] outside the universe"


class TestExprGrid:
    def test_shape_checked_before_entries(self):
        # The second row is short and the first holds a stray name: shape wins.
        with pytest.raises(DimensionMismatchError, match="^F must be a 2x2 grid$"):
            expr_grid(((Var("q"), 1), (2,)), (2, 2), ("x1",), "F")

    def test_nesting_is_part_of_the_shape(self):
        with pytest.raises(DimensionMismatchError, match="^H must be a 1x1x1 grid$"):
            expr_grid(((ZERO,),), (1, 1, 1), (), "H")  # an entry where a row belongs
        with pytest.raises(DimensionMismatchError, match="^H must be a 1x1 grid$"):
            expr_grid((((ZERO,),),), (1, 1), (), "H")  # a row where an entry belongs
        with pytest.raises(DimensionMismatchError, match="^f must be one expression$"):
            expr_grid([ZERO], (), (), "f")

    def test_converts_to_nested_tuples(self):
        out = expr_grid([[1, 2.5]], (1, 2), (), "F")
        assert out == ((Const(1), Const(2.5)),)
        assert type(out) is tuple and type(out[0]) is tuple

    def test_non_expression_entry_is_a_type_error(self):
        with pytest.raises(TypeError, match="str"):
            expr_grid([["x1"]], (1, 1), ("x1",), "F")

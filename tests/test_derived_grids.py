"""Every derived grid, pinned by a digest of its trees over fixed seeds.

The golden transcripts reach only the grids the sample inputs produce.
This digest covers every builder of a derived grid on random inputs,
including empty axes, by hashing the ``repr`` (the whole tree) and the
text of each grid.  A refactor of the builders must leave it unchanged.
"""

import copy
import hashlib

import numpy as np
import pytest

from jetconn import (
    AffineConnection,
    Connection1,
    Connection2,
    Const,
    LinearConnection1,
    LinearTwoFoldCoefficients,
    SymbolUniverse,
    TwoFoldConnection,
    adapted_frame,
    affine_to_general,
    curvature,
    ehresmann_prolongation,
    exchange,
    family,
    function_differentials,
    linear_to_general,
    linear_twofold,
    product,
    to_text,
    twofold_dual_coframe,
    twofold_frame,
)
from jetconn.expr import Var, build_grid, contract, parse_expr, simplify
from jetconn.frames import identity_matrix, symbolic_matmul

from conftest import poly_expr, random_connection1, random_entries, random_expr

SEEDS = range(100)
# Re-captured when simplify became canonical: each entry equals the one of
# the digest before, exactly or, where atoms or floats remain, at 100 points.
# Re-captured when integral constants became ints: the digest of the code
# before, with each ``Fraction(n, 1)`` of its reprs written ``n``.
DIGEST = "d801dd3627db2cd4217be748fa6fdbea87d07e8d19f4c1825e3f46ed6104b31c"


def _text(grid):
    if isinstance(grid, tuple):
        return "[" + ", ".join(_text(child) for child in grid) + "]"
    return to_text(grid)


def _random_grid(rng, shape, names, draw=poly_expr):
    if not shape:
        return draw(rng, names)
    return tuple(_random_grid(rng, shape[1:], names, draw) for _ in range(shape[0]))


def derived_grids(seed):
    """(name, grid) for every derived-grid builder on inputs drawn from ``seed``.

    Base and fiber dimensions run over 0..2, so empty axes are covered.
    """
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(0, 3, size=2))
    u = SymbolUniverse(m, n)
    names = u.base_names + u.fiber_names
    gamma = random_connection1(rng, m, n)
    gamma_bar = Connection1(u, _random_grid(rng, (n, m), names, random_expr))
    delta = Connection2(
        u, gamma.F, gamma_bar.F, _random_grid(rng, (n, m, m), names, random_expr)
    )
    built = adapted_frame(gamma)
    d = int(rng.integers(1, 3))
    christoffel = _random_grid(rng, (d, d, d), SymbolUniverse(d, d).base_names)
    coeff = _random_grid(rng, (n, m, n), u.base_names)
    out = [
        ("product", product(gamma, gamma_bar).H),
        ("curvature", curvature(gamma_bar)),
        ("family", family(gamma, float(rng.choice((0.5, 2.0, -1.0)))).H),
        ("exchange", exchange(delta).H),
        ("frame", built.frame),
        ("coframe", built.coframe),
        ("matmul", symbolic_matmul(built.coframe, built.frame)),
        ("identity", identity_matrix(m + n)),
        ("linear", linear_to_general(LinearConnection1(u, coeff)).F),
        ("affine", affine_to_general(AffineConnection(d, christoffel)).F),
    ]

    dims = tuple(int(k) for k in rng.integers(1, 3, size=4))
    nb, r1, r2, r12 = dims
    ubase = tuple(f"u{j}" for j in range(1, nb + 1))
    tensors = {
        "c1": (r1, nb, r1),
        "c2": (r2, nb, r2),
        "c12_f1f2": (r12, r1, r2),
        "c12_f2f1": (r12, r2, r1),
        "c12_jf1f2": (r12, nb, r1, r2),
        "c12_jf12": (r12, nb, r12),
    }
    lin = LinearTwoFoldCoefficients(
        dims, **{k: _random_grid(rng, s, ubase) for k, s in tensors.items()}
    )
    expanded = linear_twofold(lin)
    blocks = {
        "g1_base": (r1, nb),
        "g2_base": (r2, nb),
        "g12_base": (r12, nb),
        "g12_f1": (r12, r1),
        "g12_f2": (r12, r2),
    }
    out += [(f"linear_twofold.{k}", getattr(expanded, k)) for k in blocks]
    coords = expanded.variable_names()
    conn = TwoFoldConnection(
        dims, **{k: _random_grid(rng, s, coords) for k, s in blocks.items()}
    )
    dual = twofold_dual_coframe(conn, points=2, seed=seed)
    out += [
        ("twofold_frame", twofold_frame(conn)),
        ("gamma_bar", dual.gamma_bar),
        ("twofold_coframe", dual.matrix),
    ]

    fu = SymbolUniverse(int(rng.integers(0, 3)), 1)
    f = random_expr(rng, fu.base_names) if fu.base_dim else Const(int(rng.integers(-3, 4)))
    fd = function_differentials(f, 2, fu)
    out += [("d1", fd.d1), ("d2", fd.d2), ("d12", fd.d12)]
    return out


def digest(seeds=SEEDS):
    h = hashlib.sha256()
    for seed in seeds:
        for name, grid in derived_grids(seed):
            h.update(f"{seed} {name} {_text(grid)}\n{grid!r}\n".encode("utf-8"))
    return h.hexdigest()


def test_derived_grid_digest():
    assert digest() == DIGEST


def history_grids(gamma):
    """The text of ``prolong``'s H, of the curvature and of ``family``'s H at 0.5."""
    return [_text(ehresmann_prolongation(gamma).H), _text(curvature(gamma)),
            _text(family(gamma, 0.5).H)]


@pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
def test_simplified_entries_leave_the_derived_grids(floats):
    # Each connection's grids print the same whether or not its entries
    # were simplified twice first.
    u, differ = SymbolUniverse(2, 1), []
    for seed in range(300):
        row = tuple(random_entries(seed, floats))
        twin = copy.deepcopy(row)
        for e in twin:
            simplify(e)
            simplify(e)
        if history_grids(Connection1(u, (twin,))) != history_grids(Connection1(u, (row,))):
            differ.append(seed)
    assert differ == []


class TestBuildGrid:
    def test_row_major_order_and_shape(self):
        calls = []

        def entry(*index):
            calls.append(index)
            return index

        grid = build_grid((2, 3), entry)
        assert calls == [(i, j) for i in range(2) for j in range(3)]
        assert grid == tuple(tuple((i, j) for j in range(3)) for i in range(2))
        assert type(grid) is tuple and type(grid[0]) is tuple

    def test_empty_shape_is_one_entry(self):
        assert build_grid((), lambda: "e") == "e"

    @pytest.mark.parametrize("shape, grid", [((0,), ()), ((0, 3), ()), ((2, 0), ((), ()))])
    def test_empty_axis(self, shape, grid):
        assert build_grid(shape, lambda *index: pytest.fail("no entry to build")) == grid


class TestContract:
    U = SymbolUniverse(2, 2)

    def test_vector(self):
        e = contract([parse_expr("x1", self.U), Const(2)], [Var("y1"), Var("y2")])
        assert e == parse_expr("x1*y1 + 2*y2", self.U)

    def test_leading_axes_kept(self):
        t = ((Const(1), Const(0)), (Var("x1"), Var("x1")))
        assert contract(t, (Var("y1"), Var("y2")), 1) == (
            Var("y1"),
            parse_expr("x1*y1 + x1*y2", self.U),
        )

    def test_empty_summed_axis_is_zero(self):
        assert contract((), (), 0) == Const(0)
        assert contract(((), ()), (), 1) == (Const(0), Const(0))

    def test_linear_connection_with_no_fiber(self):
        # F has no rows at all, whatever the base dimension.
        u = SymbolUniverse(2, 0)
        assert linear_to_general(LinearConnection1(u, ())).F == ()

    def test_differentials_with_no_base(self):
        fd = function_differentials(Const(3), 1, SymbolUniverse(0, 1))
        assert fd.d1 == Const(0)
        fd = function_differentials(Const(3), 2, SymbolUniverse(0, 1))
        assert (fd.d1, fd.d2, fd.d12) == (Const(0), Const(0), Const(0))

    def test_matmul_of_empty_matrices(self):
        assert symbolic_matmul((), ()) == ()
        assert symbolic_matmul(((),), ()) == ((),)


if __name__ == "__main__":
    print(digest())

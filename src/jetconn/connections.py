"""First and second order connections as symbolic coefficient grids.

A first order connection on an (m, n) universe is the grid F_i^p(x, y):
fiber index p counts rows, base index i counts columns.  A second order
connection adds G_i^p and H_ij^p.  The product of two first order
connections has

    F' = F,   G' = Gbar,   H'_ij^p = dF_i^p/dx^j + sum_q dF_i^p/dy^q * Gbar_j^q

with i inherited from the first factor and j the differentiation direction.
Everything downstream (curvature, exchange, the one-parameter family,
classification) is index bookkeeping over these grids.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from . import evaluate
from .errors import DimensionMismatchError
from .expr import (
    Const,
    Expr,
    SymbolUniverse,
    Value,
    as_expr,
    build_grid,
    contract,
    diff,
    expr_grid,
    expr_sum,
    simplify,
    substitute,
)

HOLONOMIC = "holonomic"
SEMIHOLONOMIC = "semiholonomic"
NONHOLONOMIC = "nonholonomic"


class Connection1(Value):
    """First order connection: y_i^p = F_i^p(x, y)."""

    __slots__ = ("universe", "F")

    def __init__(self, universe: SymbolUniverse, F):
        shape = (universe.fiber_dim, universe.base_dim)
        names = SymbolUniverse(universe.base_dim, universe.fiber_dim)
        super().__init__(universe, expr_grid(F, shape, names, "F"))


class Connection2(Value):
    """Second order connection: y_i^p = F, y_0i^p = G, y_ij^p = H."""

    __slots__ = ("universe", "F", "G", "H")

    def __init__(self, universe: SymbolUniverse, F, G, H):
        n, m = universe.fiber_dim, universe.base_dim
        names = SymbolUniverse(m, n)
        F = expr_grid(F, (n, m), names, "F")
        G = expr_grid(G, (n, m), names, "G")
        super().__init__(universe, F, G, expr_grid(H, (n, m, m), names, "H"))


def _derived(universe: SymbolUniverse, F, G, H) -> Connection2:
    """A :class:`Connection2` of grids built from entries already checked.

    ``product``, ``family`` and ``exchange`` take F and G from checked
    connections and build H with ``build_grid`` from their entries, so
    nothing is checked again: the constructor would walk each entry for its
    names.
    """
    delta = object.__new__(Connection2)
    Value.__init__(delta, universe, F, G, H)
    return delta


class LinearConnection1(Value):
    """Linear first order connection, coefficients F_iq^p over the base.

    ``coeff[p-1][i-1][q-1]`` multiplies y^q in F_i^p.
    """

    __slots__ = ("universe", "coeff")

    def __init__(self, universe: SymbolUniverse, coeff):
        shape = (universe.fiber_dim, universe.base_dim, universe.fiber_dim)
        names = SymbolUniverse(universe.base_dim, 0)
        super().__init__(universe, expr_grid(coeff, shape, names, "coeff"))


class AffineConnection(Value):
    """Classical affine connection via Christoffel symbols Gamma^i_jk(x).

    ``christoffel[i-1][j-1][k-1]`` is Gamma^i_jk; no symmetry in (j, k) is
    assumed, so torsion is allowed.
    """

    __slots__ = ("dim", "christoffel")

    def __init__(self, dim: int, christoffel):
        if dim < 1:
            raise ValueError("dimension must be positive")
        names = SymbolUniverse(dim, 0)
        super().__init__(dim, expr_grid(christoffel, (dim, dim, dim), names, "christoffel"))

    @property
    def universe(self) -> SymbolUniverse:
        # Tangent-bundle picture: y variables are the fiber velocities.
        return SymbolUniverse(self.dim, self.dim)


class Classification(Value):
    """Verdict plus how it was decided.

    ``confidence`` is "symbolic" only when every comparison that fed the
    verdict was proved, exactly or by a verified enclosure (see
    :class:`jetconn.evaluate.EqualityResult`); one sampled comparison
    degrades the whole result to "probabilistic".
    """

    __slots__ = ("verdict", "confidence")

    def __str__(self):
        return f"{self.verdict} ({self.confidence})"


def product(gamma: Connection1, gamma_bar: Connection1) -> Connection2:
    """Product of two first order connections, a second order connection.

    The H block follows the displayed coordinate law: differentiate the
    first factor's F along x^j and along the fibers, contracting the fiber
    derivative with the second factor's coefficients.
    """
    if gamma.universe != gamma_bar.universe:
        raise DimensionMismatchError(
            "connections live on different universes: "
            f"({gamma.universe.base_dim},{gamma.universe.fiber_dim}) vs "
            f"({gamma_bar.universe.base_dim},{gamma_bar.universe.fiber_dim})"
        )
    u = gamma.universe
    m, n = u.base_dim, u.fiber_dim
    fiber = build_grid((n, m, n), lambda p, i, q: diff(gamma.F[p][i], f"y{q + 1}"))
    # Each entry of the second factor is simplified once, as a root, so it
    # keeps its result: every H entry that holds it reads that result.
    for row in gamma_bar.F:
        for entry in row:
            simplify(entry)

    def h(p, i, j):
        terms = [fiber[p][i][q] * gamma_bar.F[q][j] for q in range(n)]
        return simplify(expr_sum([diff(gamma.F[p][i], f"x{j + 1}")] + terms))

    return _derived(u, gamma.F, gamma_bar.F, build_grid((n, m, m), h))


def ehresmann_prolongation(gamma: Connection1) -> Connection2:
    """Self-product; semiholonomic by construction."""
    return product(gamma, gamma)


def curvature(gamma: Connection1) -> Tuple:
    """Antisymmetric part R_ij^p = H_ij^p - H_ji^p of the self-product's H."""
    u, H = gamma.universe, ehresmann_prolongation(gamma).H
    shape = (u.fiber_dim, u.base_dim, u.base_dim)
    return build_grid(shape, lambda p, i, j: simplify(H[p][i][j] - H[p][j][i]))


def exchange(delta: Connection2) -> Connection2:
    """Swap the two first order parts and transpose H.  An involution."""
    u = delta.universe
    transposed = build_grid(
        (u.fiber_dim, u.base_dim, u.base_dim), lambda p, i, j: delta.H[p][j][i]
    )
    return _derived(u, delta.G, delta.F, transposed)


def family(gamma: Connection1, k) -> Connection2:
    """Member k of the one-parameter family k*(G*G) + (1-k)*e(G*G).

    The affine combination acts on the H grid only; both endpoints share
    the first order parts, which is what makes it well defined.
    """
    if isinstance(k, bool) or not isinstance(k, (int, float, Fraction)):
        raise TypeError("family parameter must be a real number")
    delta = ehresmann_prolongation(gamma)
    u, H = delta.universe, delta.H
    ck = as_expr(k)
    cj = as_expr(1 - k)
    H = build_grid(
        (u.fiber_dim, u.base_dim, u.base_dim),
        lambda p, i, j: simplify(ck * H[p][i][j] + cj * H[p][j][i]),
    )
    return _derived(u, delta.F, delta.G, H)


def classify(delta: Connection2, policy: evaluate.SamplePolicy = None) -> Classification:
    """Sort a second order connection into the holonomy hierarchy.

    Semiholonomic when F and G agree entrywise; holonomic when H is
    additionally symmetric in its two lower indices.  Every comparison is
    carried out (no short-circuiting) so the confidence label reflects the
    whole decision.
    """
    u = delta.universe
    m, n = u.base_dim, u.fiber_dim
    checks = [
        evaluate.expr_equal(delta.F[p][i], delta.G[p][i], policy)
        for p in range(n)
        for i in range(m)
    ]
    semi = all(c.equal for c in checks)
    if semi:
        symmetric = [
            evaluate.expr_equal(delta.H[p][i][j], delta.H[p][j][i], policy)
            for p in range(n)
            for i in range(m)
            for j in range(i + 1, m)
        ]
        checks.extend(symmetric)
        verdict = HOLONOMIC if all(c.equal for c in symmetric) else SEMIHOLONOMIC
    else:
        verdict = NONHOLONOMIC
    symbolic = all(c.confidence == evaluate.SYMBOLIC for c in checks)
    confidence = evaluate.SYMBOLIC if symbolic else evaluate.PROBABILISTIC
    return Classification(verdict, confidence)


def linear_to_general(linear: LinearConnection1) -> Connection1:
    """Expand F_i^p = sum_q F_iq^p * y^q into a general connection."""
    u = linear.universe
    fiber = [u.var(name) for name in u.fiber_names]
    return Connection1(u, contract(linear.coeff, fiber, 2))


def affine_to_general(affine: AffineConnection) -> Connection1:
    """View an affine connection as a linear connection on TM -> M.

    The fiber variables y^l stand for the tangent coordinates, and the sign
    flips to match the classical transport equation: F (fiber row k, base
    column j) = -sum_l Gamma^k_jl * y^l.
    """
    u = affine.universe
    fiber = [u.var(name) for name in u.fiber_names]

    def entry(k, j):
        return simplify(-expr_sum(g * y for g, y in zip(affine.christoffel[k][j], fiber)))

    return Connection1(u, build_grid((affine.dim, affine.dim), entry))


def is_fiber_linear(gamma: Connection1) -> bool:
    """Structural test that every F_i^p is linear homogeneous in y.

    Checks that all second fiber derivatives vanish and that F is zero at
    y = 0.  Conservative: exotic but linear expressions the simplifier
    cannot collapse are reported nonlinear.
    """
    u = gamma.universe
    fiber = u.fiber_names
    at_zero = {name: Const(0) for name in fiber}
    for row in gamma.F:
        for e in row:
            if not _is_zero(simplify(substitute(e, at_zero))):
                return False
            for a in fiber:
                first = diff(e, a)
                for b in fiber:
                    if not _is_zero(diff(first, b)):
                        return False
    return True


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0

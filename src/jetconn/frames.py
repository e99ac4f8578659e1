"""Adapted frames and coframes, single and two-fold, plus validators.

Frame matrices follow the column convention: column b lists the coordinate
components of the b-th frame field, so the horizontal field sits in the
base columns and the matrix is block lower-triangular with unit diagonal.
Coframe matrices hold one 1-form per row; duality reads coframe * frame =
identity.

Two-fold coordinates are named u1..un (base), v1..vr1, w1..wr2, z1..zr12
for the three fiber families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Tuple

from ._tape import STATUS_MESSAGES, compile_program
from .connections import Connection1, Connection2
from .errors import EvalError, FrameVerificationError
from .evaluate import (
    PROBABILISTIC,
    SYMBOLIC,
    SamplePolicy,
    check_sampling,
    expr_equal,
    sample_rows,
)
from .expr import (
    Const,
    Sub,
    SymbolUniverse,
    Var,
    build_grid,
    contract,
    diff,
    expr_grid,
    expr_sum,
    simplify,
)


def _unit_lower(size: int, blocks=(), entry=None) -> Tuple:
    """The ``size`` square identity with ``blocks`` placed below the diagonal.

    Each block is ``(first_row, first_col, grid)``.  ``entry``, if given,
    maps every placed expression; the coframes place negated blocks.
    """
    placed = {
        (first_row + a, first_col + b): e if entry is None else entry(e)
        for first_row, first_col, grid in blocks
        for a, row in enumerate(grid)
        for b, e in enumerate(row)
    }
    return build_grid(
        (size, size), lambda r, c: placed.get((r, c), Const(1) if r == c else Const(0))
    )


def _negated(e):
    return simplify(-e)


def identity_matrix(size: int) -> Tuple:
    return _unit_lower(size)


def symbolic_matmul(a, b) -> Tuple:
    """Entrywise simplified product of two expression matrices."""
    columns = tuple(zip(*b))
    return build_grid((len(a), len(columns)), lambda i, j: contract(a[i], columns[j]))


@dataclass(frozen=True)
class AdaptedFrame:
    """Frame and coframe matrices of a first order connection."""

    universe: SymbolUniverse
    frame: Tuple
    coframe: Tuple


def adapted_frame(gamma: Connection1) -> AdaptedFrame:
    """Block matrices of the adapted basis X_i = d_i + F_i^p d_p.

    The frame's lower-left block is the coefficient grid F (fiber row p,
    base column i); the coframe's is -F, making the product the identity
    by construction.
    """
    u = gamma.universe
    size, block = u.base_dim + u.fiber_dim, [(u.base_dim, 0, gamma.F)]
    return AdaptedFrame(u, _unit_lower(size, block), _unit_lower(size, block, _negated))


# Largest n + r1 + r2 + r12: the frame is a 64x64 matrix of 4096 entries.
MAX_TWOFOLD_SIZE = 64


def twofold_names(dims) -> Tuple[str, ...]:
    """The coordinates u1..un, v1..vr1, w1..wr2, z1..zr12, in that order."""
    if len(dims) != 4:
        raise ValueError("dims must be (n, r1, r2, r12)")
    return tuple(
        f"{letter}{k}"
        for letter, count in zip("uvwz", dims)
        for k in range(1, count + 1)
    )


def twofold_universe(dims) -> SymbolUniverse:
    """Symbol universe holding u/v/w/z coordinates for the given dims.

    Every dimension must be positive and n + r1 + r2 + r12 at most
    :data:`MAX_TWOFOLD_SIZE`, the side of the frame matrix; both are
    checked before any name is built.
    """
    if len(dims) != 4:
        raise ValueError("dims must be (n, r1, r2, r12)")
    if min(dims) < 1:
        raise ValueError("all two-fold dimensions must be positive")
    if sum(dims) > MAX_TWOFOLD_SIZE:
        raise ValueError(
            f"two-fold dimensions sum to {sum(dims)}, above the bound {MAX_TWOFOLD_SIZE}"
        )
    return SymbolUniverse(0, 0, frozenset(twofold_names(dims)))


@dataclass(frozen=True)
class TwoFoldConnection:
    """Connection on a two-fold fibered manifold, stored as five blocks.

    ``dims`` is (n, r1, r2, r12).  The blocks are the base columns of the
    three fiber families plus the two mixed fiber blocks of the alpha-12
    rows; each entry may use any of the u/v/w/z coordinates.
    """

    dims: Tuple[int, int, int, int]
    g1_base: Tuple   # (r1 x n)   Gamma_j^{alpha1}
    g2_base: Tuple   # (r2 x n)   Gamma_j^{alpha2}
    g12_base: Tuple  # (r12 x n)  Gamma_j^{alpha12}
    g12_f1: Tuple    # (r12 x r1) Gamma_{beta1}^{alpha12}
    g12_f2: Tuple    # (r12 x r2) Gamma_{beta2}^{alpha12}

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        names = self.universe.extra_symbols
        n, r1, r2, r12 = self.dims
        shapes = {
            "g1_base": (r1, n),
            "g2_base": (r2, n),
            "g12_base": (r12, n),
            "g12_f1": (r12, r1),
            "g12_f2": (r12, r2),
        }
        for what, shape in shapes.items():
            object.__setattr__(self, what, expr_grid(getattr(self, what), shape, names, what))

    @property
    def universe(self) -> SymbolUniverse:
        return twofold_universe(self.dims)

    @property
    def size(self) -> int:
        return sum(self.dims)

    def variable_names(self) -> Tuple[str, ...]:
        return twofold_names(self.dims)


def _alpha12_base(conn: TwoFoldConnection, g12_base) -> Tuple:
    """The alpha12-row base block: ``g12_base`` if given, else the connection's."""
    if g12_base is None:
        return conn.g12_base
    shape = (conn.dims[3], conn.dims[0])
    return expr_grid(g12_base, shape, conn.universe.extra_symbols, "g12_base")


def _block_matrix(dims, blocks, entry=None) -> Tuple:
    """The unit lower-triangular matrix with the five blocks in place.

    ``blocks`` is (g1_base, g2_base, g12_base, g12_f1, g12_f2).  The alpha1
    and alpha2 rows take their base blocks; the alpha12 rows take their base
    block and the two mixed fiber blocks.  ``entry`` is as for
    :func:`_unit_lower`.
    """
    n, r1, r2, _ = dims
    o1, o2, o12 = n, n + r1, n + r1 + r2  # first alpha1, alpha2, alpha12 row
    placed = zip((o1, o2, o12, o12, o12), (0, 0, 0, o1, o2), blocks)
    return _unit_lower(sum(dims), placed, entry)


def twofold_frame(conn: TwoFoldConnection, g12_base=None) -> Tuple:
    """Assemble the block lower-triangular adapted-basis matrix.

    Optionally installs a replacement for the alpha12-row base block (the
    frame entry the dual coframe derivation treats as chosen data).
    """
    g12_base = _alpha12_base(conn, g12_base)
    blocks = (conn.g1_base, conn.g2_base, g12_base, conn.g12_f1, conn.g12_f2)
    return _block_matrix(conn.dims, blocks)


@dataclass(frozen=True)
class TwofoldCoframe:
    """Derived dual coframe plus the numeric duality verification record.

    ``frame`` is the adapted frame the coframe was verified against.
    """

    matrix: Tuple
    gamma_bar: Tuple
    max_deviation: float
    checked_points: int
    frame: Tuple


def twofold_dual_coframe(
    conn: TwoFoldConnection,
    g12_base=None,
    *,
    points: int = 100,
    tol: float = 1e-10,
    seed: int = 0,
) -> TwofoldCoframe:
    """Invert the adapted frame in closed block form.

    The only nontrivial entry is the base block of the alpha12 rows:
    gamma_bar = g12_base - g12_f1 * g1_base - g12_f2 * g2_base (matrix
    products over the fiber indices).  The result is verified numerically
    as a two-sided inverse at the points of :func:`sample_rows`: a failed
    evaluation raises :class:`EvalError`, and a deviation above ``tol`` or a
    non-finite value raises :class:`FrameVerificationError` with the point.
    """
    check_sampling(points, tol)
    n, r1, r2, r12 = conn.dims
    g12_base = _alpha12_base(conn, g12_base)

    def gamma_bar_entry(a, j):
        products = [conn.g12_f1[a][b] * conn.g1_base[b][j] for b in range(r1)]
        products += [conn.g12_f2[a][b] * conn.g2_base[b][j] for b in range(r2)]
        return simplify(reduce(Sub, products, g12_base[a][j]))

    gamma_bar = build_grid((r12, n), gamma_bar_entry)
    # The coframe holds every block negated, gamma_bar as the alpha12 base block.
    blocks = (conn.g1_base, conn.g2_base, gamma_bar, conn.g12_f1, conn.g12_f2)
    coframe = _block_matrix(conn.dims, blocks, _negated)
    frame = twofold_frame(conn, g12_base)

    # The residuals of coframe * frame - I and frame * coframe - I, over one
    # placeholder e0, e1, ... per distinct non-constant entry.  A constant
    # entry stays, so the terms it zeroes and the residuals that vanish drop out.
    entries = dict.fromkeys(e for row in frame + coframe for e in row if not isinstance(e, Const))
    held = {e: Var(f"e{k}") for k, e in enumerate(entries)}
    fr, co = (tuple(tuple(held.get(e, e) for e in row) for row in m) for m in (frame, coframe))
    products = chain(*symbolic_matmul(co, fr), *symbolic_matmul(fr, co))
    eye = [*chain(*identity_matrix(conn.size))] * 2
    residuals = [r for r in map(simplify, map(Sub, products, eye)) if r != Const(0)]
    entry_program = compile_program(list(entries), conn.variable_names())
    residual_program = compile_program(residuals, [v.name for v in held.values()])
    width, count = len(entries), len(residuals)
    worst = 0.0
    for chunk, values, status in sample_rows(entry_program, points, seed):
        if any(status):
            raise EvalError(STATUS_MESSAGES[next(filter(None, status))])
        rows = [values[k * width : (k + 1) * width] for k in range(len(chunk))]
        residual_values, _ = residual_program.rows(rows)
        for k, point in enumerate(chunk):
            row = rows[k] + residual_values[k * count : (k + 1) * count]
            # A non-finite entry or product leaves no meaningful deviation.
            finite = all(map(math.isfinite, row))
            dev = max(map(abs, row[width:]), default=0.0) if finite else math.inf
            if dev > tol:
                point = dict(zip(conn.variable_names(), point))
                raise FrameVerificationError(
                    f"coframe is not inverse to the frame at {point} (deviation {dev:.3e})"
                )
            worst = max(worst, dev)
    return TwofoldCoframe(coframe, gamma_bar, worst, points, frame)


@dataclass(frozen=True)
class LinearTwoFoldCoefficients:
    """Base-only coefficient tensors of a linear two-fold connection.

    Index order follows the subscript order of the coefficient names:
    ``c1[a1][j][b1]``, ``c2[a2][j][b2]``, ``c12_f1f2[a12][b1][b2]``,
    ``c12_f2f1[a12][b2][b1]``, ``c12_jf1f2[a12][j][b1][b2]``,
    ``c12_jf12[a12][j][b12]``.
    """

    dims: Tuple[int, int, int, int]
    c1: Tuple
    c2: Tuple
    c12_f1f2: Tuple
    c12_f2f1: Tuple
    c12_jf1f2: Tuple
    c12_jf12: Tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        twofold_universe(dims)  # checks the dims
        n, r1, r2, r12 = dims
        base = twofold_names((n, 0, 0, 0))
        shapes = {
            "c1": (r1, n, r1),
            "c2": (r2, n, r2),
            "c12_f1f2": (r12, r1, r2),
            "c12_f2f1": (r12, r2, r1),
            "c12_jf1f2": (r12, n, r1, r2),
            "c12_jf12": (r12, n, r12),
        }
        for what, shape in shapes.items():
            object.__setattr__(self, what, expr_grid(getattr(self, what), shape, base, what))


def linear_twofold(lin: LinearTwoFoldCoefficients) -> TwoFoldConnection:
    """Expand the linear coefficient tensors into connection blocks.

    The fiber blocks come out linear in the matching fiber coordinates and
    the alpha12 base block carries the bilinear v*w part plus the z part.
    """
    n, r1, r2, r12 = lin.dims
    u = twofold_universe(lin.dims)
    v, w, z = (
        [u.var(f"{letter}{k}") for k in range(1, count + 1)]
        for letter, count in zip("vwz", (r1, r2, r12))
    )

    def g12_base(a, j):
        vw, cz = lin.c12_jf1f2[a][j], lin.c12_jf12[a][j]
        bilinear = (vw[b1][b2] * v[b1] * w[b2] for b1 in range(r1) for b2 in range(r2))
        return simplify(expr_sum(bilinear) + expr_sum(c * zc for c, zc in zip(cz, z)))

    return TwoFoldConnection(
        lin.dims,
        contract(lin.c1, v, 2),
        contract(lin.c2, w, 2),
        build_grid((r12, n), g12_base),
        contract(lin.c12_f1f2, w, 2),
        contract(lin.c12_f2f1, v, 2),
    )


@dataclass(frozen=True)
class TwofoldTransform:
    """A coordinate change candidate on a two-fold fibered chart."""

    dims: Tuple[int, int, int, int]
    components: Tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        names = twofold_universe(dims).extra_symbols
        comps = expr_grid(self.components, (sum(dims),), names, "transform components")
        object.__setattr__(self, "components", comps)


@dataclass(frozen=True)
class JacobianReport:
    """Outcome of the block-structure validation of a transform Jacobian."""

    valid: bool
    violations: Tuple
    jacobian: Tuple
    confidence: str

    def __bool__(self):
        return self.valid


def validate_twofold_jacobian(
    transform: TwofoldTransform, policy: SamplePolicy = None
) -> JacobianReport:
    """Check the Jacobian against the two-fold block pattern.

    Base components may depend on u only; alpha1 components on (u, v);
    alpha2 components on (u, w); alpha12 components on everything.  Each
    forbidden block entry is tested for identical vanishing and reported
    with the component and variable names on violation.
    """
    n, r1, r2, r12 = transform.dims
    names = twofold_names(transform.dims)
    comps = transform.components
    jacobian = build_grid((len(comps), len(names)), lambda r, c: diff(comps[r], names[c]))

    o1, o2, o12 = n, n + r1, n + r1 + r2
    forbidden_cols = []
    for row in range(n):
        forbidden_cols.append((row, range(n, sum(transform.dims))))
    for row in range(o1, o2):
        forbidden_cols.append((row, range(o2, sum(transform.dims))))
    for row in range(o2, o12):
        cols = list(range(o1, o2)) + list(range(o12, sum(transform.dims)))
        forbidden_cols.append((row, cols))

    violations = []
    confidences = []
    for row, cols in forbidden_cols:
        for col in cols:
            entry = jacobian[row][col]
            check = expr_equal(entry, Const(0), policy)
            confidences.append(check.confidence)
            if not check.equal:
                violations.append((f"component {row + 1}", names[col]))
    confidence = (
        SYMBOLIC if all(c == SYMBOLIC for c in confidences) else PROBABILISTIC
    )
    return JacobianReport(not violations, tuple(violations), jacobian, confidence)


@dataclass(frozen=True)
class LiftRow:
    """Coefficients of one horizontal lift field X_i on the double fibration.

    ``dy[p-1]`` multiplies d/dy^p and ``dyj[p-1][j-1]`` multiplies the jet
    direction d/dy_j^p; the base part is the Kronecker delta in direction i.
    """

    direction: int
    dy: Tuple
    dyj: Tuple


def horizontal_lift_field(delta: Connection2) -> Tuple[LiftRow, ...]:
    """One lift row per base direction: X_i = d_i + F_i^p d_p + H_ij^p d_p^j.

    The d_p slot takes the F grid (first order row); for semiholonomic
    connections F and G agree and the choice is immaterial.
    """
    u = delta.universe
    m, n = u.base_dim, u.fiber_dim
    return tuple(
        LiftRow(
            i + 1,
            build_grid((n,), lambda p: delta.F[p][i]),
            build_grid((n, m), lambda p, j: delta.H[p][i][j]),
        )
        for i in range(m)
    )

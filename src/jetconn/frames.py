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

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ._tape import compile_program
from .connections import Connection1, Connection2
from .errors import FrameVerificationError
from .evaluate import PROBABILISTIC, SYMBOLIC, SamplePolicy, expr_equal
from .expr import Const, SymbolUniverse, diff, expr_grid, expr_sum, simplify


def _matrix(rows) -> Tuple:
    return tuple(tuple(row) for row in rows)


def identity_matrix(size: int) -> Tuple:
    return tuple(
        tuple(Const(1) if i == j else Const(0) for j in range(size))
        for i in range(size)
    )


def symbolic_matmul(a, b) -> Tuple:
    """Entrywise simplified product of two expression matrices."""
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            row.append(simplify(expr_sum(a[i][k] * b[k][j] for k in range(inner))))
        out.append(tuple(row))
    return tuple(out)


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
    m, n = u.base_dim, u.fiber_dim
    size = m + n
    frame = [[Const(0)] * size for _ in range(size)]
    coframe = [[Const(0)] * size for _ in range(size)]
    for d in range(size):
        frame[d][d] = Const(1)
        coframe[d][d] = Const(1)
    for p in range(n):
        for i in range(m):
            entry = gamma.F[p][i]
            frame[m + p][i] = entry
            coframe[m + p][i] = simplify(-entry)
    return AdaptedFrame(u, _matrix(frame), _matrix(coframe))


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


def _block_matrix(dims, g1_base, g2_base, g12_base, g12_f1, g12_f2) -> Tuple:
    """The unit lower-triangular matrix with the five blocks in place.

    The alpha1 and alpha2 rows take their base blocks; the alpha12 rows take
    their base block and the two mixed fiber blocks.
    """
    n, r1, r2, _ = dims
    size = sum(dims)
    rows = [[Const(0)] * size for _ in range(size)]
    for d in range(size):
        rows[d][d] = Const(1)
    o1, o2, o12 = n, n + r1, n + r1 + r2  # first alpha1, alpha2, alpha12 row
    placed = (
        (o1, 0, g1_base),
        (o2, 0, g2_base),
        (o12, 0, g12_base),
        (o12, o1, g12_f1),
        (o12, o2, g12_f2),
    )
    for first_row, first_col, block in placed:
        for a, entries in enumerate(block):
            rows[first_row + a][first_col : first_col + len(entries)] = entries
    return _matrix(rows)


def twofold_frame(conn: TwoFoldConnection, g12_base=None) -> Tuple:
    """Assemble the block lower-triangular adapted-basis matrix.

    Optionally installs a replacement for the alpha12-row base block (the
    frame entry the dual coframe derivation treats as chosen data).
    """
    return _block_matrix(
        conn.dims,
        conn.g1_base,
        conn.g2_base,
        _alpha12_base(conn, g12_base),
        conn.g12_f1,
        conn.g12_f2,
    )


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
    as a two-sided inverse at random sample points; failure raises
    :class:`FrameVerificationError` with the offending point.
    """
    n, r1, r2, r12 = conn.dims
    size = conn.size
    g12_base = _alpha12_base(conn, g12_base)

    gamma_bar = []
    for a in range(r12):
        row = []
        for j in range(n):
            e = g12_base[a][j]
            for b in range(r1):
                e = e - conn.g12_f1[a][b] * conn.g1_base[b][j]
            for b in range(r2):
                e = e - conn.g12_f2[a][b] * conn.g2_base[b][j]
            row.append(simplify(e))
        gamma_bar.append(tuple(row))
    gamma_bar = tuple(gamma_bar)

    # The coframe holds every block negated, gamma_bar as the alpha12 base block.
    blocks = (conn.g1_base, conn.g2_base, gamma_bar, conn.g12_f1, conn.g12_f2)
    negated = [tuple(tuple(simplify(-e) for e in row) for row in b) for b in blocks]
    coframe = _block_matrix(conn.dims, *negated)

    frame = twofold_frame(conn, g12_base)
    names = conn.variable_names()
    flat = [e for row in frame for e in row] + [e for row in coframe for e in row]
    program = compile_program(flat, names)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-2.0, 2.0, size=(points, len(names)))
    values = program.eval_checked(samples)
    count = size * size
    eye = np.eye(size)
    worst = 0.0
    for row_index in range(points):
        fr = values[row_index, :count].reshape(size, size)
        co = values[row_index, count:].reshape(size, size)
        dev = max(
            np.abs(co @ fr - eye).max(),
            np.abs(fr @ co - eye).max(),
        )
        if dev > tol:
            point = dict(zip(names, samples[row_index].tolist()))
            raise FrameVerificationError(
                f"coframe is not inverse to the frame at {point} (deviation {dev:.3e})"
            )
        worst = max(worst, float(dev))
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

    def v(a):
        return u.var(f"v{a}")

    def w(a):
        return u.var(f"w{a}")

    def z(a):
        return u.var(f"z{a}")

    g1_base = tuple(
        tuple(
            simplify(expr_sum(lin.c1[a][j][b] * v(b + 1) for b in range(r1)))
            for j in range(n)
        )
        for a in range(r1)
    )
    g2_base = tuple(
        tuple(
            simplify(expr_sum(lin.c2[a][j][b] * w(b + 1) for b in range(r2)))
            for j in range(n)
        )
        for a in range(r2)
    )
    g12_f1 = tuple(
        tuple(
            simplify(expr_sum(lin.c12_f1f2[a][b1][b2] * w(b2 + 1) for b2 in range(r2)))
            for b1 in range(r1)
        )
        for a in range(r12)
    )
    g12_f2 = tuple(
        tuple(
            simplify(expr_sum(lin.c12_f2f1[a][b2][b1] * v(b1 + 1) for b1 in range(r1)))
            for b2 in range(r2)
        )
        for a in range(r12)
    )
    g12_base = tuple(
        tuple(
            simplify(
                expr_sum(
                    lin.c12_jf1f2[a][j][b1][b2] * v(b1 + 1) * w(b2 + 1)
                    for b1 in range(r1)
                    for b2 in range(r2)
                )
                + expr_sum(lin.c12_jf12[a][j][b] * z(b + 1) for b in range(r12))
            )
            for j in range(n)
        )
        for a in range(r12)
    )
    return TwoFoldConnection(lin.dims, g1_base, g2_base, g12_base, g12_f1, g12_f2)


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
    jacobian = tuple(
        tuple(diff(c, name) for name in names) for c in transform.components
    )

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
    rows = []
    for i in range(m):
        dy = tuple(delta.F[p][i] for p in range(n))
        dyj = tuple(tuple(delta.H[p][i][j] for j in range(m)) for p in range(n))
        rows.append(LiftRow(i + 1, dy, dyj))
    return tuple(rows)

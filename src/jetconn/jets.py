"""Index combinatorics for nonholonomic jets and iterated tangent coordinates.

A jet coordinate of order r over an m-dimensional base is addressed by a
sequence (k1, ..., kr) with each entry in {0, 1, ..., m}; 0 means "no
differentiation at that slot".  The subsequence of nonzero entries, in
order, is the core written <k1, ..., kr>.  A stored point is semiholonomic
when coordinates with equal cores carry equal values, and holonomic when
the value depends only on the multiset of core entries.

Tangent-coordinate points model T^k M: one n-vector per subset S of
{1, ..., k}, with the projections rho_s dropping every subset containing s.
"""

from __future__ import annotations

import itertools
import math
from typing import Tuple

from .errors import DimensionMismatchError
from .expr import Expr, SymbolUniverse, Value, Var, contract, diff, expr_grid, expr_sum, simplify

MAX_ORDER = 4
MAX_BASE_DIM = 3
VALUE_TOL = 1e-12


def _check_bounds(order: int, base_dim: int):
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"jet order {order} outside the supported range 0..{MAX_ORDER}")
    if base_dim < 1 or base_dim > MAX_BASE_DIM:
        raise ValueError(
            f"base dimension {base_dim} outside the supported range 1..{MAX_BASE_DIM}"
        )


def all_sequences(order: int, base_dim: int) -> Tuple[Tuple[int, ...], ...]:
    """All (base_dim+1)^order index sequences, in odometer order."""
    _check_bounds(order, base_dim)
    return tuple(itertools.product(range(base_dim + 1), repeat=order))


class JetSequence(Value):
    """One index sequence (k1, ..., kr) with entries in 0..base_dim."""

    __slots__ = ("entries", "base_dim")

    def __init__(self, entries, base_dim: int):
        entries = tuple(int(k) for k in entries)
        _check_bounds(len(entries), base_dim)
        for k in entries:
            if not 0 <= k <= base_dim:
                raise ValueError(f"index {k} outside 0..{base_dim}")
        super().__init__(entries, base_dim)

    @property
    def order(self) -> int:
        return len(self.entries)


def nonzero_core(seq) -> Tuple[int, ...]:
    """The subsequence of nonzero entries, original order kept."""
    entries = seq.entries if isinstance(seq, JetSequence) else tuple(seq)
    return tuple(k for k in entries if k != 0)


class JetPoint(Value):
    """A point of the order-r nonholonomic jet space, stored densely.

    ``values`` maps (fiber index p, index sequence) to a real; the all-zero
    sequence slot holds y^p itself.  The table must cover every sequence for
    every p.  Points are unhashable, since the table is a dict.
    """

    __slots__ = ("order", "base_dim", "fiber_dim", "base", "values")
    __hash__ = None

    def __init__(self, order, base_dim, fiber_dim, base, values):
        _check_bounds(order, base_dim)
        if fiber_dim < 1:
            raise ValueError("fiber dimension must be positive")
        base = tuple(float(v) for v in base)
        if len(base) != base_dim:
            raise DimensionMismatchError(
                f"base point has {len(base)} coordinates, expected {base_dim}"
            )
        table = {}
        for key, value in values.items():
            p, seq = key
            table[(int(p), tuple(int(k) for k in seq))] = float(value)
        # The table must hold exactly the fiber_dim * len(sequences) keys of
        # the jet space.  They are counted, never listed, since fiber_dim
        # comes from the file; the first missing keys turn up within
        # len(table) + 3 of them.
        sequences = all_sequences(order, base_dim)
        known = frozenset(sequences)
        extra = sorted(key for key in table if not (1 <= key[0] <= fiber_dim
                                                   and key[1] in known))[:3]
        if extra or len(table) != fiber_dim * len(sequences):
            expected = ((p, seq) for p in range(1, fiber_dim + 1) for seq in sequences)
            missing = list(itertools.islice((k for k in expected if k not in table), 3))
            raise ValueError(
                f"jet point table mismatch; missing {missing}, unexpected {extra}"
            )
        for key, value in table.items():
            if not math.isfinite(value):
                raise ValueError(f"non-finite value at {key}")
        super().__init__(order, base_dim, fiber_dim, base, table)

    def __repr__(self):
        return (
            f"JetPoint(order={self.order}, base_dim={self.base_dim}, "
            f"fiber_dim={self.fiber_dim})"
        )


def _constant_on_groups(point: JetPoint, key, tol: float) -> bool:
    # True when stored values are constant (within tol) on each key-class.
    spans = {}
    for (p, seq), value in point.values.items():
        k = (p, key(seq))
        lo, hi = spans.get(k, (value, value))
        spans[k] = (min(lo, value), max(hi, value))
    return all(hi - lo <= tol for lo, hi in spans.values())


def is_semiholonomic_point(point: JetPoint, tol: float = VALUE_TOL) -> bool:
    """Equal nonzero cores force equal values, within abs tolerance."""
    return _constant_on_groups(point, nonzero_core, tol)


def is_holonomic_point(point: JetPoint, tol: float = VALUE_TOL) -> bool:
    """Semiholonomic, and invariant under permuting the core."""
    return is_semiholonomic_point(point, tol) and _constant_on_groups(
        point, lambda seq: tuple(sorted(nonzero_core(seq))), tol
    )


def target_projection(point: JetPoint, q: int) -> JetPoint:
    """Project to order q by keeping sequences whose last r-q slots are 0."""
    r = point.order
    if not 0 <= q <= r:
        raise ValueError(f"target order {q} outside 0..{r}")
    tail = (0,) * (r - q)
    values = {
        (p, seq): point.values[(p, seq + tail)]
        for p in range(1, point.fiber_dim + 1)
        for seq in all_sequences(q, point.base_dim)
    }
    return JetPoint(q, point.base_dim, point.fiber_dim, point.base, values)


def prolonged_projection(point: JetPoint, k: int, q: int) -> JetPoint:
    """Apply the prolonged projection J^k pi^{r-k}_{q-k} to the stored table.

    Keeps sequences whose entries at 1-based positions q-k+1 .. r-k vanish,
    deletes those positions (the outer k slots and the leading q-k slots
    survive), and reindexes the result as an order-q point.
    """
    r = point.order
    if not 1 <= k <= q <= r:
        raise ValueError(f"need 1 <= k <= q <= r, got k={k}, q={q}, r={r}")
    dropped = range(q - k, r - k)  # 0-based slots that must hold 0
    values = {}
    for (p, seq), value in point.values.items():
        if all(seq[pos] == 0 for pos in dropped):
            kept = tuple(seq[pos] for pos in range(r) if pos not in dropped)
            values[(p, kept)] = value
    return JetPoint(q, point.base_dim, point.fiber_dim, point.base, values)


def jet_points_close(a: JetPoint, b: JetPoint, tol: float = VALUE_TOL) -> bool:
    """Same shape and every stored value within abs tolerance."""
    if (a.order, a.base_dim, a.fiber_dim) != (b.order, b.base_dim, b.fiber_dim):
        return False
    if any(abs(x - y) > tol for x, y in zip(a.base, b.base)):
        return False
    return all(abs(value - b.values[key]) <= tol for key, value in a.values.items())


def projections_agree(point: JetPoint, tol: float = VALUE_TOL) -> bool:
    """Cross-check of semiholonomy through projection agreement.

    True when the prolonged projection matches the target projection for
    every pair 1 <= k <= q <= r.  Equivalent to the core-based test; the
    equivalence is exercised by the test suite rather than assumed.
    """
    r = point.order
    for q in range(1, r + 1):
        target = target_projection(point, q)
        for k in range(1, q + 1):
            if not jet_points_close(prolonged_projection(point, k, q), target, tol):
                return False
    return True


class TangentCoordPoint(Value):
    """A point of the k-th iterated tangent bundle in subset coordinates.

    ``values`` maps each subset of {1, ..., level}, given as a sorted tuple,
    to an n-vector.  No consistency between the slots is assumed.  Points
    are unhashable, since the table is a dict.
    """

    __slots__ = ("level", "dim", "values")
    __hash__ = None

    def __init__(self, level, dim, values):
        if level < 0:
            raise ValueError("level must be non-negative")
        if dim < 1:
            raise ValueError("dimension must be positive")
        table = {}
        for subset, vec in values.items():
            key = tuple(sorted(int(s) for s in subset))
            vec = tuple(float(v) for v in vec)
            if len(vec) != dim:
                raise DimensionMismatchError(
                    f"vector at subset {key} has length {len(vec)}, expected {dim}"
                )
            table[key] = vec
        expected = {
            tuple(sorted(s))
            for size in range(level + 1)
            for s in itertools.combinations(range(1, level + 1), size)
        }
        if set(table) != expected:
            raise ValueError("subset table must cover all subsets of {1..level} exactly")
        super().__init__(level, dim, table)

    def __repr__(self):
        return f"TangentCoordPoint(level={self.level}, dim={self.dim})"


def rho_projection(point: TangentCoordPoint, s: int) -> TangentCoordPoint:
    """Drop every subset containing s; shift indices above s down by one."""
    if not 1 <= s <= point.level:
        raise ValueError(f"projection index {s} outside 1..{point.level}")
    values = {}
    for subset, vec in point.values.items():
        if s in subset:
            continue
        values[tuple(x - 1 if x > s else x for x in subset)] = vec
    return TangentCoordPoint(point.level - 1, point.dim, values)


class FunctionDifferentials(Value):
    """Differentials of a base function on T M or T^2 M.

    ``d1`` is f_1 = f_i x{i}_1; at level 2, ``d2`` is the same along the
    second tangent copy and ``d12`` = f_ij x{i}_1 x{j}_2 + f_i x{i}_12.
    The extended universe carries the velocity variables.
    """

    __slots__ = ("universe", "level", "d1", "d2", "d12")

    def __init__(self, universe: SymbolUniverse, level: int, d1: Expr, d2=None, d12=None):
        super().__init__(universe, level, d1, d2, d12)


def tangent_universe(universe: SymbolUniverse, level: int) -> SymbolUniverse:
    """The universe extended with velocity variables x{i}_1 [, x{i}_2, x{i}_12]."""
    suffixes = ("1",) if level == 1 else ("1", "2", "12")
    extras = set(universe.extra_symbols)
    extras.update(
        f"x{i}_{s}" for i in range(1, universe.base_dim + 1) for s in suffixes
    )
    return SymbolUniverse(universe.base_dim, universe.fiber_dim, frozenset(extras))


def function_differentials(
    f: Expr, level: int, universe: SymbolUniverse
) -> FunctionDifferentials:
    """Symbolic differentials of a function of the base coordinates.

    Level 1 returns f_1 only; level 2 adds f_2 and the second differential
    f_12.  Raises when f touches anything but base variables.
    """
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    f = expr_grid(f, (), universe.base_names, "function")
    extended = tangent_universe(universe, level)
    base = universe.base_names
    grad = [diff(f, name) for name in base]
    dx1, dx2, dx12 = ([Var(f"{name}_{s}") for name in base] for s in ("1", "2", "12"))
    d1 = contract(grad, dx1)
    if level == 1:
        return FunctionDifferentials(extended, 1, d1)
    d2 = contract(grad, dx2)
    terms = [diff(g, b) * v1 * v2 for g, v1 in zip(grad, dx1) for b, v2 in zip(base, dx2)]
    terms += [g * dx for g, dx in zip(grad, dx12)]
    return FunctionDifferentials(extended, 2, d1, d2, simplify(expr_sum(terms)))

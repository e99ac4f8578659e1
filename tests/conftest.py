"""Shared generators for randomized tests.

Everything draws from numpy Generators seeded by the caller, so each test
controls its own stream and failures reproduce from the seed alone.
"""

import numpy as np
import pytest

from jetconn import (
    Connection1,
    Const,
    JetPoint,
    SymbolUniverse,
    Var,
    eval_expr,
    simplify,
)
from jetconn.expr import Add, Div, Expr, Fn, Mul, Neg, Pow, Sub, postorder
from jetconn.jets import all_sequences, nonzero_core


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def sample_dir():
    import pathlib

    return pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


def poly_expr(rng, names, max_terms=3, max_degree=2, max_coeff=3):
    """Random polynomial with small integer coefficients, never empty."""
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        coeff = int(rng.integers(1, max_coeff + 1)) * int(rng.choice((-1, 1)))
        term = Const(coeff)
        degree = int(rng.integers(0, max_degree + 1))
        for _ in range(degree):
            term = Mul(term, Var(str(rng.choice(names))))
        terms.append(term)
    out = terms[0]
    for term in terms[1:]:
        out = Add(out, term)
    return out


def random_expr(rng, names, depth=4):
    """Random AST over the full node set; functions kept shallow."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(int(rng.integers(-4, 5)))
        return Var(str(rng.choice(names)))
    pick = rng.random()
    if pick < 0.18:
        return Add(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if pick < 0.36:
        return Sub(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if pick < 0.58:
        return Mul(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if pick < 0.68:
        return Div(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
    if pick < 0.78:
        return Neg(random_expr(rng, names, depth - 1))
    if pick < 0.88:
        return Pow(random_expr(rng, names, depth - 2), int(rng.integers(0, 4)))
    name = str(rng.choice(("sin", "cos", "exp", "ln")))
    return Fn(name, random_expr(rng, names, depth - 2))


def halved(e):
    """``e`` with each constant k replaced by the float k/2."""
    done = {}
    for node in postorder([e]):
        if type(node) is Const:
            out = Const(node.value / 2)
        elif type(node) is Var:
            out = node
        else:
            out = type(node)(*[done[id(f)] if isinstance(f, Expr) else f for f in node._key()])
        done[id(node)] = out
    return done[id(e)]


def random_entries(seed, floats=False, count=2):
    """``count`` random_expr trees of depth 3 over x1, x2 and y1, drawn from
    ``seed``: the entries of order-1 connections with m = 2 and n = 1.  With
    ``floats``, each constant k is the float k/2."""
    rng = np.random.default_rng(seed)
    entries = [random_expr(rng, ("x1", "x2", "y1"), depth=3) for _ in range(count)]
    return [halved(e) for e in entries] if floats else entries


def random_connection1(rng, m, n, simplified=True):
    u = SymbolUniverse(m, n)
    names = u.base_names + u.fiber_names
    grid = []
    for _ in range(n):
        row = [poly_expr(rng, names) for _ in range(m)]
        grid.append(tuple(simplify(e) if simplified else e for e in row))
    return Connection1(u, tuple(grid))


def random_jet_point(rng, r, m, n, force_semiholonomic=False):
    """Dense random jet; the forced variant is constant on each core group."""
    table = {}
    core_values = {}
    for p in range(1, n + 1):
        for seq in all_sequences(r, m):
            if force_semiholonomic:
                key = (p, nonzero_core(seq))
                if key not in core_values:
                    core_values[key] = float(rng.uniform(-5, 5))
                table[(p, seq)] = core_values[key]
            else:
                table[(p, seq)] = float(rng.uniform(-5, 5))
    base = tuple(float(v) for v in rng.uniform(-2, 2, size=m))
    return JetPoint(r, m, n, base, table)


def fd_product_entry(gamma, gamma_bar, p, i, j, point, h=1e-5):
    """Central-difference oracle for one H entry of the product."""
    u = gamma.universe
    m, n = u.base_dim, u.fiber_dim

    def f_at(assign):
        return eval_expr(gamma.F[p][i], assign)

    xj = u.base_names[j]
    up = dict(point)
    up[xj] += h
    dn = dict(point)
    dn[xj] -= h
    base_part = (f_at(up) - f_at(dn)) / (2 * h)

    gvec = [eval_expr(gamma_bar.F[q][j], point) for q in range(n)]
    up = dict(point)
    dn = dict(point)
    for q in range(n):
        yq = u.fiber_names[q]
        up[yq] += h * gvec[q]
        dn[yq] -= h * gvec[q]
    fiber_part = (f_at(up) - f_at(dn)) / (2 * h)
    return base_part + fiber_part

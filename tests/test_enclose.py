"""Interval enclosures and the certified-inequality route of ``expr_equal``.

An enclosure must hold the exact value of an expression at a point.  It is
checked against 60-digit mpmath values and against the kernel's float
value, and the libm accuracy it assumes is checked against 50-digit values.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from jetconn import (
    PROBABILISTIC,
    SYMBOLIC,
    SamplePolicy,
    SamplingError,
    SymbolUniverse,
    expr_equal,
    parse_expr,
)
from jetconn import _enclose, evaluate
from jetconn._tape import compile_program
from jetconn.expr import Add, Const, Fn, Mul, Neg, Pow, Sub, Var, expr_sum

from conftest import random_expr

U = SymbolUniverse(2, 1)
NAMES = ("x1", "x2", "y1")


def P(text):
    return parse_expr(text, U)


def one(e, **point):
    out = _enclose.enclose([e], point)
    return None if out is None else out[0]


def contains(interval, exact) -> bool:
    lo, hi = interval
    return Fraction(lo) <= exact <= Fraction(hi)


# --- soundness on random trees ------------------------------------------------


def exact_value(mp, e, point):
    """The value of ``e`` at ``point`` to 60 digits, through mpmath."""
    if isinstance(e, Const):
        return mp.mpf(e.value.numerator) / e.value.denominator  # exact: no float constants
    if isinstance(e, Var):
        return mp.mpf(point[e.name])
    if isinstance(e, Neg):
        return -exact_value(mp, e.arg, point)
    if isinstance(e, Pow):
        return exact_value(mp, e.base, point) ** e.exponent
    if isinstance(e, Fn):
        f = {"sin": mp.sin, "cos": mp.cos, "exp": mp.exp, "ln": mp.log}[e.name]
        return f(exact_value(mp, e.arg, point))
    left, right = exact_value(mp, e.left, point), exact_value(mp, e.right, point)
    if isinstance(e, Add):
        return left + right
    if isinstance(e, Sub):
        return left - right
    if isinstance(e, Mul):
        return left * right
    return left / right


def random_trees(rng, count):
    """``random_expr`` trees, some scaled by a constant that is not a double
    and some raised to a negative power."""
    for _ in range(count):
        e = random_expr(rng, NAMES)
        pick = rng.random()
        if pick < 0.25:
            e = Mul(Const(Fraction(int(rng.integers(1, 10)), int(rng.choice((3, 7, 10))))), e)
        elif pick < 0.4:
            e = Pow(e, -int(rng.integers(1, 4)))
        yield e


def test_enclosures_hold_exact_and_kernel_values():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(11)
    defined = 0
    with mp.workdps(60):
        for e in random_trees(rng, 3000):
            program = compile_program([e], NAMES)
            for scale in (1.0, float(10 ** rng.uniform(-3, 3))):
                row = [float(v) * scale for v in rng.uniform(-2, 2, size=len(NAMES))]
                interval = one(e, **dict(zip(NAMES, row)))
                if interval is None:
                    continue
                defined += 1
                lo, hi = interval
                value = exact_value(mp, e, dict(zip(NAMES, row)))
                assert mp.mpf(lo) <= value <= mp.mpf(hi), (e, row, interval)
                values, status = program.rows([row])
                if status[0] == 0 and math.isfinite(values[0]):
                    assert lo <= values[0] <= hi, (e, row, interval)
    assert defined > 4000


def test_shared_subtrees_and_several_expressions():
    x = Var("x1")
    s = Fn("sin", Mul(x, x))
    a, b = Add(s, s), Mul(s, s)
    (alo, ahi), (blo, bhi) = _enclose.enclose([a, b], {"x1": 0.5})
    assert alo <= 2 * math.sin(0.25) <= ahi and blo <= math.sin(0.25) ** 2 <= bhi


def test_long_sum_and_deep_dag():
    # Both are walked once per distinct node, without recursion: the DAG has
    # 2^60 paths through 61 nodes.
    x = Var("x1")
    long = expr_sum(Mul(Const(k), x) for k in range(1, 10_001))
    dag = Fn("sin", x)
    for _ in range(60):
        dag = Add(dag, dag)
    [(lo, hi)] = _enclose.enclose([long], {"x1": 0.5})
    assert lo <= 0.5 * 10_000 * 10_001 / 2 <= hi
    [(lo, hi)] = _enclose.enclose([dag], {"x1": 0.5})
    assert lo <= 2.0**60 * math.sin(0.5) <= hi
    assert not evaluate._holds_atom(long)
    assert evaluate._holds_atom(Sub(long, Fn("exp", x)))
    assert evaluate._holds_atom(dag)


# --- edge cases -----------------------------------------------------------------


def test_constant_that_is_not_a_double_is_widened():
    lo, hi = one(Const(Fraction(1, 3)))
    assert lo < Fraction(1, 3) < hi
    assert hi == math.nextafter(math.nextafter(lo, 1.0), 1.0)
    assert one(Const(Fraction(1, 2))) == (0.5, 0.5)
    assert one(Const(Fraction(10**400))) is None


def test_integer_powers_hold_the_exact_power():
    rng = np.random.default_rng(3)
    for x in [float(v) for v in rng.uniform(-2, 2, 40)]:
        for n in range(-6, 41):
            assert contains(one(Pow(Var("x1"), n), x1=x), Fraction(x) ** n), (x, n)
    lo, hi = one(Pow(Var("x1"), 2), x1=0.0)
    assert lo <= 0.0 <= hi


def test_negative_power_near_zero():
    e = Pow(Var("x1"), -3)
    for x in (1e-5, -1e-5, 1e-100):
        assert contains(one(e, x1=x), Fraction(x) ** -3)
    assert one(e, x1=0.0) is None
    # The cube underflows, so its enclosure reaches 0: skipped, as the
    # kernel's inf would be.
    assert one(e, x1=1e-110) is None


def test_ln_near_zero():
    e = Fn("ln", Var("x1"))
    lo, hi = one(e, x1=5e-324)
    assert lo < math.log(5e-324) < hi
    assert one(e, x1=0.0) is None
    assert one(e, x1=-1e-300) is None
    # x1*x1 underflows to an interval that reaches 0: skipped though defined.
    assert one(Fn("ln", Mul(Var("x1"), Var("x1"))), x1=1e-200) is None


def test_exp_overflow_is_skipped_not_certified():
    e = P("exp(1000*x1)")
    assert one(e, x1=1.0) is None
    lo, hi = one(e, x1=-1.0)
    assert lo == 0.0 < hi
    # Every point overflows, so no enclosure certifies; sampling then finds
    # no point where both sides are finite.
    with pytest.raises(SamplingError):
        expr_equal(P("exp(1000 + x1^2)"), P("2*exp(1000 + x1^2)"))


def test_separated_is_the_negated_sampling_test():
    assert _enclose.separated((1.0, 1.0), (3.0, 3.0), 1e-9)
    assert not _enclose.separated((1.0, 1.0), (3.0, 3.0), 1.0)  # |1 - 3| <= 1*(1 + 1)
    assert not _enclose.separated((1.0, 2.0), (1.5, 1.5), 0.0)
    assert _enclose.separated((-1e308, -1e308), (1e308, 1e308), 1e-9)


# --- the route in expr_equal ---------------------------------------------------


def test_gap_below_tol_stays_equal_and_sampled():
    # sin(x1) against sin(x1) + 1e-12 simplifies to a constant difference,
    # so the gap is put inside the atom, or scaled by one.
    for b in ("sin(x1 + 1e-12)", "sin(x1) + 1e-12*cos(x2)"):
        assert expr_equal(P("sin(x1)"), P(b)) == evaluate.EqualityResult(True, PROBABILISTIC)


def test_tol_governs_the_certificate():
    a, b = P("sin(x1)"), P("sin(x1 + 1/1000000)")
    assert expr_equal(a, b) == evaluate.EqualityResult(False, SYMBOLIC)
    loose = SamplePolicy(tol=1e-3)
    assert expr_equal(a, b, loose) == evaluate.EqualityResult(True, PROBABILISTIC)


def test_certificate_agrees_with_sampling(monkeypatch):
    rng = np.random.default_rng(5)
    pairs = []
    while len(pairs) < 60:
        a, b = random_expr(rng, NAMES), random_expr(rng, NAMES)
        if evaluate._holds_atom(Sub(a, b)):
            pairs.append((a, b))

    def verdicts():
        out = []
        for a, b in pairs:
            try:
                out.append(expr_equal(a, b))
            except SamplingError:
                out.append(None)
        return out

    certified = verdicts()
    monkeypatch.setattr(evaluate, "CERTIFY_POINTS", 0)
    sampled = verdicts()
    assert sum(r is not None and r.confidence != PROBABILISTIC for r in sampled) < sum(
        r is not None and r.confidence != PROBABILISTIC for r in certified
    )
    verdict = lambda r: None if r is None else r.equal
    assert list(map(verdict, certified)) == list(map(verdict, sampled))


# --- the libm assumption -------------------------------------------------------


def libm_points(rng):
    """Seeded arguments over the ranges an enclosure meets."""
    near = rng.uniform(-8, 8, 1500)
    wide = rng.choice((-1.0, 1.0), 1500) * 10.0 ** rng.uniform(-300, 5, 1500)
    periodic = [float(x) for x in np.concatenate((near, wide))]
    return {
        math.sin: periodic,
        math.cos: periodic,
        math.exp: [float(x) for x in rng.uniform(-745, 709.7, 3000)],
        math.log: [float(x) for x in 10.0 ** rng.uniform(-300, 300, 3000)],
    }


def test_libm_within_one_ulp():
    mp = pytest.importorskip("mpmath")
    exact = {math.sin: mp.sin, math.cos: mp.cos, math.exp: mp.exp, math.log: mp.log}
    rng = np.random.default_rng(2010)
    with mp.workdps(50):
        for f, points in libm_points(rng).items():
            for x in points:
                got, want = f(x), exact[f](mp.mpf(x))
                assert abs(mp.mpf(got) - want) <= math.ulp(got), (f.__name__, x)
                # LIBM_STEPS steps each way cover that ulp.
                lo, hi = _enclose._libm(got)
                assert mp.mpf(lo) <= want <= mp.mpf(hi)

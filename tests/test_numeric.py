import pickle
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from krylov_exact import Context, Tolerance
from krylov_exact.errors import DimensionMismatch, ModeError
from krylov_exact.numeric import exact_sqrt, rational

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


def test_exp_identity_exact(ctx):
    assert ctx.exp(ctx.zero) == 1


def test_exp_nonzero_exact_rejected(ctx):
    with pytest.raises(ModeError):
        ctx.exp(ctx.frac(1, 2))


def test_exp_inverse_function_identity(bctx):
    with bctx.work():
        x = mpmath.mp.log(2)
        val = bctx.exp(x)
        assert abs(val - 2) / 2 < bctx.num("1e-48")


def test_exp_against_series_oracle(bctx):
    # independent oracle: partial sums of sum (-1)^k / k! in exact rationals
    acc = Fraction(0)
    term = Fraction(1)
    for k in range(1, 60):
        acc += term
        term = -term / k
    expected = bctx.num(str(acc.numerator)) / bctx.num(str(acc.denominator))
    got = bctx.exp(bctx.num(-1))
    assert abs(got - expected) < bctx.num("1e-48")
    assert bctx.fmt(got).startswith("0.36787944117144232")


def test_is_zero_cases(ctx, bctx):
    assert ctx.is_zero(ctx.zero)
    assert not ctx.is_zero(ctx.frac(1, 3))
    # default bigreal threshold at 50 digits is 1e-40
    assert bctx.is_zero(bctx.num("1e-45"))
    assert not bctx.is_zero(bctx.num("1e-35"))


def test_exact_comparisons_stay_literal(ctx):
    tiny = ctx.num(Fraction(1, 10**100))
    assert not ctx.is_zero(tiny) and not ctx.is_zero(-tiny)
    x = ctx.frac(1, 3)
    assert not ctx.close(x, x + tiny)
    assert ctx.close(x, ctx.frac(2, 6))
    # the relative scale max(|x|, |y|, 1) loosens nothing in exact mode
    big = ctx.num(10**100)
    assert not ctx.close(big, big + 1)


def test_tolerance_computed_once_per_mode_and_precision(bctx):
    assert bctx.default_tolerance() is Tolerance.for_mode("bigreal", 50)
    assert Context("bigreal", 60).default_tolerance() is not bctx.default_tolerance()


def test_default_tolerance_scaling():
    tol = Tolerance.for_mode("bigreal", 50)
    assert mpmath.mpf("0.9e-40") < tol.zero_eps < mpmath.mpf("1.1e-40")
    tol_exact = Tolerance.for_mode("exact")
    assert tol_exact.zero_eps == 0 and tol_exact.rel_eps == 0


@given(x=st.decimals(min_value="-1e10", max_value="1e10", allow_nan=False, places=8))
@settings(max_examples=200, deadline=None)
def test_is_zero_monotone(x):
    bctx = Context("bigreal", 50)
    v = bctx.num(str(x))
    if bctx.is_zero(v):
        assert bctx.is_zero(v / 2)
        assert bctx.is_zero(-v / 2)


@given(a=rationals, b=rationals, c=rationals)
@settings(max_examples=300, deadline=None)
def test_field_axioms_exact(a, b, c):
    ctx = Context("exact")
    x, y, z = (ctx.num(v) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    if y != 0:
        assert (x / y) * y == x


@given(a=rationals)
@settings(max_examples=200, deadline=None)
def test_exact_parse_print_roundtrip(a):
    ctx = Context("exact")
    v = ctx.num(a)
    assert ctx.num(ctx.fmt(v)) == v


@pytest.mark.parametrize("s", ["0.1", "3.14159", "-2.5e-10", "123456.789", "1/7"])
def test_bigreal_parse_print_roundtrip(bctx, s):
    v = bctx.num(s)
    assert bctx.num(bctx.fmt(v)) == v


def test_mode_mixing_rejected(ctx, bctx):
    with pytest.raises(ModeError):
        ctx.num(1.5)
    with pytest.raises(ModeError):
        bctx.num(0.25)


def test_exact_sqrt():
    assert exact_sqrt(rational(9, 4)) == rational(3, 2)
    assert exact_sqrt(rational(2)) is None
    assert exact_sqrt(rational(0)) == 0
    with pytest.raises(ValueError):
        exact_sqrt(rational(-1))


def test_context_leaves_global_precision_alone(monkeypatch):
    monkeypatch.setattr(mpmath.mp, "dps", 15)  # start from mpmath's default
    prec = mpmath.mp.prec
    for ctx in (Context("exact"), Context("bigreal", 50), Context("bigreal", 300)):
        ctx.sqrt(ctx.num(4))
        assert mpmath.mp.prec == prec


def test_contexts_keep_their_own_precision():
    c50, c100 = Context("bigreal", 50), Context("bigreal", 100)
    with mpmath.workdps(400):
        ref = mpmath.sqrt(2)
    for ctx in (c50, c100, c50):
        root = ctx.sqrt(ctx.num(2))
        assert root.context is ctx.mp and ctx.mp.dps == ctx.precision + 5
        # correctly rounded at the context's precision, and not beyond it
        err = abs(root - ref)
        assert mpmath.mpf(10) ** -(ctx.precision + 25) < err <= ref * mpmath.mpf(2) ** -ctx.mp.prec


def test_num_converts_foreign_mpmath_values(bctx):
    third = mpmath.mpf("1/3")
    v = bctx.num(third)
    assert type(v) is bctx.mp.mpf and v == third
    z = bctx.num(mpmath.mpc(1, 2))
    assert type(z) is bctx.mp.mpc and z == mpmath.mpc(1, 2)
    with pytest.raises(ModeError):
        Context("exact").num(v)


def test_bigreal_values_pickle(bctx):
    for v in (bctx.num("1/3"), bctx.expj(bctx.num(2))):
        back = pickle.loads(pickle.dumps(v))
        assert type(back) is type(v) and back == v


def test_precision_floor_enforced():
    with pytest.raises(ValueError):
        Context("bigreal", 20)


def test_parse_fraction_strings(ctx):
    assert ctx.num("3/4") == rational(3, 4)
    assert ctx.num("-5") == -5
    assert ctx.num("0.25") == rational(1, 4)


def test_expj_equals_exp_of_imaginary_argument(bctx):
    mp = bctx.mp
    sample = [bctx.zero] + [bctx.num(s) for s in ("1/3", "-7/2", "157/50", "-10", "999", "-1234567/1000", "2718")]
    for x in sample:
        got, ref = bctx.expj(x), mp.exp(mp.mpc(0, 1) * x)
        assert type(got) is mp.mpc
        assert got.real == ref.real and got.imag == ref.imag


def _exact(x) -> Fraction:
    """The rational value of an mpf."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _products_sum(u, v) -> Fraction:
    return sum((_exact(a) * _exact(b) for a, b in zip(u, v)), Fraction(0))


def _dot_sample(ctx, k=40, seed=7):
    rng = random.Random(seed)
    u = np.array([ctx.frac(rng.randint(-10**6, 10**6), rng.randint(1, 999)) for _ in range(k)], dtype=object)
    v = np.array([ctx.frac(rng.randint(-10**6, 10**6), rng.randint(1, 999)) for _ in range(k)], dtype=object)
    return u, v


def test_dot_exact_is_the_literal_sum(ctx):
    u, v = _dot_sample(ctx)
    got, ref = ctx.dot(u, v), (u * v).sum()
    assert type(got) is type(ref) and got == ref


def test_dot_bigreal_rounds_once(bctx):
    unit = Fraction(1, 2 ** bctx.mp.prec)  # half an ulp, relative
    u, v = _dot_sample(bctx)
    got = bctx.dot(u, v)
    assert type(got) is bctx.mp.mpf
    exact = _products_sum(u, v)
    assert abs(_exact(got) - exact) <= unit * abs(exact)
    # cancellation: the per-term sum rounds 10**30 + 1/3 and keeps only
    # the leading digits of 1/3; the fused dot keeps them all
    big, third = bctx.num(10) ** 30, bctx.frac(1, 3)
    u = np.array([big, third, -big], dtype=object)
    v = np.array([bctx.one, bctx.one, bctx.one], dtype=object)
    exact = _products_sum(u, v)
    fused, per_term = bctx.dot(u, v), (u * v).sum()
    assert abs(_exact(fused) - exact) <= unit * abs(exact)
    assert abs(_exact(fused) - exact) * 10**20 < abs(_exact(per_term) - exact)


def test_dot_bigreal_mixes_real_and_complex(bctx):
    mp = bctx.mp
    unit = Fraction(1, 2 ** mp.prec)
    u, v = _dot_sample(bctx)
    w = np.array([mp.mpc(a, b) for a, b in zip(v, reversed(v))], dtype=object)
    got = bctx.dot(u, w)
    assert type(got) is mp.mpc
    for part, ref in ((got.real, [z.real for z in w]), (got.imag, [z.imag for z in w])):
        exact = _products_sum(u, ref)
        assert abs(_exact(part) - exact) <= unit * abs(exact)


def test_dot_lengths_must_match(ctx, bctx):
    for c in (ctx, bctx):
        u, v = _dot_sample(c, k=5)
        with pytest.raises(DimensionMismatch):
            c.dot(u, v[:4])


def test_dot_independent_of_global_and_earlier_contexts(monkeypatch):
    ctx = Context("bigreal", 50)
    u, v = _dot_sample(ctx)
    before = ctx.dot(u, v)
    monkeypatch.setattr(mpmath.mp, "dps", 15)
    big = Context("bigreal", 300)
    big.dot(*_dot_sample(big))
    after = ctx.dot(u, v)
    assert type(after) is type(before) and after._mpf_ == before._mpf_


def _matrix_sample(ctx, rows, cols, seed):
    u, _ = _dot_sample(ctx, k=rows * cols, seed=seed)
    return u.reshape(rows, cols)


def test_matmul_exact_is_the_matrix_product():
    ctx = Context("exact")
    rng = random.Random(11)
    a, b = (
        np.array([[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(c)] for _ in range(r)], dtype=object)
        for r, c in ((3, 4), (4, 2))
    )
    got, ref = ctx.matmul(a, b), a @ b
    assert got.shape == ref.shape == (3, 2)
    assert all(type(x) is type(y) and x == y for x, y in zip(got.ravel(), ref.ravel()))


def test_matmul_bigreal_is_one_fused_dot_per_entry(bctx):
    mp = bctx.mp
    a = _matrix_sample(bctx, 3, 4, seed=1)
    re, im = _matrix_sample(bctx, 4, 2, seed=2), _matrix_sample(bctx, 4, 2, seed=3)
    b = np.array([[mp.mpc(x, y) for x, y in zip(r, s)] for r, s in zip(re, im)], dtype=object)
    b[0, 0] = re[0, 0]  # a real entry among the complex ones
    got = bctx.matmul(a, b)
    assert got.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            ref = mp.fdot(a[i], b[:, j])
            assert type(got[i, j]) is type(ref) and got[i, j] == ref
    with pytest.raises(DimensionMismatch):
        bctx.matmul(a, a)

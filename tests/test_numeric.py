import pickle
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import from_man_exp, from_rational

from krylov_exact import Context, Tolerance
from krylov_exact.errors import DimensionMismatch, ModeError, NonFiniteValue
from krylov_exact.numeric import exact_sqrt, rational

from helpers import exact_chain, exact_value, rounded_value

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


_BIGREAL = Context("bigreal", 50)


@st.composite
def _entries(draw, shape, spread=None):
    """An object matrix of zeros, mpf and mpc (some with an exactly zero
    imaginary part), of either sign, exponents within ``spread`` bits of
    each other (default prec), and possibly an all-zero row and column."""
    mp = _BIGREAL.mp
    prec = mp.prec
    base = draw(st.integers(-300, 300))

    def real():
        man = draw(st.integers(-(2**prec - 1), 2**prec - 1))
        return mp.make_mpf(from_man_exp(man, base + draw(st.integers(0, spread or prec))))

    def entry():
        kind = draw(st.sampled_from(["zero", "real", "real", "complex", "complex-zero-imag"]))
        if kind == "zero":
            return _BIGREAL.zero
        if kind == "real":
            return real()
        return mp.mpc(real(), 0 if kind == "complex-zero-imag" else real())

    m = np.array([[entry() for _ in range(shape[1])] for _ in range(shape[0])], dtype=object)
    if draw(st.booleans()):
        m[draw(st.integers(0, shape[0] - 1)), :] = _BIGREAL.zero
    if draw(st.booleans()):
        m[:, draw(st.integers(0, shape[1] - 1))] = _BIGREAL.zero
    return m


@st.composite
def _operands(draw):
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    a, b = draw(_entries((rows, inner))), draw(_entries((inner, cols)))
    convert = draw(st.tuples(st.booleans(), st.booleans()))
    return a, b, convert


@given(_operands())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_matmul_bigreal_equals_fdot_per_entry(operands):
    """Each entry of the integer-mantissa product is fdot of its row and
    column, in type (mpf or mpc) and value, converted operand or not."""
    a, b, (convert_a, convert_b) = operands
    ctx, mp = _BIGREAL, _BIGREAL.mp
    got = ctx.matmul(ctx.mantissas(a) if convert_a else a, ctx.mantissas(b) if convert_b else b)
    assert got.shape == (a.shape[0], b.shape[1])
    for (i, j), x in np.ndenumerate(got):
        ref = mp.fdot(a[i], b[:, j])
        assert type(x) is type(ref) and x == ref


@st.composite
def _grouped(draw):
    """(a, groups, distinct): every group of a's columns has a member."""
    rows, count, cols = (draw(st.integers(1, 4)) for _ in range(3))
    extra = draw(st.lists(st.integers(0, count - 1), max_size=3))
    groups = np.array(draw(st.permutations(list(range(count)) + extra)), dtype=int)
    return draw(_entries((rows, len(groups)))), groups, draw(_entries((count, cols)))


@given(_grouped())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_summed_columns_equal_the_expanded_product(case):
    """Columns summed by group, against the distinct rows, give the
    product against the rows expanded by group, in type and value."""
    a, groups, distinct = case
    ctx = _BIGREAL
    got = ctx.matmul(ctx.mantissas(a).summed_columns(groups, len(distinct)), distinct)
    ref = ctx.matmul(a, distinct[groups])
    assert all(type(x) is type(y) and x == y for x, y in zip(got.ravel(), ref.ravel()))


@st.composite
def _wide_operands(draw):
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    spread = 40 * _BIGREAL.mp.prec
    return draw(_entries((rows, inner), spread)), draw(_entries((inner, cols), spread))


def _rounded(mp, x: Fraction):
    """x rounded once at the context's precision and rounding."""
    prec, rnd = mp._prec_rounding
    return mp.make_mpf(from_rational(x.numerator, x.denominator, prec, rnd))


@given(_wide_operands())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_matmul_rounds_the_exact_sum_over_wide_spreads(operands):
    """Entries whose exponents span many exponent slabs: each entry of the
    product is the exact sum of its products, rounded once, complex where
    its row or column holds an mpc."""
    a, b = operands
    mp = _BIGREAL.mp
    got = _BIGREAL.matmul(a, b)

    def parts(x):
        return (x.real, x.imag) if hasattr(x, "_mpc_") else (x, _BIGREAL.zero)

    for (i, j), x in np.ndenumerate(got):
        pa, pb = [parts(y) for y in a[i]], [parts(y) for y in b[:, j]]
        re = sum((_exact(p[0]) * _exact(q[0]) - _exact(p[1]) * _exact(q[1]) for p, q in zip(pa, pb)), Fraction(0))
        im = sum((_exact(p[0]) * _exact(q[1]) + _exact(p[1]) * _exact(q[0]) for p, q in zip(pa, pb)), Fraction(0))
        is_complex = any(hasattr(y, "_mpc_") for y in (*a[i], *b[:, j]))
        assert type(x) is (mp.mpc if is_complex else mp.mpf)
        assert parts(x) == (_rounded(mp, re), _rounded(mp, im))


def test_matmul_rounds_the_exact_sum_across_wide_gaps(bctx):
    """Terms more than 2 * prec bits apart: fdot's accumulator drops the
    small term and returns 0; the product rounds the exact sum."""
    mp = bctx.mp
    big, tiny = mp.mpf(2) ** (3 * mp.prec), bctx.frac(1, 3)
    a = np.array([[tiny, big, -big]], dtype=object)
    b = np.array([[bctx.one], [bctx.one], [bctx.one]], dtype=object)
    exact = sum((_exact(x) * _exact(y) for x, y in zip(a[0], b[:, 0])), Fraction(0))
    got = bctx.matmul(a, b)[0, 0]
    assert type(got) is mp.mpf and _exact(got) == exact == _exact(tiny)
    assert mp.fdot(a[0], b[:, 0]) == 0


def _dyadic_rounded(mp, x: Fraction):
    """x, a dyadic rational, rounded once by from_man_exp at the context's
    precision and rounding."""
    prec, rnd = mp._prec_rounding
    return from_man_exp(x.numerator, 1 - x.denominator.bit_length(), prec, rnd)


def _holds_complex(m) -> bool:
    return any(hasattr(x, "_mpc_") for x in np.ravel(m))


def _assert_chain_rounded_once(factors, got):
    """Each entry is the exact product rounded once, an mpc exactly where
    the row of the first factor, any middle factor or the column of the
    last holds an mpc."""
    mp = _BIGREAL.mp
    re, im = exact_chain(factors)
    assert got.shape == re.shape
    first, *middle, last = factors
    for index, x in np.ndenumerate(got):
        i, j = index
        is_complex = _holds_complex(first[i]) or any(map(_holds_complex, middle)) or _holds_complex(last[:, j])
        want = _dyadic_rounded(mp, re[index]), _dyadic_rounded(mp, im[index])
        if is_complex:
            assert type(x) is mp.mpc and x._mpc_ == want
        else:
            assert type(x) is mp.mpf and (x._mpf_, im[index]) == (want[0], 0)


@st.composite
def _chains(draw):
    """Two to four factors of compatible shapes, of zeros, mpf and mpc."""
    count = draw(st.integers(2, 4))
    dims = [draw(st.integers(1, 3)) for _ in range(count + 1)]
    return [draw(_entries((dims[k], dims[k + 1]))) for k in range(count)]


@given(_chains())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_matmul_chain_rounds_the_exact_product_once(factors):
    """A chain of factors is multiplied exactly and each entry of the
    result rounded once; two factors still give fdot entry by entry."""
    got = _BIGREAL.matmul(*factors)
    _assert_chain_rounded_once(factors, got)
    if len(factors) == 2:
        a, b = factors
        for (i, j), x in np.ndenumerate(got):
            ref = _BIGREAL.mp.fdot(a[i], b[:, j])
            assert type(x) is type(ref) and x == ref


def test_matmul_chain_rounds_once_across_slabs():
    """A factor whose entries lie about 2**3000 and 2**-3000 apart spans
    several exponent slabs; first in a chain, converted or not, and in the
    middle and last place, every entry of the product is still its exact
    value rounded once."""
    ctx, mp, rng = _BIGREAL, _BIGREAL.mp, random.Random(23)

    def value(scale):
        return mp.mpf(rng.randint(1, 2**200)) * mp.mpf(2) ** (scale - 200) / 3

    wide = np.array(
        [[mp.mpc(value(3000), value(-3000)), value(0), value(-3000)], [value(-3000), mp.mpc(value(3000), 0), value(3000)]],
        dtype=object,
    )
    assert len(ctx.mantissas(wide).slabs) > 2
    square = np.array([[value(0) for _ in range(3)] for _ in range(3)], dtype=object)
    right = np.array([[mp.mpc(value(0), value(-40)), value(0)] for _ in range(3)], dtype=object)
    _assert_chain_rounded_once([wide, square, right], ctx.matmul(wide, square, right))
    _assert_chain_rounded_once([wide, square, right], ctx.matmul(ctx.mantissas(wide), square, right))
    _assert_chain_rounded_once([right.T, wide.T, wide], ctx.matmul(right.T, wide.T, wide))


def test_matmul_needs_two_factors(bctx):
    a = np.array([[bctx.one]], dtype=object)
    with pytest.raises(DimensionMismatch):
        bctx.matmul(a)
    with pytest.raises(DimensionMismatch):
        bctx.matmul(a, a, np.array([[bctx.one, bctx.one]], dtype=object).T)


def test_matmul_refuses_non_finite_entries(bctx):
    mp = bctx.mp
    for bad, name in ((mp.inf, r"\+inf"), (-mp.inf, r"-inf"), (mp.nan, "nan"), (mp.mpc(1, mp.inf), r"\+inf")):
        a = np.array([[bctx.one, bctx.one], [bctx.one, bad]], dtype=object)
        with pytest.raises(NonFiniteValue, match=rf"entry \(1, 1\) is .*{name}"):
            bctx.matmul(a, a)
        with pytest.raises(NonFiniteValue, match=r"entry \(1, 1\)"):
            bctx.mantissas(a)


def test_mantissas_are_bigreal_only(ctx):
    a = np.array([[ctx.frac(1, 3)]], dtype=object)
    with pytest.raises(ModeError):
        ctx.mantissas(a)
    assert ctx.matmul(a, a)[0, 0] == Fraction(1, 9)


# -- the exact-accumulator Gram-Schmidt step ------------------------------


def _vector(mp, rng, n, spread=0, complex_=False, zeros=()):
    """N random mpf (or mpc) entries of 133-bit mantissas whose exponents
    lie within +-SPREAD bits of each other, exact zeros at ZEROS."""

    def one():
        return mp.ldexp(mp.mpf(rng.randrange(-(10**40), 10**40)), rng.randint(-spread, spread) - 130)

    v = [mp.mpc(one(), one()) if complex_ else one() for _ in range(n)]
    for k in zeros:
        v[k] = mp.mpc(0) if complex_ else mp.mpf(0)
    return np.array(v, dtype=object)


def _rational_step(mp, w, basis):
    """The step in rationals: each c_j the exact sum over the exact W,
    rounded once; W - O_j c_j exact, skipped where c_j rounds to 0; each
    part of each entry of W rounded once, complex where W, or O_j or the
    imaginary part of a nonzero c_j, is."""

    def parts(x):
        return (exact_value(x.real), exact_value(x.imag)) if hasattr(x, "_mpc_") else (exact_value(x), Fraction(0))

    def has_complex(v):
        return any(hasattr(x, "_mpc_") for x in v)

    acc, is_complex, moved = [parts(x) for x in w], has_complex(w), False
    for o, d in basis:
        exact = [sum(terms, Fraction(0)) for terms in zip(*[
            (dr * wr - di * wi, dr * wi + di * wr) for (dr, di), (wr, wi) in zip(map(parts, d), acc)])]
        c = [exact_value(rounded_value(mp, x)) for x in exact]
        if not any(c):
            continue
        acc = [(wr - (orr * c[0] - oi * c[1]), wi - (orr * c[1] + oi * c[0])) for (wr, wi), (orr, oi) in zip(acc, map(parts, o))]
        is_complex, moved = is_complex or has_complex(o) or c[1] != 0, True
    if not moved:
        return w
    rounded = [(rounded_value(mp, re), rounded_value(mp, im)) for re, im in acc]
    return np.array([mp.mpc(re, im) if is_complex else re for re, im in rounded], dtype=object)


def _same_entries(got, want):
    return len(got) == len(want) and all(
        type(x) is type(y) and getattr(x, "_mpc_", None) == getattr(y, "_mpc_", None)
        and getattr(x, "_mpf_", None) == getattr(y, "_mpf_", None) for x, y in zip(got, want))


@pytest.mark.parametrize("spread", [0, 3000])
@pytest.mark.parametrize("kinds", ["real", "complex", "complex covectors", "complex vectors"])
def test_gram_schmidt_is_the_rational_step_rounded(bctx, spread, kinds):
    """Real and complex entries, exact zeros, and exponents about 2^+-3000
    apart, as in the vectors of a long Jacobi chain."""
    mp, rng = bctx.mp, random.Random(f"{spread}{kinds}")
    w_c, o_c, d_c = {"real": (0, 0, 0), "complex": (1, 1, 1), "complex covectors": (0, 0, 1),
                     "complex vectors": (0, 1, 0)}[kinds]
    n = 9
    w = _vector(mp, rng, n, spread, w_c, zeros=(2, 5))
    basis = [(_vector(mp, rng, n, spread, o_c, zeros=(2, k)), _vector(mp, rng, n, spread, d_c, zeros=(k, 7)))
             for k in (0, 3, 5)]
    got, exact_forms = bctx.gram_schmidt(w, basis)
    assert _same_entries(got, _rational_step(mp, w, basis))
    # the exact forms handed back give the same step again, unconverted
    assert all(isinstance(x, tuple) for pair in exact_forms for x in pair)
    assert _same_entries(bctx.gram_schmidt(w, exact_forms)[0], got)


def test_gram_schmidt_skips_a_coefficient_that_rounds_to_zero(bctx):
    """A covector orthogonal to W in exact arithmetic gives c_j = 0: that
    term changes nothing, and with no other W comes back as given."""
    mp, rng = bctx.mp, random.Random(7)
    half = _vector(mp, rng, 4, 3000)
    w = np.concatenate([half, half])
    # d . W sums y_k x_k - y_k x_k: exactly 0, though no product is
    orthogonal = (_vector(mp, rng, 8, 3000), np.concatenate([half, -half]))
    got, _ = bctx.gram_schmidt(w, [orthogonal])
    assert got is w
    # a vector of W's symmetry keeps W - O c orthogonal to that covector
    u = _vector(mp, rng, 4, 3000)
    other = (np.concatenate([u, u]), _vector(mp, rng, 8, 3000))
    alone = bctx.gram_schmidt(w, [other])[0]
    for basis in ([orthogonal, other], [other, orthogonal]):
        got, _ = bctx.gram_schmidt(w, basis)
        assert _same_entries(got, _rational_step(mp, w, basis))
        assert _same_entries(got, alone)


def test_gram_schmidt_without_basis_converts_nothing(bctx, ctx):
    w = np.array([bctx.one, bctx.mp.inf], dtype=object)  # a conversion would refuse inf
    got, basis = bctx.gram_schmidt(w, [])
    assert got is w and basis == []
    with pytest.raises(NonFiniteValue, match=r"entry \(1,\) is"):
        bctx.gram_schmidt(w, [(w, w)])
    with pytest.raises(ModeError):
        ctx.gram_schmidt(np.array([ctx.one], dtype=object), [])

import random

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from krylov_exact import (
    Context,
    b123_closed_forms,
    default_system,
    detect_noncomplexity,
    hankel_check,
    lanczos_to_moments,
    make_system,
    moments_closed,
    moments_closed_finite,
    moments_oracle,
    moments_to_lanczos,
    operator_lanczos,
    position_pair,
)
from krylov_exact.chain import classify_stop
from krylov_exact.errors import (
    AsymmetricMoments,
    DegenerateChain,
    IndexOutOfRange,
    NegativeBSquared,
    NonUnitMuZero,
)
from krylov_exact.moments import MomentTable

from helpers import FINITE_KINDS, THERMAL_KINDS, hankel_b2_reference, param_samples, rotated_pair


def _table(ctx, even):
    values = [ctx.one]
    for v in even:
        values += [ctx.zero, ctx.num(v)]
    return MomentTable(values=values, provenance="closed-form", ctx=ctx)


def test_constant_moments_stop_at_two(ctx):
    t = _table(ctx, ["1/2", "1/2", "1/2"])
    c = moments_to_lanczos(t)
    assert c.b_squared == [ctx.frac(1, 2), ctx.frac(1, 2)]
    assert c.stop_index == 2
    assert c.b2(3) == 0


def test_geometric_moments_stop_at_one(ctx):
    t = _table(ctx, [4, 16, 64])
    c = moments_to_lanczos(t)
    assert c.b_squared == [ctx.num(4)]
    assert c.stop_index == 1


def test_geometric_with_offset_stops_at_two(ctx):
    # mu_2m = c * lam^(2(m-1)) with c = 8, lam = 4
    t = _table(ctx, [8, 8 * 16, 8 * 256])
    b1, b2, b3 = b123_closed_forms(t)
    assert (b1, b2, b3) == (8, 8, 0)
    c = moments_to_lanczos(t)
    assert c.b_squared == [ctx.num(8), ctx.num(8)]
    assert c.stop_index == 2


def test_mu0_must_be_one(ctx):
    t = MomentTable(values=[ctx.num(2), ctx.zero, ctx.one], provenance="oracle", ctx=ctx)
    with pytest.raises(NonUnitMuZero):
        moments_to_lanczos(t)


def test_negative_b_squared_detected(ctx):
    # mu = (1, 0, 1, 0, 2, 0, 1) has h_3 = mu_6 - 4 mu_4 + 4 mu_2 = -3
    t = _table(ctx, [1, 2, 1])
    with pytest.raises(NegativeBSquared, match=r"b_3\^2 = -3 < 0"):
        moments_to_lanczos(t)


def _typed(values):
    return [(type(v), v) for v in values]


def _assert_matches_reference(table):
    got = moments_to_lanczos(table)
    b2s, stop = hankel_b2_reference(table)
    assert _typed(got.b_squared) == _typed(b2s)
    assert got.stop_index == stop


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_chebyshev_equals_reference_on_samples(ctx, kind):
    for N in (6, 8):
        for params in param_samples(kind, N):
            spec = make_system(kind, N, params, ctx)
            for K in (6, 12):
                _assert_matches_reference(moments_closed_finite(spec, K))


def test_chebyshev_equals_reference_on_defaults(ctx, bctx):
    # the finite defaults in exact mode, in type and value; the thermal
    # ones need bigreal, where the two routes round differently: Jacobi's
    # Hankel route keeps about 28 of the 50 digits
    for kind in FINITE_KINDS:
        _assert_matches_reference(moments_closed_finite(default_system(kind, ctx), 12))
    for kind in THERMAL_KINDS:
        table = moments_closed(default_system(kind, bctx), K=6)
        got = moments_to_lanczos(table)
        b2s, stop = hankel_b2_reference(table)
        assert got.stop_index == stop and len(got.b_squared) == len(b2s)
        assert all(type(x) is bctx.mp.mpf for x in got.b_squared)
        assert all(abs(x - y) <= bctx.num("1e-25") * y for x, y in zip(got.b_squared, b2s))


@pytest.mark.slow
def test_chebyshev_hahn_n32_k64_equals_reference_and_chain(ctx):
    spec = make_system("hahn", 32, {"a": "1/2", "b": "2"}, ctx)
    table = moments_closed_finite(spec, 64)
    _assert_matches_reference(table)
    chain = operator_lanczos(position_pair(spec))
    assert _typed(moments_to_lanczos(table).b_squared) == _typed(chain.b_squared)


def test_asymmetric_exact_table_raises(ctx):
    t = _table(ctx, [2, 5, 13])
    t.values[3] = ctx.frac(1, 7)
    with pytest.raises(AsymmetricMoments, match=r"mu_3 = 1/7"):
        moments_to_lanczos(t)


def test_asymmetric_bigreal_table_raises(bctx):
    t = moments_closed_finite(default_system("hahn", bctx), 6)
    # 1e-30 of the Cauchy-Schwarz scale, far above the 1e-40 tolerance
    t.values[5] = bctx.num("1e-30") * bctx.sqrt(t.mu(4) * t.mu(6))
    with pytest.raises(AsymmetricMoments, match=r"mu_5"):
        moments_to_lanczos(t)


def test_oracle_rounding_noise_in_odd_moments_converts(bctx):
    # the position pair moved to the eigenbasis by plain object products:
    # entry (a, b) and (b, a) round differently, so the oracle's odd
    # moments are rounding noise instead of exact zeros
    spec = make_system("hahn", 6, {"a": "1/2", "b": "2"}, bctx)
    pair = position_pair(spec)
    rotated = rotated_pair(pair)
    oracle = moments_oracle(rotated, K=8)
    assert any(v != 0 for v in oracle.values[1::2])
    got = moments_to_lanczos(oracle)
    want = moments_to_lanczos(moments_closed_finite(spec, 8))
    assert got.stop_index == want.stop_index and len(got.b_squared) == 8
    assert all(abs(x - y) <= bctx.num("1e-40") * y for x, y in zip(got.b_squared, want.b_squared))


def test_single_coefficient_chain_moments(ctx):
    t = lanczos_to_moments([ctx.num(3)], K=4, ctx=ctx)
    assert t.even()[1:] == [3, 9, 27, 81]
    assert all(v == 0 for v in t.values[1::2])


def test_bare_coefficients_take_the_context_precision(bctx):
    with bctx.work():  # 55-digit values in global mpmath's class
        b2 = [mpmath.mpf(1) / 3, mpmath.mpf(2) / 7]
    got = lanczos_to_moments(b2, K=3, ctx=bctx).values
    assert got == lanczos_to_moments([bctx.num(v) for v in b2], K=3, ctx=bctx).values
    assert all(type(v) is bctx.mp.mpf for v in got)


def test_two_coefficient_constant_chain(ctx):
    c = ctx.frac(2, 5)
    t = lanczos_to_moments([c, 1 - c], K=5, ctx=ctx)
    assert all(v == c for v in t.even()[1:])


def test_b123_on_krawtchouk(ctx):
    spec = make_system("krawtchouk", 1, {"p": "1/2"}, ctx)
    t = moments_closed_finite(spec, 3)
    assert b123_closed_forms(t) == (ctx.frac(1, 2), ctx.frac(1, 2), 0)


def test_b123_degenerate_chain(ctx):
    t = _table(ctx, [4, 16, 64])  # mu_4 = mu_2^2
    with pytest.raises(DegenerateChain):
        b123_closed_forms(t)


def test_b123_matches_recursion_on_random_tables(ctx):
    rng = random.Random(5)
    for _ in range(50):
        b2 = [ctx.frac(rng.randint(1, 40), rng.randint(1, 10)) for _ in range(3)]
        t = lanczos_to_moments(b2, K=3, ctx=ctx)
        got = b123_closed_forms(t)
        assert list(got) == b2


@given(
    data=st.lists(
        st.tuples(st.integers(1, 30), st.integers(1, 12)), min_size=6, max_size=6
    )
)
@settings(max_examples=100, deadline=None)
def test_roundtrip_random_chains(data):
    ctx = Context("exact")
    b2 = [ctx.frac(p, q) for p, q in data]
    table = lanczos_to_moments(b2, K=6, ctx=ctx)
    rec = moments_to_lanczos(table)
    assert rec.b_squared == b2
    back = lanczos_to_moments(rec, K=6, ctx=ctx)
    assert back.values == table.values


def test_chain_oracle_equivalence(ctx):
    for kind in FINITE_KINDS:
        N = 4
        spec = make_system(kind, N, param_samples(kind, N)[0], ctx)
        t = moments_closed_finite(spec, 6)
        from_moments = moments_to_lanczos(t)
        from_ops = operator_lanczos(position_pair(spec), k_max=6)
        m = min(len(from_moments.b_squared), len(from_ops.b_squared))
        assert m > 0
        assert from_moments.b_squared[:m] == from_ops.b_squared[:m]
        assert from_moments.stop_index == from_ops.stop_index


def test_scaling_covariance_of_chain(ctx):
    spec = default_system("hahn", ctx)
    t = moments_closed_finite(spec, 6)
    base = moments_to_lanczos(t)
    lam = ctx.num(3)
    scaled_values = [v * lam**m for m, v in enumerate(t.values)]
    scaled = MomentTable(values=scaled_values, provenance="closed-form", ctx=ctx)
    got = moments_to_lanczos(scaled)
    assert got.b_squared == [lam * lam * v for v in base.b_squared]


def test_hankel_n1_degenerate_agreement(ctx):
    spec = make_system("krawtchouk", 4, {"p": "1/3"}, ctx)
    t = moments_closed_finite(spec, 3)
    c = moments_to_lanczos(t)
    lhs, rhs, naive_fails = hankel_check(t, c, 1)
    assert lhs == rhs == t.mu(2)
    assert not naive_fails


def test_hankel_krawtchouk_n2(ctx):
    spec = make_system("krawtchouk", 4, {"p": "1/3"}, ctx)
    t = moments_closed_finite(spec, 6)
    c = moments_to_lanczos(t)
    lhs, rhs, naive_fails = hankel_check(t, c, 2)
    assert lhs == rhs
    assert naive_fails  # b_1^2 != 1 here, so the naive product is off


def test_hankel_scaling_power(ctx):
    spec = default_system("hahn", ctx)
    t = moments_closed_finite(spec, 6)
    c = moments_to_lanczos(t)
    lam = ctx.num(2)
    for n in (2, 3):
        lhs, _, _ = hankel_check(t, c, n)
        scaled_values = [v * lam**m for m, v in enumerate(t.values)]
        scaled = MomentTable(values=scaled_values, provenance="closed-form", ctx=ctx)
        c2 = moments_to_lanczos(scaled)
        lhs2, rhs2, _ = hankel_check(scaled, c2, n)
        assert lhs2 == lhs * lam ** (n * (n + 1))
        assert lhs2 == rhs2


def test_hankel_needs_enough_moments(ctx):
    spec = make_system("krawtchouk", 4, {"p": "1/3"}, ctx)
    t = moments_closed_finite(spec, 2)
    c = moments_to_lanczos(t)
    with pytest.raises(IndexOutOfRange):
        hankel_check(t, c, 3)


def test_b3_nonnegative_on_catalog(ctx):
    for kind in FINITE_KINDS:
        spec = default_system(kind, ctx)
        t = moments_closed_finite(spec, 3)
        try:
            _, _, b3 = b123_closed_forms(t)
        except DegenerateChain:
            continue
        assert b3 >= 0


def test_detect_noncomplexity_finite(ctx):
    assert detect_noncomplexity(default_system("krawtchouk", ctx)).label == "StopsAtO2"
    assert detect_noncomplexity(default_system("dual-hahn", ctx)).label == "StopsAtO2"
    cls = detect_noncomplexity(default_system("q-racah", ctx), K=6)
    assert cls.label == "NoEarlyStop(6)"
    assert cls.stop_index is None


def test_detect_noncomplexity_thermal(bctx):
    m = make_system("meixner", None, {"c": "1/2", "b": "1"}, bctx)
    assert detect_noncomplexity(m, beta="1").label == "StopsAtO2"
    h = make_system("hermite", None, {}, bctx)
    assert detect_noncomplexity(h, beta="1").label == "StopsAtO1"
    lag = make_system("laguerre", None, {"g": "3/2"}, bctx)
    assert detect_noncomplexity(lag, beta="1").label == "StopsAtO2"
    geg = make_system("gegenbauer", None, {"g": "2"}, bctx)
    assert detect_noncomplexity(geg, beta="1", K=6).label == "NoEarlyStop(6)"


def test_classify_labels(ctx):
    from krylov_exact.chain import LanczosCoefficients

    c = LanczosCoefficients(b_squared=[ctx.one] * 4, stop_index=4, ctx=ctx)
    assert classify_stop(c, 6).label == "StopsAtO4"


def test_chain_report_json(ctx):
    from krylov_exact.chain import chain_report

    doc = chain_report(default_system("krawtchouk", ctx))
    assert doc["classification"] == "StopsAtO2"
    assert doc["stop_index"] == 2
    assert doc["hankel"]["n"] == 2
    assert doc["hankel"]["lhs"] == doc["hankel"]["rhs"]

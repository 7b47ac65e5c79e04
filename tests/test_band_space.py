"""The position-basis band space where the band is narrower than the matrix.

K commutators of the tridiagonal H on the diagonal eta reach bandwidth K,
so at N=16 with K=6 the exact space keeps 13 of the 33 diagonals.  The
references below are dense: ``h @ v - v @ h`` and every dot over all n^2
entries.  Exact results must match in type and value.  The bigreal
K-step oracle and chain run in the eigenbasis of H, not on a band; they
equal the same dense exact references to 47 digits, and the chain's
matrices, moved back to the position basis, the normalised dense ones
to 1e-50.
"""

import pytest

from krylov_exact import (
    make_system,
    moments_oracle,
    operator_lanczos,
    position_pair,
    trace_inner,
)

from helpers import agree, normalised_ops, reference_exact_chain, reference_oracle

K = 6
# L^k eta has bandwidth k for q-Krawtchouk, so its band is full at its
# edge; Hahn's is ceil(k/2), with a metric in exact mode
PAIRS = [("hahn", 16, {"a": "1/2", "b": "2"}), ("q-krawtchouk", 16, {"q": "1/2", "p": "2/3"})]


def _key(x):
    return x._mpf_ if hasattr(x, "_mpf_") else (type(x), x)


def _assert_same(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    assert [_key(g) for g in got] == [_key(w) for w in want]


@pytest.mark.parametrize("kind, N, params", PAIRS)
def test_narrow_band_equals_dense_exact(ctx, kind, N, params):
    pair = position_pair(make_system(kind, N, params, ctx))
    weight = trace_inner(pair).weight
    dot = lambda u, v: (weight * u * v).sum()  # noqa: E731
    _assert_same(moments_oracle(pair, K=K).values, reference_oracle(pair, dot, K))
    chain = operator_lanczos(pair, k_max=K)
    ops, b2s, nus, stopped = reference_exact_chain(pair, dot, K)
    assert chain.stopped == stopped
    _assert_same(chain.b_squared, b2s)
    _assert_same(chain.norms_sq, nus)
    # the dense chain is scattered on first read, and only then
    assert "ops" not in vars(chain)
    assert chain.ops is chain.ops
    for got, want in zip(chain.ops, ops, strict=True):
        _assert_same(got.ravel(), want.ravel())


@pytest.mark.parametrize("kind, N, params", PAIRS)
def test_narrow_band_equals_dense_bigreal(ctx, bctx, kind, N, params):
    pair, exact = (position_pair(make_system(kind, N, params, c)) for c in (bctx, ctx))
    weight = trace_inner(exact).weight
    dot = lambda u, v: (weight * u * v).sum()  # noqa: E731
    assert agree(moments_oracle(pair, K=K).values, reference_oracle(exact, dot, K))
    chain = operator_lanczos(pair, k_max=K)
    ops, b2s, nus, stopped = reference_exact_chain(exact, dot, K)
    assert chain.stopped == stopped
    assert agree(chain.b_squared, b2s)
    bound = bctx.num("1e-50")
    for got, want in zip(chain.ops, normalised_ops(ops, nus, exact.metric, bctx), strict=True):
        assert max(abs(x - y) for x, y in zip(got.ravel(), want.ravel())) <= bound

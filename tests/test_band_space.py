"""The position-basis band space where the band is narrower than the matrix.

K commutators of the tridiagonal H on the diagonal eta reach bandwidth K,
so at N=16 with K=6 the space keeps 13 of the 33 diagonals.  The
references below are dense: ``h @ v - v @ h`` and every dot over all n^2
entries (in bigreal one fused ``Context.dot``, as :func:`inner` forms
it), and the chain reorthogonalises the dense vectors with the package's
kernel (``Context.gram_schmidt``).  Exact results must match in type and value, bigreal ones bit for
bit (``_mpf_``), which checks that a fused dot over the band equals the
fused dot over every entry.  The profile reads the dense O_0(t) on the
band of a 3-step chain at N=10.  Bigreal position pairs run in the
eigenbasis of H; their band (``helpers.band_chain``, ``helpers.band_oracle``)
is checked here as the reference it stays.
"""

import pytest

from krylov_exact import (
    inner,
    krylov_profile,
    make_system,
    moments_oracle,
    operator_lanczos,
    position_pair,
    trace_inner,
)

from helpers import (
    band_chain,
    band_oracle,
    reference_chain,
    reference_exact_chain,
    reference_oracle,
    reference_profile,
)

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
def test_narrow_band_equals_dense_bigreal(bctx, kind, N, params):
    pair = position_pair(make_system(kind, N, params, bctx))
    ip = trace_inner(pair)
    dot = lambda u, v: inner(ip, u, v)  # noqa: E731
    _assert_same(band_oracle(pair, K=K).values, reference_oracle(pair, dot, K))
    chain = band_chain(pair, k_max=K)
    ops, bs, stopped = reference_chain(pair, ip, K)
    assert chain.stopped == stopped
    _assert_same(chain.b, bs)
    _assert_same(chain.b_squared, [b * b for b in bs])
    for got, want in zip(chain.ops, ops, strict=True):
        _assert_same(got.ravel(), want.ravel())


def test_narrow_band_profile_equals_dense(bctx):
    pair = position_pair(make_system("q-krawtchouk", 10, {"q": "1/2", "p": "2/3"}, bctx))
    ip = trace_inner(pair)
    chain = band_chain(pair, k_max=3)
    profile = krylov_profile(chain, pair, ip, ["1/2", "3/2"])
    for row, want in zip(profile.phi, reference_profile(pair, ip, chain.ops, profile.times), strict=True):
        _assert_same(row, want)

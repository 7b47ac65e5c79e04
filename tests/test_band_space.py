"""The position-basis band space where the band is narrower than the matrix.

K commutators of the tridiagonal H on the diagonal eta reach bandwidth K,
so at N=16 with K=6 the space keeps 13 of the 33 diagonals.  The
references below are dense: ``h @ v - v @ h`` and every dot over all n^2
entries (in bigreal one fused ``Context.dot``, as :func:`inner` forms
it).  Exact results must match in type and value, bigreal ones bit for
bit (``_mpf_``), which checks that a fused dot over the band equals the
fused dot over every entry.  The profile reads the dense O_0(t) on the
band of a 3-step chain at N=10.
"""

import pytest

from krylov_exact import (
    inner,
    krylov_profile,
    make_system,
    matrix_exponential_conjugate,
    moments_oracle,
    operator_lanczos,
    position_pair,
    trace_inner,
)

K = 6
# L^k eta has bandwidth k for q-Krawtchouk, so its band is full at its
# edge; Hahn's is ceil(k/2), with a metric in exact mode
PAIRS = [("hahn", 16, {"a": "1/2", "b": "2"}), ("q-krawtchouk", 16, {"q": "1/2", "p": "2/3"})]


def _commutator(pair, v):
    return pair.h @ v - v @ pair.h


def _reference_oracle(pair, dot):
    v = pair.eta
    norm = dot(v, v)
    values = [pair.ctx.one]
    for _ in range(K):
        v_next = _commutator(pair, v)
        values += [dot(v, v_next) / norm, dot(v_next, v_next) / norm]
        v = v_next
    return values


def _reference_exact_chain(pair, dot):
    """(ops, b^2, squared norms, stopped) of the unnormalised recurrence."""
    v_prev, v_cur = None, pair.eta
    ops, nus, b2s = [v_cur], [dot(v_cur, v_cur)], []
    while len(b2s) < K:
        w = _commutator(pair, v_cur)
        if v_prev is not None:
            w = w - v_prev * b2s[-1]
        nu = dot(w, w)
        if nu == 0:
            return ops, b2s, nus, True
        nus.append(nu)
        b2s.append(nus[-1] / nus[-2])
        v_prev, v_cur = v_cur, w
        ops.append(v_cur)
    return ops, b2s, nus, False


def _reference_bigreal_chain(pair, dot):
    """(ops, b, stopped) of the normalised chain, fully reorthogonalised."""
    ctx = pair.ctx
    o_prev, o_cur = None, pair.eta / ctx.sqrt(dot(pair.eta, pair.eta))
    ops, bs = [o_cur], []
    while len(bs) < K:
        w = _commutator(pair, o_cur)
        if o_prev is not None:
            w = w - o_prev * bs[-1]
        for o_j in ops:
            w = w - o_j * dot(o_j, w)
        b = ctx.sqrt(dot(w, w))
        if ctx.is_zero(b):
            return ops, bs, True
        bs.append(b)
        o_prev, o_cur = o_cur, w / b
        ops.append(o_cur)
    return ops, bs, False


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
    _assert_same(moments_oracle(pair, K=K).values, _reference_oracle(pair, dot))
    chain = operator_lanczos(pair, k_max=K)
    ops, b2s, nus, stopped = _reference_exact_chain(pair, dot)
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
    _assert_same(moments_oracle(pair, K=K).values, _reference_oracle(pair, dot))
    chain = operator_lanczos(pair, k_max=K)
    ops, bs, stopped = _reference_bigreal_chain(pair, dot)
    assert chain.stopped == stopped
    _assert_same(chain.b, bs)
    _assert_same(chain.b_squared, [b * b for b in bs])
    for got, want in zip(chain.ops, ops, strict=True):
        _assert_same(got.ravel(), want.ravel())


def test_narrow_band_profile_equals_dense(bctx):
    pair = position_pair(make_system("q-krawtchouk", 10, {"q": "1/2", "p": "2/3"}, bctx))
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, k_max=3)
    profile = krylov_profile(chain, pair, ip, ["1/2", "3/2"])
    # phi_n = Re((-i)^n (O_n, O_0(t))), the dot over every entry
    turn = [bctx.mp.mpc(1, 0), bctx.mp.mpc(0, -1), bctx.mp.mpc(-1, 0), bctx.mp.mpc(0, 1)]
    for t, row in zip(profile.times, profile.phi, strict=True):
        o_t = matrix_exponential_conjugate(pair, chain.ops[0], t)
        want = [(inner(ip, o_n, o_t) * turn[n % 4]).real for n, o_n in enumerate(chain.ops)]
        _assert_same(row, want)

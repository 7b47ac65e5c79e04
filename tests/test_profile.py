"""The Krylov profile reads the chain's own vectors on the chain's space.

Each time is a fixed number of batched products, whatever the chain's
length; the references of ``test_support_fold`` (one complex phase per
unfolded entry) must still agree bit for bit at the thermal-chain
benchmark sizes.  Where some w- is nonzero the cross dots are still
formed.  A chain from another pair or inner product is refused.
"""

import numpy as np
import pytest

from krylov_exact import (
    Context,
    OperatorPair,
    default_system,
    energy_pair,
    krylov_profile,
    make_system,
    operator_lanczos,
    position_pair,
    trace_inner,
    wightman_inner,
)
from krylov_exact.errors import BasisMismatch
from krylov_exact.numeric import Mantissas

from test_support_fold import BETA, _all_same, _loop_weight, _ref_overlaps


def _grid(bctx, count):
    return [bctx.num(k) / bctx.num(4) + bctx.frac(1, 50) for k in range(count)]


@pytest.mark.parametrize(
    "kind, n_max, params",
    [("gegenbauer", 30, {"g": "2"}), ("jacobi", 20, {"g": "2", "h": "3"})],
    ids=["gegenbauer-30", "jacobi-20"],
)
def test_profile_rows_equal_full_support_reference(bctx, kind, n_max, params):
    pair = energy_pair(make_system(kind, None, params, bctx), n_max=n_max)
    ip = wightman_inner(pair, bctx.num(BETA))
    chain = operator_lanczos(pair, ip)
    times = _grid(bctx, 6)
    prof = krylov_profile(chain, pair, ip, times)
    one, mpc = bctx.one, bctx.mp.mpc
    phases = [mpc(one, 0), mpc(0, -one), mpc(-one, 0), mpc(0, one)]
    weight = _loop_weight(pair, BETA)
    for t, row in zip(times, prof.phi, strict=True):
        ref = _ref_overlaps(pair, weight, chain.ops, t)
        assert _all_same(row, [(v * phases[n % 4]).real for n, v in enumerate(ref)])


def _calls(monkeypatch, run):
    """(Context.dot calls, Mantissas.product calls) made by RUN."""
    calls = {"dot": 0, "product": 0}
    for cls, name in ((Context, "dot"), (Mantissas, "product")):
        real = getattr(cls, name)

        def counting(self, *args, real=real, name=name):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(cls, name, counting)
    run()
    monkeypatch.undo()
    return calls["dot"], calls["product"]


@pytest.mark.parametrize("basis", ["energy", "position"])
def test_profile_batches_the_amplitudes_per_time(bctx, monkeypatch, basis):
    if basis == "energy":
        pair = energy_pair(make_system("gegenbauer", None, {"g": "2"}, bctx), n_max=30)
        ip = wightman_inner(pair, bctx.num(BETA))
        # the cos and sin products
        per_time, once = 2, 0
    else:
        pair = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, bctx))
        ip = trace_inner(pair)
        # O_0 moves in once, as one three-factor product; per time one
        # moves O_0(t) back, and on the folded band one meets the even
        # covectors and one the odd
        per_time, once = 3, 1
    chain = operator_lanczos(pair, ip)
    times = _grid(bctx, 20)
    dots, products = _calls(monkeypatch, lambda: krylov_profile(chain, pair, ip, times))
    assert len(chain.vectors) > 10
    assert dots == 0
    assert products == once + per_time * len(times)
    # the dense chain matrices are never built
    assert "ops" not in vars(chain)


def test_profile_refuses_another_pair_or_inner_product(bctx):
    spec = make_system("gegenbauer", None, {"g": "2"}, bctx)
    pair = energy_pair(spec, n_max=8)
    ip = wightman_inner(pair, bctx.num(1))
    chain = operator_lanczos(pair, ip)
    t = [bctx.one]
    twin = energy_pair(spec, n_max=8)
    with pytest.raises(BasisMismatch, match="another operator pair"):
        krylov_profile(chain, twin, wightman_inner(twin, bctx.num(1)), t)
    for other in (wightman_inner(pair, bctx.num(2)), trace_inner(pair)):
        with pytest.raises(BasisMismatch, match="another inner product"):
            krylov_profile(chain, pair, other, t)
    # the same product built again is the same product
    krylov_profile(chain, pair, wightman_inner(pair, bctx.num(1)), t)

    hahn = make_system("hahn", 5, {"a": "1/2", "b": "2"}, bctx)
    pos = position_pair(hahn)
    chain = operator_lanczos(pos, trace_inner(pos), k_max=3)
    again = position_pair(hahn)
    with pytest.raises(BasisMismatch, match="another operator pair"):
        krylov_profile(chain, again, trace_inner(again), t)
    krylov_profile(chain, pos, trace_inner(pos), t)


@pytest.mark.parametrize("kind", ["krawtchouk", "hahn"])
def test_profile_forms_cross_dots_where_w_minus_is_nonzero(ctx, bctx, kind):
    # the exact rescaled energy pair (eta asymmetric, metric g) in bigreal:
    # w- = g_b/g_a - (g_a/g_b) r^2 rounds to a few nonzero entries
    exact = energy_pair(default_system(kind, ctx))
    metric = np.array([bctx.num(g) for g in exact.metric], dtype=object)
    pair = OperatorPair(exact.h, exact.eta, bctx, metric)
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    assert any(chain.space.wminus)
    times = [bctx.frac(1, 10), bctx.num(3)]
    raw = chain.space.overlaps(chain.vectors)(times[1])
    # the cross dot is the imaginary part of an even amplitude
    assert any(v.imag != 0 for v in raw[::2])
    sym = energy_pair(default_system(kind, bctx))
    sym_ip = trace_inner(sym)
    want = krylov_profile(operator_lanczos(sym, sym_ip), sym, sym_ip, times)
    got = krylov_profile(chain, pair, ip, times)
    bound = bctx.default_tolerance().rel_eps
    for row, ref in zip(got.phi, want.phi, strict=True):
        assert max(abs(a - b) for a, b in zip(row, ref, strict=True)) <= bound

"""The parity fold of the position-basis band, in bigreal mode.

When H, eta and the band weights are exact mirror images, L^k eta has
the exact parity V_ba = (-1)^k V_ab, the band keeps one entry per mirror
pair, and the chain reorthogonalises against every second earlier vector.
Every term the fold skips is an exact zero, so b, the dense chain
vectors, the oracle moments and the profile rows equal the full-band
reference of ``helpers`` (dense commutators, dots over every entry, full
reorthogonalisation) bit for bit.  Pairs that are mirror images only up
to rounding, or only under a metric, keep the whole band and stride 1.
"""

from dataclasses import replace

import numpy as np
import pytest

from krylov_exact import (
    Context,
    OperatorPair,
    default_system,
    inner,
    krylov_profile,
    make_system,
    moments_oracle,
    operator_lanczos,
    position_pair,
    trace_inner,
)

from helpers import FINITE_KINDS, param_samples, reference_chain, reference_oracle, reference_profile, rotated_pair

K = 6
TIMES = ["1/10", "7/5", "3"]


def _keys(values) -> list:
    return [v._mpf_ for v in values]


def _check(pair, stride: int, profile: bool = True) -> None:
    """Oracle, chain and profile of PAIR against the full-band reference."""
    ip = trace_inner(pair)
    dot = lambda u, v: inner(ip, u, v)  # noqa: E731
    assert _keys(moments_oracle(pair, ip, K).values) == _keys(reference_oracle(pair, dot, K))
    chain = operator_lanczos(pair, ip)
    assert chain.space.lanczos_stride() == stride
    ops, bs, stopped = reference_chain(pair, dot)
    assert chain.stopped == stopped
    assert _keys(chain.b) == _keys(bs)
    for got, want in zip(chain.ops, ops, strict=True):
        assert _keys(got.ravel()) == _keys(want.ravel())
    if profile:
        rows = krylov_profile(chain, pair, ip, TIMES).phi
        for got, want in zip(rows, reference_profile(pair, ip, ops, map(pair.ctx.num, TIMES)), strict=True):
            assert _keys(got) == _keys(want)


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_folded_defaults_equal_full_band(bctx, kind):
    pair = position_pair(default_system(kind, bctx))
    _check(pair, stride=2)
    # the doubled pair of the scaling check folds too
    doubled = replace(pair, h=pair.h * bctx.frac(2))
    ip = trace_inner(doubled)
    assert doubled.rep.space(doubled, ip, 2).folded
    dot = lambda u, v: inner(ip, u, v)  # noqa: E731
    assert _keys(moments_oracle(doubled, ip, 2).values) == _keys(reference_oracle(doubled, dot, 2))


@pytest.mark.parametrize("N", [6, pytest.param(8, marks=pytest.mark.slow)])
@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_folded_samples_equal_full_band(bctx, kind, N):
    for params in param_samples(kind, N):
        _check(position_pair(make_system(kind, N, params, bctx)), stride=2)


def test_folded_chain_halves_the_reorthogonalisation(bctx, monkeypatch):
    # the step from O_{m-1} dots W with the m earlier vectors on the whole
    # band, or with the m // 2 of W's parity on the fold; each step adds one
    # dot for |W|^2, and the seed one for |eta|^2
    lengths = []
    real = Context.dot
    monkeypatch.setattr(Context, "dot", lambda self, u, v: lengths.append(len(u)) or real(self, u, v))
    folded = position_pair(default_system("hahn", bctx))
    n = folded.dim
    reorth = {}
    # the folded dots run on the entries a <= b of the band
    for pair, stride, entries in ((folded, 2, n * (n + 1) // 2), (rotated_pair(folded), 1, n * n)):
        lengths.clear()
        chain = operator_lanczos(pair)
        steps = range(1, len(chain.b) + chain.stopped + 1)
        reorth[stride] = len(lengths) - 1 - len(steps)
        assert reorth[stride] == sum(m // stride for m in steps)
        assert set(lengths) == {entries}
    assert len(steps) > 8 and 2 * reorth[2] <= reorth[1]


def test_unfolded_pairs_keep_stride_one(ctx, bctx):
    spec = make_system("hahn", 6, {"a": "1/2", "b": "2"}, bctx)
    _check(rotated_pair(position_pair(spec)), stride=1)
    # the exact rescaled pair in bigreal: H is not symmetric (metric g), so
    # eig_symmetric does not apply and there is no profile
    exact = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, ctx))
    metric = np.array([bctx.num(g) for g in exact.metric], dtype=object)
    _check(OperatorPair(exact.h, exact.eta, bctx, metric), stride=1, profile=False)

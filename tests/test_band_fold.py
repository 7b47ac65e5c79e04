"""The parity fold of the position-basis band, in both modes.

Exact position pairs run their chain and oracle here.  Bigreal position
pairs run theirs in the eigenbasis of H (``test_eigen_route``); the
bigreal band stays the reference of these tests, reached through
``helpers.band_chain`` and ``helpers.band_oracle``, until it goes.

When H, eta and the band weights are mirror images -- exactly, or in
exact mode under the metric g (H_ba g_a = H_ab g_b) -- L^k eta has the
exact parity W_ba = (-1)^k W_ab for W = G^-1 L^k eta, the band keeps one
entry per mirror pair, and the chain reorthogonalises against every
second earlier vector.  In bigreal mode every term the fold skips is an
exact zero, so b, the dense chain vectors, the oracle moments and the
profile rows equal the full-band reference of ``helpers`` (dense
commutators, dots over every entry, full reorthogonalisation) bit for
bit; in exact mode the oracle moments, b^2, squared norms and chain
operators equal the dense exact reference in value and type.  Pairs
that are mirror images only up to rounding, and bigreal pairs under a
metric, keep the whole band and stride 1.  Exact pairs whose H, eta or
weights break the mirror keep the whole band in the oracle, and the
chain refuses them with ``MirrorAsymmetry``.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from krylov_exact import (
    Context,
    InnerProduct,
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

from krylov_exact.errors import MirrorAsymmetry

from helpers import (
    FINITE_KINDS,
    band_chain,
    band_oracle,
    band_space,
    exact_b2_reference,
    exact_value,
    nudged_pair,
    param_samples,
    reference_chain,
    reference_exact_chain,
    reference_oracle,
    reference_profile,
    rotated_pair,
)

K = 6
TIMES = ["1/10", "7/5", "3"]


def _keys(values) -> list:
    return [v._mpf_ for v in values]


def _check(pair, stride: int, profile: bool = True) -> None:
    """Band oracle, chain and profile of PAIR against the full-band reference."""
    ip = trace_inner(pair)
    dot = lambda u, v: inner(ip, u, v)  # noqa: E731
    assert _keys(band_oracle(pair, ip, K).values) == _keys(reference_oracle(pair, dot, K))
    chain = band_chain(pair, ip)
    assert chain.space.lanczos_stride() == stride
    ops, bs, stopped = reference_chain(pair, ip)
    assert chain.stopped == stopped
    assert _keys(chain.b) == _keys(bs)
    for got, want in zip(chain.ops, ops, strict=True):
        assert _keys(got.ravel()) == _keys(want.ravel())
    if profile:
        rows = krylov_profile(chain, pair, ip, TIMES).phi
        for got, want in zip(rows, reference_profile(pair, ip, ops, map(pair.ctx.num, TIMES)), strict=True):
            assert _keys(got) == _keys(want)


def _check_exact(pair, k_max: int | None = None) -> None:
    """Exact oracle and chain of PAIR, which folds, under the trace (the
    whole chain by default) against the dense exact reference."""
    ip = trace_inner(pair)
    dot = lambda u, v: inner(ip, u, v)  # noqa: E731
    same = lambda got, want: [(type(v), v) for v in got] == [(type(v), v) for v in want]  # noqa: E731
    assert same(moments_oracle(pair, ip, K).values, reference_oracle(pair, dot, K))
    chain = operator_lanczos(pair, ip, k_max)
    assert chain.space.folded and chain.space.lanczos_stride() == 2
    ops, b2s, nus, stopped = reference_exact_chain(pair, dot, k_max)
    assert chain.stopped == stopped
    assert same(chain.b_squared, b2s) and same(chain.norms_sq, nus)
    for got, want in zip(chain.ops, ops, strict=True):
        assert same(got.ravel(), want.ravel())


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_exact_defaults_fold_under_their_metric(ctx, kind):
    _check_exact(position_pair(default_system(kind, ctx)))


@pytest.mark.parametrize("N", [6, pytest.param(8, marks=pytest.mark.slow)])
@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_exact_samples_fold_under_their_metric(ctx, kind, N):
    for params in param_samples(kind, N):
        _check_exact(position_pair(make_system(kind, N, params, ctx)))


def test_exact_pairs_off_the_mirror_keep_the_whole_band(ctx):
    # eta gains the entries (0, 1) and (1, 0): mirror images under g when
    # eta_10 g_0 = eta_01 g_1, which folds; one unit more in eta_10 or in
    # H_10, or a trace product under another metric, breaks the mirror.
    # The oracle then keeps the whole band, with its odd moments (mu_1 =
    # 285/824 for eta_10), and the chain, which takes a_n = 0 and L
    # self-adjoint, refuses the pair and names the entry
    pair = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, ctx))
    g = pair.metric
    assert g is not None and g[0] != g[1]
    other = InnerProduct(ctx, pair.dim, metric=g * np.array([2] + [1] * (pair.dim - 1)))
    for eta_off, h_off, ip, broken in ((0, 0, None, None), (1, 0, None, "eta"), (0, 1, None, "H"),
                                       (0, 0, other, "weight")):
        h, eta = pair.h.copy(), pair.eta.copy()
        eta[0, 1], eta[1, 0] = ctx.one, g[1] / g[0] + eta_off
        h[1, 0] += h_off
        off = OperatorPair(h, eta, ctx, g, pair.spec)
        if broken is None:
            _check_exact(off, k_max=8)
            continue
        ip = ip or trace_inner(off)
        got, want = moments_oracle(off, ip, K).values, reference_oracle(off, lambda u, v: inner(ip, u, v), K)
        assert [(type(v), v) for v in got] == [(type(v), v) for v in want]
        assert not off.rep.space(off, ip, K).folded
        assert broken != "eta" or got[1] == Fraction(285, 824)
        with pytest.raises(MirrorAsymmetry, match=rf"{broken} entries \(0, 1\) and \(1, 0\)"):
            operator_lanczos(off, ip, 8)


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_folded_defaults_equal_full_band(bctx, kind):
    pair = position_pair(default_system(kind, bctx))
    _check(pair, stride=2)
    # the doubled pair of the scaling check folds too
    doubled = replace(pair, h=pair.h * bctx.frac(2))
    ip = trace_inner(doubled)
    assert band_space(doubled, ip, 2).folded
    dot = lambda u, v: inner(ip, u, v)  # noqa: E731
    assert _keys(band_oracle(doubled, ip, 2).values) == _keys(reference_oracle(doubled, dot, 2))


@pytest.mark.parametrize("N", [6, pytest.param(8, marks=pytest.mark.slow)])
@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_folded_samples_equal_full_band(bctx, kind, N):
    for params in param_samples(kind, N):
        _check(position_pair(make_system(kind, N, params, bctx)), stride=2)


def test_folded_chain_halves_the_reorthogonalisation(bctx, monkeypatch):
    # the step from O_{m-1} reorthogonalises W against the m earlier vectors
    # on the whole band, or the m // 2 of W's parity on the fold: one
    # coefficient of Context.gram_schmidt each, in one call per step
    coefficients, lengths = [], set()
    real = Context.gram_schmidt

    def counting(self, w, basis):
        coefficients.append(len(basis))
        lengths.add(len(w))
        return real(self, w, basis)

    monkeypatch.setattr(Context, "gram_schmidt", counting)
    folded = position_pair(default_system("hahn", bctx))
    n = folded.dim
    reorth = {}
    # the folded vectors hold the entries a <= b of the band
    for pair, stride, entries in ((folded, 2, n * (n + 1) // 2), (rotated_pair(folded), 1, n * n)):
        coefficients.clear()
        lengths.clear()
        chain = band_chain(pair)
        steps = range(1, len(chain.b) + chain.stopped + 1)
        assert len(coefficients) == len(steps)
        reorth[stride] = sum(coefficients)
        assert reorth[stride] == sum(m // stride for m in steps)
        assert lengths == {entries}
    assert len(steps) > 8 and 2 * reorth[2] <= reorth[1]


def test_unfolded_pairs_keep_stride_one(ctx, bctx):
    spec = make_system("hahn", 6, {"a": "1/2", "b": "2"}, bctx)
    _check(nudged_pair(position_pair(spec)), stride=1)
    # the exact rescaled pair in bigreal: H is not symmetric (metric g), so
    # eig_symmetric does not apply and there is no profile
    exact = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, ctx))
    metric = np.array([bctx.num(g) for g in exact.metric], dtype=object)
    _check(OperatorPair(exact.h, exact.eta, bctx, metric), stride=1, profile=False)


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_imaginary_seed_follows_the_real_chain(bctx, kind):
    # i eta makes every vector complex with an exactly zero real part, so
    # the covectors conjugate (dual) and every coefficient is complex with
    # an exactly zero imaginary part; each imaginary part then takes the
    # real chain's operations
    pair = position_pair(default_system(kind, bctx))
    seeded = OperatorPair(pair.h, pair.eta * bctx.mp.mpc(0, 1), bctx)
    real, imaginary = band_chain(pair), band_chain(seeded)
    assert imaginary.stopped == real.stopped
    assert all(hasattr(b, "_mpc_") for b in imaginary.b)
    assert _keys(b.real for b in imaginary.b) == _keys(real.b)
    assert all(b.imag == 0 for b in imaginary.b)


@pytest.mark.slow
def test_long_chain_keeps_its_length_and_prefix(ctx, bctx):
    """Opt-in (``pytest -m slow``): the full bigreal Hahn (1/2, 2) chain at
    N=16 stops at the exact 2N = 32, and every b^2 agrees with the exact
    one to 47 digits.  On the band it ran 272 steps: the rounded H has a
    Krylov space the exact H does not have."""
    params = {"a": "1/2", "b": "2"}
    chain = operator_lanczos(position_pair(make_system("hahn", 16, params, bctx)))
    assert (len(chain.b), chain.stopped) == (32, True)
    exact = exact_b2_reference(position_pair(make_system("hahn", 16, params, ctx)))
    for got, want in zip(chain.b_squared, exact, strict=True):
        want = Fraction(int(want.numerator), int(want.denominator))
        assert abs(exact_value(got) - want) <= want / 10**47

"""The parity fold of the position-basis band in exact mode, and of the
eigenbasis route in bigreal.

When H, eta and the band weights are mirror images under the metric g
(H_ba g_a = H_ab g_b), L^k eta has the exact parity W_ba = (-1)^k W_ab
for W = G^-1 L^k eta, and the exact band keeps one entry per mirror pair:
the oracle moments, b^2, squared norms and chain operators equal the
dense exact reference in value and type.  The band space checks the
mirror when it is built, so an exact pair whose H, eta or weights break
it is refused with ``MirrorAsymmetry`` by the oracle and the chain alike,
naming the same entry.  A bigreal position pair folds in
the eigenbasis of H (``EigenSupport``) and reorthogonalises against every
second earlier vector; its oracle moments and b^2 equal the exact pair's
to 47 digits, its odd moments are exact zeros, and it stops where the
exact chain stops.  A complex seed has no eigenbasis route.
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
    make_system,
    moments_oracle,
    operator_lanczos,
    position_pair,
    trace_inner,
)

from krylov_exact.errors import BasisMismatch, MirrorAsymmetry
from krylov_exact.operators import EigenSupport

from helpers import (
    FINITE_KINDS,
    agree,
    exact_b2_reference,
    exact_value,
    param_samples,
    reference_exact_chain,
    reference_oracle,
)

K = 6


def _counted_chain(pair):
    """(chain, coefficients): PAIR's chain, and the number of earlier
    vectors each of its ``Context.gram_schmidt`` calls took."""
    coefficients, real = [], Context.gram_schmidt
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Context, "gram_schmidt", lambda self, w, basis: coefficients.append(len(basis))
                      or real(self, w, basis))
        return operator_lanczos(pair), coefficients


def _check(pair, exact) -> None:
    """The bigreal PAIR's oracle and chain, folded in the eigenbasis of H,
    against the exact pair EXACT's on the whole band.  The fold keeps the
    entries a <= b of the eigenbasis support, and the step from O_{m-1}
    reorthogonalises against the m // 2 earlier vectors of its parity."""
    assert agree(moments_oracle(pair, K=K).values, moments_oracle(exact, K=K).values)
    (chain, coefficients), want = _counted_chain(pair), operator_lanczos(exact)
    assert isinstance(chain.space, EigenSupport) and (chain.space.rows <= chain.space.cols).all()
    assert sum(coefficients) == sum(m // 2 for m in range(1, len(chain.b) + chain.stopped + 1))
    assert (chain.stop_index, chain.stopped) == (want.stop_index, want.stopped)
    assert agree(chain.b_squared, want.b_squared)


def _check_exact(pair, k_max: int | None = None) -> None:
    """Exact oracle and chain of PAIR, which folds, under the trace (the
    whole chain by default) against the dense exact reference.  Every
    chain vector holds the band's entries a <= b alone."""
    ip = trace_inner(pair)
    dot = lambda u, v: inner(ip, u, v)  # noqa: E731
    same = lambda got, want: [(type(v), v) for v in got] == [(type(v), v) for v in want]  # noqa: E731
    assert same(moments_oracle(pair, ip, K).values, reference_oracle(pair, dot, K))
    chain = operator_lanczos(pair, ip, k_max)
    rows, cols = chain.space.band
    assert {len(v.num) for v in chain.vectors} == {np.count_nonzero(rows <= cols)}
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


def test_exact_pairs_off_the_mirror_are_refused(ctx):
    # eta gains the entries (0, 1) and (1, 0): mirror images under g when
    # eta_10 g_0 = eta_01 g_1, which folds; one unit more in eta_10 or in
    # H_10, or a trace product under another metric, breaks the mirror.
    # The band space checks the mirror when it is built, so the oracle and
    # the chain, which share it, refuse the pair with the same error
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
        errors = []
        for run in (lambda: moments_oracle(off, ip, K), lambda: operator_lanczos(off, ip, 8)):
            with pytest.raises(MirrorAsymmetry, match=rf"{broken} entries \(0, 1\) and \(1, 0\)") as err:
                run()
            errors.append(str(err.value))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_folded_defaults_equal_full_band(ctx, bctx, kind):
    _check(position_pair(default_system(kind, bctx)), position_pair(default_system(kind, ctx)))
    # the doubled pair of the scaling check folds too
    doubled = [replace(pair, h=pair.h * 2) for pair in (position_pair(default_system(kind, c)) for c in (bctx, ctx))]
    assert agree(moments_oracle(doubled[0], K=2).values, moments_oracle(doubled[1], K=2).values)


@pytest.mark.parametrize("N", [6, pytest.param(8, marks=pytest.mark.slow)])
@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_folded_samples_equal_full_band(ctx, bctx, kind, N):
    for params in param_samples(kind, N):
        _check(position_pair(make_system(kind, N, params, bctx)), position_pair(make_system(kind, N, params, ctx)))


def test_folded_chain_halves_the_reorthogonalisation(ctx, bctx):
    # the step from O_{m-1} reorthogonalises W against the m // 2 earlier
    # vectors of W's parity, where the unfolded space would take all m: one
    # coefficient of Context.gram_schmidt each, in one call per step.  The
    # exact chain reorthogonalises nothing, and its folded vectors hold the
    # entries a <= b of the band
    chain, coefficients = _counted_chain(position_pair(default_system("hahn", bctx)))
    steps = range(1, len(chain.b) + chain.stopped + 1)
    assert len(coefficients) == len(steps) > 8
    assert sum(coefficients) == sum(m // 2 for m in steps)
    exact, none = _counted_chain(position_pair(default_system("hahn", ctx)))
    n = exact.space.n
    assert none == []  # no call from the exact chain
    assert {len(v.num) for v in exact.vectors} == {n * (n + 1) // 2}


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_imaginary_seed_follows_the_real_chain(bctx, kind):
    # i eta would follow the real chain with every b the same, but the
    # eigenbasis route holds a real symmetric eta alone: the chain and the
    # oracle of the imaginary seed name that, and the real seed runs
    pair = position_pair(default_system(kind, bctx))
    seeded = OperatorPair(pair.h, pair.eta * bctx.mp.mpc(0, 1), bctx)
    for run in (operator_lanczos, moments_oracle):
        with pytest.raises(BasisMismatch, match="eta is complex"):
            run(seeded)
    assert operator_lanczos(pair).stopped


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

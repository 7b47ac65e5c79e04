"""The exact position-basis operator space on integer numerators.

The references below are the rational path that space replaced: the
commutator on matrices of rationals and the inner product summed as
(weight * U * V).sum(), entry by entry in rationals.  The integer space
must reproduce its moments, b^2, squared norms and chain operators in
value and in type.
"""

import random

import numpy as np
import pytest

from krylov_exact import (
    OperatorPair,
    apply_liouville_power,
    liouville,
    make_system,
    moments_oracle,
    operator_lanczos,
    position_pair,
    trace_inner,
    verify_closure,
)
from krylov_exact import band as band_module

from helpers import FINITE_KINDS, param_samples, random_metric_hermitian


def _reference_dot(pair):
    weight = trace_inner(pair).weight
    return lambda u, v: (weight * u * v).sum()


def _reference_oracle(pair, K):
    dot = _reference_dot(pair)
    v = pair.eta
    norm = dot(v, v)
    values = [pair.ctx.one]
    for _ in range(K):
        v_next = liouville(pair.h, v)
        values += [dot(v, v_next) / norm, dot(v_next, v_next) / norm]
        v = v_next
    return values


def _reference_chain(pair, k_max):
    """(ops, b^2, squared norms, stopped) of the unnormalised recurrence."""
    dot = _reference_dot(pair)
    v_prev, v_cur = None, pair.eta
    ops, nus, b2s = [v_cur], [dot(v_cur, v_cur)], []
    while len(b2s) < k_max:
        w = liouville(pair.h, v_cur)
        if v_prev is not None:
            w = w - v_prev * b2s[-1]
        nu = dot(w, w)
        if nu == 0:
            return ops, b2s, nus, True
        b2s.append(nu / nus[-1])
        nus.append(nu)
        v_prev, v_cur = v_cur, w
        ops.append(v_cur)
    return ops, b2s, nus, False


def _assert_same(got, want, rational):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w and type(g) is rational


def _check_pair(pair, K):
    rational = type(pair.ctx.one)
    _assert_same(moments_oracle(pair, K=K).values, _reference_oracle(pair, K), rational)
    chain = operator_lanczos(pair, k_max=K)
    ops, b2s, nus, stopped = _reference_chain(pair, K)
    _assert_same(chain.b_squared, b2s, rational)
    _assert_same(chain.norms_sq, nus, rational)
    assert "ops" not in vars(chain)  # scattered on first read
    assert chain.stopped == stopped and len(chain.ops) == len(ops)
    for got, want in zip(chain.ops, ops):
        assert got.shape == want.shape
        _assert_same(got.ravel(), want.ravel(), rational)


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_integer_space_equals_rational_reference(ctx, kind):
    for N in (6, 8):
        for params in param_samples(kind, N):
            _check_pair(position_pair(make_system(kind, N, params, ctx)), K=12)


@pytest.mark.parametrize("with_metric", [False, True])
def test_integer_space_dense_pairs(ctx, with_metric):
    # a dense H and eta, with and without a metric: the weight and both
    # denominators are generic here, not the catalog's tridiagonal ones
    rng = random.Random(7 + with_metric)
    n = 5
    metric = None
    if with_metric:
        metric = np.array([ctx.frac(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)], dtype=object)
    h = random_metric_hermitian(n, ctx, rng, metric)
    eta = random_metric_hermitian(n, ctx, rng, metric)
    _check_pair(OperatorPair(h, eta, ctx, metric), K=8)


def test_exact_position_commutators_run_on_integers(ctx, monkeypatch):
    # every product of the band kernel, in the chain, the oracle, the
    # closure and L^m eta alike, multiplies integer numerators
    seen = []
    kernel = band_module._product

    def recording(x, y, band, zero):
        for _, _, padded in (x, y):
            seen.extend(type(v) for v in padded.ravel())
        seen.append(type(zero))
        return kernel(x, y, band, zero)

    monkeypatch.setattr(band_module, "_product", recording)
    pair = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, ctx))
    assert pair.metric is not None
    closure = verify_closure(pair)
    for run in (
        lambda: moments_oracle(pair, K=4),
        lambda: operator_lanczos(pair, k_max=4),
        lambda: verify_closure(pair),
        lambda: apply_liouville_power(pair, closure, 4),
    ):
        seen.clear()
        run()
        assert seen and set(seen) == {int}

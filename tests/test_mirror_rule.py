"""One mirror rule for every operator space.

The oracle and the chain share one operator space per (pair, inner
product), and each space checks once, when it is built, that L is
self-adjoint under its inner product: on the eta support every mirror
pair cancels, |w_ab - w_ba r_ab^2| <= rel_eps w+, and on an exact band H,
eta and the weights are mirror images under the metric.  Every pair the
builders make passes, and its odd moments are exact zeros.  A hand-built
pair off the mirror makes the oracle and the chain raise the same
``MirrorAsymmetry``, naming the entry; a bigreal matrix pair keeps the
``BasisMismatch`` of its eigenbasis route.  A spectrum H is diagonal, so
H_10 + 1 breaks a band alone.
"""

import numpy as np
import pytest

from krylov_exact import (
    InnerProduct,
    OperatorPair,
    default_system,
    energy_pair,
    make_system,
    moments_oracle,
    operator_lanczos,
    position_pair,
    trace_inner,
)
from krylov_exact.errors import BasisMismatch, MirrorAsymmetry
from krylov_exact.verify import SystemChecks

from helpers import FINITE_KINDS, THERMAL_KINDS, param_samples

K = 2


def _shares_one_space(pair, ip) -> None:
    """The oracle and the chain of PAIR under IP build one space, kept on
    the pair, and the odd moments are exact zeros."""
    moments = moments_oracle(pair, ip, K).values
    chain = operator_lanczos(pair, ip, K)
    assert [space for _, _, space in pair.rep.spaces.values()] == [chain.space]
    zero = pair.ctx.zero
    assert all(type(mu) is type(zero) and mu == 0 for mu in moments[1::2])


@pytest.mark.parametrize("mode", ["exact", "bigreal"])
@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_finite_builder_pairs_pass_the_mirror_check(ctx, bctx, mode, kind):
    c = ctx if mode == "exact" else bctx
    specs = [default_system(kind, c)] + [make_system(kind, 6, params, c) for params in param_samples(kind, 6)]
    for spec in specs:
        for pair in (position_pair(spec), energy_pair(spec)):
            _shares_one_space(pair, trace_inner(pair))


@pytest.mark.parametrize("kind", THERMAL_KINDS, ids=lambda k: k.value)
def test_thermal_builder_pairs_pass_the_mirror_check(bctx, kind):
    # the Wightman product at both of verify's cuts: the rows' and the oracle's
    checks = SystemChecks(default_system(kind, bctx))
    for pair, ip in (checks.pair, checks.oracle_pair):
        _shares_one_space(pair, ip)


def _broken(pair, case: str):
    """(pair, inner product) with PAIR's mirror broken as CASE says."""
    h, eta, ctx, g = pair.h.copy(), pair.eta.copy(), pair.ctx, pair.metric
    ip = None
    if case == "eta_23 doubled":
        eta[2, 3] = 2 * eta[2, 3]
    elif case == "eta_32 removed":
        eta[3, 2] = ctx.zero
    elif case == "H_10 + 1":
        h[1, 0] = h[1, 0] + 1
    else:  # a second metric's weights
        ones = np.array([ctx.one] * pair.dim, dtype=object)
        second = (ones if g is None else g) * np.array([ctx.num(2)] + [ctx.one] * (pair.dim - 1), dtype=object)
        ip = InnerProduct(ctx, pair.dim, metric=second)
    off = OperatorPair(h, eta, ctx, g, pair.spec)
    return off, ip or trace_inner(off)


def _mirrored_band(ctx):
    """An exact Hahn position pair whose eta gains the entries (2, 3) and
    (3, 2), mirror images under the metric: eta_32 g_2 = eta_23 g_3."""
    pair = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, ctx))
    eta, g = pair.eta.copy(), pair.metric
    if g is None:
        eta[2, 3] = eta[3, 2] = ctx.one
    else:
        eta[2, 3], eta[3, 2] = ctx.one, g[3] / g[2]
    return OperatorPair(pair.h, eta, ctx, g, pair.spec)


def _same_refusal(pair, ip, error, match: str) -> None:
    """The oracle and the chain of PAIR under IP raise the same ERROR, matching MATCH."""
    messages = []
    for run in (lambda: moments_oracle(pair, ip, K), lambda: operator_lanczos(pair, ip, K)):
        with pytest.raises(error, match=match) as err:
            run()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


ETA_23 = r"eta entries \(2, 3\) and \(3, 2\)"
SPECTRUM_CASES = {"eta_23 doubled": ETA_23, "eta_32 removed": ETA_23,
                  "second metric": r"eta entries \(0, 1\) and \(1, 0\)"}
BAND_CASES = {**SPECTRUM_CASES, "H_10 + 1": r"H entries \(0, 1\) and \(1, 0\)",
              "second metric": r"weight entries \(0, 1\) and \(1, 0\)"}
EIGENBASIS_CASES = {"eta_23 doubled": "eta is not symmetric", "eta_32 removed": "eta is not symmetric",
                    "H_10 + 1": "H is not symmetric", "second metric": "there is a metric"}


@pytest.mark.parametrize("mode", ["exact", "bigreal"])
@pytest.mark.parametrize("case", list(SPECTRUM_CASES))
def test_spectrum_off_the_mirror_is_refused(ctx, bctx, mode, case):
    base = energy_pair(make_system("krawtchouk", 6, {"p": "1/3"}, ctx if mode == "exact" else bctx))
    assert (mode == "exact") == (base.metric is not None)  # the exact pair is the rescaled one
    _shares_one_space(base, trace_inner(base))
    _same_refusal(*_broken(base, case), MirrorAsymmetry, SPECTRUM_CASES[case])


@pytest.mark.parametrize("case", list(BAND_CASES))
def test_exact_band_off_the_mirror_is_refused(ctx, case):
    base = _mirrored_band(ctx)
    _shares_one_space(base, trace_inner(base))
    _same_refusal(*_broken(base, case), MirrorAsymmetry, BAND_CASES[case])


@pytest.mark.parametrize("case", list(EIGENBASIS_CASES))
def test_bigreal_matrix_off_the_mirror_keeps_the_basis_mismatch(bctx, case):
    base = _mirrored_band(bctx)
    _shares_one_space(base, trace_inner(base))
    _same_refusal(*_broken(base, case), BasisMismatch, EIGENBASIS_CASES[case])

"""A spectrum pair's closure and Heisenberg checks run on the eta support
plus the diagonal.  Each result equals the dense evaluation on every
entry of the (cut+1)^2 matrices (``helpers``) entry for entry: the same
operations per entry, and exact zeros off the support."""

import numpy as np
import pytest

from krylov_exact import (
    Context,
    apply_liouville_power,
    default_system,
    energy_pair,
    heisenberg_closed_form,
    make_system,
    matrix_exponential_conjugate,
    moments_closed_thermal,
    verify_closure,
)
from krylov_exact.dynamics import HEISENBERG_TIMES, heisenberg_check

from helpers import (
    dense_closed_form,
    dense_closure,
    dense_conjugate_exp,
    dense_liouville_power,
    random_metric_hermitian,
)


def _verify_pair(system, ctx):
    """The energy pair ``verify`` checks a thermal system on at beta = 1."""
    spec = default_system(system, ctx)
    cut = moments_closed_thermal(spec, 6, beta="1").truncation.n_max
    return energy_pair(spec, n_max=max(cut, 8))


def _assert_same_entries(got, ref):
    assert got.shape == ref.shape
    assert all(type(a) is type(b) and a == b for a, b in zip(got.ravel(), ref.ravel()))


@pytest.mark.parametrize(
    "pair_of",
    [
        lambda c: _verify_pair("charlier", c),
        lambda c: _verify_pair("meixner", c),
        lambda c: energy_pair(make_system("gegenbauer", None, {"g": "2"}, Context("bigreal", 60)), n_max=20),
    ],
    ids=["charlier", "meixner", "gegenbauer-60"],
)
def test_heisenberg_matches_dense_reference(bctx, pair_of):
    pair = pair_of(bctx)
    cl = verify_closure(pair)
    devs, ok = heisenberg_check(pair, cl, HEISENBERG_TIMES)
    assert ok
    entries = np.count_nonzero(pair.eta)
    assert entries < pair.dim**2 // 3
    for t, dev in zip(map(pair.ctx.num, HEISENBERG_TIMES), devs):
        closed, oracle = dense_closed_form(pair, cl, t), dense_conjugate_exp(pair, pair.eta, t)
        _assert_same_entries(heisenberg_closed_form(pair, cl, t), closed)
        _assert_same_entries(matrix_exponential_conjugate(pair, pair.eta, t), oracle)
        assert dev == max(abs(v) for v in (closed - oracle).ravel())


def test_closure_matches_dense_reference_exact(ctx):
    pair = energy_pair(default_system("hahn", ctx))
    assert pair.metric is not None
    cl = verify_closure(pair)
    rm1, residual = dense_closure(pair)
    assert cl.rm1 == rm1 and cl.residual == residual
    assert type(cl.residual) is type(residual)
    for m in range(9):
        _assert_same_entries(apply_liouville_power(pair, cl, m), dense_liouville_power(pair, cl, m))


def test_exponential_conjugate_twists_entries_off_the_support(bctx):
    import random

    pair = energy_pair(default_system("krawtchouk", bctx))
    v = random_metric_hermitian(pair.dim, bctx, random.Random(7))
    off_support = (pair.eta == 0) & (v != 0)
    assert off_support.sum() > pair.dim
    t = bctx.frac(7, 10)
    out = matrix_exponential_conjugate(pair, v, t)
    _assert_same_entries(out, dense_conjugate_exp(pair, v, t))
    assert all(out[off_support] != 0)

"""The position-basis closure check and L^m eta run on bands.

Every result equals the dense reference of ``helpers`` (Horner with
``acc @ h``, ``v @ f`` and the fit over all n^2 rows): bigreal values bit
for bit, exact ones in type and value.  No dense n x n matrix and no
full-band commutator is formed, and the fit gets O(n) rows.
"""

import numpy as np
import pytest

from krylov_exact import (
    Context,
    OperatorPair,
    apply_liouville_power,
    default_system,
    krylov_profile,
    make_system,
    operator_lanczos,
    position_pair,
    trace_inner,
    verify_closure,
)
from krylov_exact.errors import BasisMismatch
from krylov_exact.operators import eig_symmetric

from helpers import (
    FINITE_KINDS,
    dense_position_closure,
    dense_position_liouville_power,
    nudged_pair,
    param_samples,
    same_scalar,
)



def _specs(kind, ctx):
    yield default_system(kind, ctx)
    for N in (6, 8):
        for params in param_samples(kind, N):
            yield make_system(kind, N, params, ctx)


@pytest.mark.parametrize("mode", ["exact", "bigreal"])
@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_closure_matches_dense_reference(kind, mode):
    ctx = Context(mode, 50)
    for spec in _specs(kind, ctx):
        pair = position_pair(spec)
        cl = verify_closure(pair)
        rm1, residual = dense_position_closure(pair)
        assert len(cl.rm1) == len(rm1) == 3
        assert all(same_scalar(a, b) for a, b in zip(cl.rm1, rm1)), (spec.N, spec.params)
        assert same_scalar(cl.residual, residual)


@pytest.mark.parametrize("mode", ["exact", "bigreal"])
@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_liouville_power_matches_dense_reference(kind, mode):
    ctx = Context(mode, 50)
    pair = position_pair(make_system(kind, 6, param_samples(kind, 6)[1], ctx))
    cl = verify_closure(pair)
    for m in range(7):
        got, ref = apply_liouville_power(pair, cl, m), dense_position_liouville_power(pair, cl, m)
        assert got.shape == ref.shape
        assert all(same_scalar(a, b) for a, b in zip(got.ravel(), ref.ravel())), m


@pytest.mark.parametrize("mode", ["exact", "bigreal"])
def test_closure_forms_no_dense_matrix(monkeypatch, mode):
    import krylov_exact.band as band_mod
    import krylov_exact.dynamics as dynamics_mod
    import krylov_exact.operators as operators_mod

    ctx = Context(mode, 50)
    pair = position_pair(make_system("hahn", 24, {"a": "1/2", "b": "2"}, ctx))
    w_eta = pair.rep.bands[2]
    assert w_eta == 0
    calls, rows = [], []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(name)

        return call

    def fit(columns, target, ctx):
        rows.append(len(target))
        assert all(len(c) == len(target) for c in columns)
        return solve(columns, target, ctx)

    solve = dynamics_mod.solve_consistent
    # wherever a module binds zeros, scatter would call it
    for module in (operators_mod, dynamics_mod, band_mod):
        monkeypatch.setattr(module, "zeros", forbidden("zeros"), raising=False)
    monkeypatch.setattr(operators_mod, "liouville", forbidden("liouville"))
    monkeypatch.setattr(dynamics_mod, "solve_consistent", fit)
    verify_closure(pair)
    assert calls == []
    w, n = w_eta + 2, pair.dim
    assert rows == [(2 * w + 1) * n - w * (w + 1)]


def test_eig_symmetric_rejects_an_asymmetric_h():
    exact, big = Context("exact"), Context("bigreal", 50)
    rescaled = position_pair(make_system("krawtchouk", 3, {"p": "1/3"}, exact))
    assert list(rescaled.metric) == [1, exact.frac(2, 3), exact.frac(4, 3), 8]

    def lifted(m):
        return np.array([big.num(v) for v in m.ravel()], dtype=object).reshape(m.shape)

    pair = OperatorPair(
        lifted(rescaled.h), lifted(rescaled.eta), big, lifted(rescaled.metric),
        make_system("krawtchouk", 3, {"p": "1/3"}, big),
    )
    with pytest.raises(BasisMismatch, match=r"entries \(0, 1\) and \(1, 0\)"):
        eig_symmetric(pair.h, big)
    # the chain runs, and the profile stops at the eigendecomposition
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    with pytest.raises(BasisMismatch):
        krylov_profile(chain, pair, ip, [big.one])


def test_eig_symmetric_accepts_h_symmetric_up_to_rounding():
    big = Context("bigreal", 50)
    pair = nudged_pair(position_pair(default_system("krawtchouk", big)))
    assert not (pair.h == pair.h.T).all()
    energies, q = eig_symmetric(pair.h, big)
    assert len(energies) == pair.dim

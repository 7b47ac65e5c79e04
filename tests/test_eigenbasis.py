"""The matrix representation's eigenbasis path: Heisenberg check, closed
form, exponential conjugation and K(t) on position pairs, against the
dense numpy-``@`` forms, against the energy-basis route, and by count of
the work per check."""

from dataclasses import replace

import numpy as np
import pytest

from krylov_exact import (
    SystemKind,
    default_system,
    energy_pair,
    heisenberg_closed_form,
    krylov_profile,
    liouville,
    make_system,
    matrix_exponential_conjugate,
    operator_lanczos,
    position_pair,
    trace_inner,
    verify_closure,
)
from krylov_exact import operators
from krylov_exact.dynamics import (
    HEISENBERG_TIMES,
    _exp_differences,
    heisenberg_check,
)
from krylov_exact.numeric import Mantissas
from krylov_exact.operators import conjugate, eig_symmetric, max_abs

from helpers import FINITE_KINDS, heisenberg_route_bound, param_samples


def _dense_reference(pair):
    """The dense forms, every product a numpy-``@`` of object matrices:
    the oracle Q twist(Q^T V Q) Q^T and the closed form
    eta A + (L eta) B + C with each f(H) = Q diag(f(E)) Q^T."""
    ctx = pair.ctx
    energies, q = eig_symmetric(pair.h, ctx)

    def of_spectrum(values):
        return (q * np.array(values, dtype=object)) @ q.T

    def conjugate_exp(v, t):
        phases = [ctx.expj(e * t) for e in energies]
        twist = np.multiply.outer(phases, [p.conjugate() for p in phases])
        return q @ (twist * (q.T @ v @ q)) @ q.T

    def closed_form(cl, t):
        avals, bvals, cvals = [], [], []
        for e in energies:
            r1 = cl.r1_at(e)
            root = ctx.sqrt(r1 * r1 + 4 * cl.r0_at(e))
            ap, am = (r1 + root) / 2, (r1 - root) / 2
            e_am, b, second = _exp_differences(ctx, t, ap, am)
            avals.append(e_am - am * b)
            bvals.append(b)
            cvals.append(cl.rm1_at(e) * second)
        l1 = liouville(pair.h, pair.eta)
        return pair.eta @ of_spectrum(avals) + l1 @ of_spectrum(bvals) + of_spectrum(cvals)

    return conjugate_exp, closed_form


def _reference_profile(chain, ip, ot):
    """phi_n from per-term sums of weight * conj(O_n) * O_0(t)."""
    phases = [1, -1j, -1, 1j]
    return [
        ((ip.weight * conjugate(o_n) * ot).sum() * phases[n % 4]).real
        for n, o_n in enumerate(chain.ops)
    ]


REFERENCE_SYSTEMS = [
    ("hahn", {"a": "1/2", "b": "2"}),
    ("q-racah", param_samples(SystemKind.Q_RACAH, 6)[0]),
]


@pytest.mark.parametrize("kind,params", REFERENCE_SYSTEMS)
def test_matrix_path_matches_dense_reference(bctx, kind, params):
    pair = position_pair(make_system(kind, 6, params, bctx))
    cl = verify_closure(pair)
    ref_conjugate, ref_closed_form = _dense_reference(pair)
    rel_eps = bctx.default_tolerance().rel_eps
    heisenberg_bound = 1000 * rel_eps * max(max_abs(pair.eta), bctx.one)

    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    times = [bctx.frac(1, 10), bctx.frac(7, 10), bctx.num(3)]
    prof = krylov_profile(chain, pair, ip, times)
    for t, row in zip(times, prof.phi):
        ref = _reference_profile(chain, ip, ref_conjugate(chain.ops[0], t))
        assert len(row) == len(ref) > 2
        assert max(abs(a - b) for a, b in zip(row, ref)) <= 10 * rel_eps

    devs, ok = heisenberg_check(pair, cl, HEISENBERG_TIMES)
    assert ok and all(dev <= heisenberg_bound for dev in devs)
    for t in (bctx.num(s) for s in HEISENBERG_TIMES):
        closed = heisenberg_closed_form(pair, cl, t)
        assert max_abs(closed - ref_closed_form(cl, t)) <= heisenberg_bound
        oracle = matrix_exponential_conjugate(pair, pair.eta, t)
        assert max_abs(oracle - ref_conjugate(pair.eta, t)) <= heisenberg_bound


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_default_position_rows_match_dense_reference(bctx, kind):
    """verify's Heisenberg and profile rows on each default bigreal position
    pair: every amplitude at verify's eight times within 10 rel_eps of the
    dense per-time route, and each Heisenberg deviation within the
    roundings of the two moves back (``heisenberg_route_bound``) of
    max |closed - oracle| read off the public functions, each moved back
    on its own."""
    pair = position_pair(default_system(kind, bctx))
    cl = verify_closure(pair)
    ref_conjugate, _ = _dense_reference(pair)
    rel_eps = bctx.default_tolerance().rel_eps
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    times = [bctx.num(k) / 4 + bctx.frac(1, 10) for k in range(8)]
    for t, row in zip(times, krylov_profile(chain, pair, ip, times).phi, strict=True):
        ref = _reference_profile(chain, ip, ref_conjugate(chain.ops[0], t))
        assert max(abs(a - b) for a, b in zip(row, ref, strict=True)) <= 10 * rel_eps
    devs, ok = heisenberg_check(pair, cl, HEISENBERG_TIMES)
    bound = heisenberg_route_bound(pair)
    assert ok
    for t, dev in zip(map(bctx.num, HEISENBERG_TIMES), devs, strict=True):
        ref = heisenberg_closed_form(pair, cl, t) - matrix_exponential_conjugate(pair, pair.eta, t)
        assert abs(dev - max_abs(ref)) <= bound


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_position_and_energy_routes_agree(bctx, kind):
    """Numerical Q on the position lattice against the catalog energies
    on the folded support: the common b prefix and K(t) agree."""
    spec = default_system(kind, bctx)
    times = [bctx.num(k) / 4 + bctx.frac(1, 10) for k in range(8)]
    routes = []
    for pair in (position_pair(spec), energy_pair(spec)):
        ip = trace_inner(pair)
        chain = operator_lanczos(pair, ip)
        routes.append((chain.b, krylov_profile(chain, pair, ip, times).complexity))
    (b_pos, k_pos), (b_en, k_en) = routes
    m = min(len(b_pos), len(b_en))
    assert m >= 2
    bound = bctx.num("1e-45")
    assert all(abs(x - y) <= bound * abs(y) for x, y in zip(b_pos[:m], b_en[:m]))
    assert all(abs(x - y) <= bound * max(abs(y), 1) for x, y in zip(k_pos, k_en))


def test_profile_transforms_do_not_grow_with_the_chain(bctx, monkeypatch):
    pair = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, bctx))
    ip = trace_inner(pair)
    short, full = operator_lanczos(pair, ip, k_max=3), operator_lanczos(pair, ip)
    assert len(full.ops) > 3 * len(short.ops)
    times = [bctx.frac(k, 3) for k in range(5)]
    calls = []
    real = Mantissas.product

    def counting(self, *others):
        calls.append(1 + len(others))
        return real(self, *others)

    monkeypatch.setattr(Mantissas, "product", counting)
    counts = []
    for chain in (short, full):
        calls.clear()
        krylov_profile(chain, pair, ip, times)
        counts.append(list(calls))
    # the factors of every product chain: O_0 moves in once as Q^T O_0 Q;
    # each time moves O_0(t) back as one chain Q X Q^T and meets every
    # covector in one batched product
    assert counts[0] == counts[1] == [3] + [3, 2] * len(times)


def test_eigendecomposition_once_per_pair(bctx, monkeypatch):
    calls = []
    real = operators.eig_symmetric

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(operators, "eig_symmetric", counting)
    pair = position_pair(default_system("racah", bctx))
    cl = verify_closure(pair)
    heisenberg_check(pair, cl, HEISENBERG_TIMES)
    heisenberg_closed_form(pair, cl, bctx.one)
    matrix_exponential_conjugate(pair, pair.eta, bctx.one)
    ip = trace_inner(pair)
    krylov_profile(operator_lanczos(pair, ip, k_max=4), pair, ip, [bctx.one])
    assert len(calls) == 1


@pytest.mark.parametrize("basis", ["position", "energy"])
def test_heisenberg_check_rejects_a_perturbed_closure(bctx, basis):
    # both sides read the same eigenbasis, so only a wrong closed form can
    # separate them: R_-1 off by 1e-30 relative must fail the row
    spec = default_system("hahn", bctx)
    pair = position_pair(spec) if basis == "position" else energy_pair(spec)
    closure = verify_closure(pair)
    assert heisenberg_check(pair, closure, HEISENBERG_TIMES)[1]
    off = replace(closure, rm1=tuple(c * (1 + bctx.num("1e-30")) for c in closure.rm1))
    assert not heisenberg_check(pair, off, HEISENBERG_TIMES)[1]

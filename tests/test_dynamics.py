import dataclasses

import mpmath
import numpy as np
import pytest
from mpmath import mp

from krylov_exact import (
    Context,
    SystemKind,
    apply_liouville_power,
    default_system,
    energy_pair,
    heisenberg_closed_form,
    krylov_profile,
    liouville,
    make_system,
    matrix_exponential_conjugate,
    moments_closed_thermal,
    operator_lanczos,
    position_pair,
    trace_inner,
    verify_closure,
    wightman_inner,
)
from krylov_exact.dynamics import HEISENBERG_TIMES, closure_diagonal_identity, heisenberg_check
from krylov_exact.errors import (
    ClosureViolated,
    ComplexAmplitude,
    DegenerateFrequencies,
    ModeError,
)
from krylov_exact.operators import conjugate, max_abs

from helpers import FINITE_KINDS, heisenberg_route_bound, nudged_pair, param_samples


def test_closure_hermite_pure_frequency(bctx):
    spec = make_system("hermite", None, {}, bctx)
    pair = energy_pair(spec, n_max=8)
    cl = verify_closure(pair)
    # L^2 eta = 4 eta exactly: R_{-1} vanishes identically
    assert all(abs(c) < bctx.num("1e-45") for c in cl.rm1)
    l2 = liouville(pair.h, liouville(pair.h, pair.eta))
    assert max_abs(l2 - 4 * pair.eta) < bctx.num("1e-45")


def test_closure_krawtchouk_rm1(ctx):
    p = ctx.frac(1, 4)
    spec = make_system("krawtchouk", 3, {"p": "1/4"}, ctx)
    pair = position_pair(spec)
    cl = verify_closure(pair)
    # R_{-1}(E(n)) = A_n + C_n = -(p N + (1 - 2p) n)
    for n in range(4):
        assert cl.rm1_at(spec.energy(n)) == spec.A(n) + spec.C(n)
        assert closure_diagonal_identity(cl, spec, n, ctx)


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_closure_exact_all_finite(ctx, kind):
    for N in (3, 5):
        spec = make_system(kind, N, param_samples(kind, N)[0], ctx)
        for pair in (position_pair(spec), energy_pair(spec)):
            cl = verify_closure(pair)
            assert cl.residual == 0
            e = spec.energy(2)
            assert cl.r0_at(e) == spec.r0_at(e)


def test_closure_violated_on_corrupted_data(ctx):
    spec = make_system("krawtchouk", 3, {"p": "1/4"}, ctx)
    spec = dataclasses.replace(spec, r0_coeffs=(ctx.num(2),))  # wrong closure polynomial
    pair = position_pair(spec)
    with pytest.raises(ClosureViolated):
        verify_closure(pair)


def test_liouville_power_trivial_orders(ctx):
    spec = make_system("krawtchouk", 3, {"p": "1/4"}, ctx)
    pair = position_pair(spec)
    cl = verify_closure(pair)
    assert (apply_liouville_power(pair, cl, 0) == pair.eta).all()
    l1 = liouville(pair.h, pair.eta)
    assert (apply_liouville_power(pair, cl, 1) == l1).all()


def test_liouville_power_matches_brute_force(ctx):
    spec = make_system("krawtchouk", 3, {"p": "1/4"}, ctx)
    for pair in (position_pair(spec), energy_pair(spec)):
        cl = verify_closure(pair)
        v = pair.eta
        for m in range(1, 9):
            v = liouville(pair.h, v)
            if m >= 2:
                w = apply_liouville_power(pair, cl, m)
                assert (w == v).all(), f"mismatch at power {m}"


def test_liouville_power_q_system(ctx):
    spec = default_system("q-racah", ctx)
    pair = energy_pair(spec)
    cl = verify_closure(pair)
    v = pair.eta
    for _ in range(6):
        v = liouville(pair.h, v)
    assert (apply_liouville_power(pair, cl, 6) == v).all()


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_liouville_power_all_finite_orders(ctx, kind):
    spec = make_system(kind, 4, param_samples(kind, 4)[2], ctx)
    pair = energy_pair(spec)
    cl = verify_closure(pair)
    v = pair.eta
    for m in range(1, 9):
        v = liouville(pair.h, v)
        assert (apply_liouville_power(pair, cl, m) == v).all()


def test_liouville_power_bigreal_energy_basis(bctx):
    spec = make_system("gegenbauer", None, {"g": "2"}, bctx)
    pair = energy_pair(spec, n_max=20)
    cl = verify_closure(pair)
    v = pair.eta
    for m in range(1, 9):
        v = liouville(pair.h, v)
        assert max_abs(apply_liouville_power(pair, cl, m) - v) < bctx.num("1e-40"), m


def test_heisenberg_t0_is_eta(bctx):
    spec = default_system("hahn", bctx)
    pair = position_pair(spec)
    cl = verify_closure(pair)
    out = heisenberg_closed_form(pair, cl, bctx.zero)
    assert max_abs(out - pair.eta) < bctx.num("1e-44")


def test_heisenberg_matches_oracle(bctx):
    for kind in ("krawtchouk", "racah", "q-hahn"):
        spec = default_system(kind, bctx)
        pair = position_pair(spec)
        cl = verify_closure(pair)
        for t_s in ("7/10", "10"):
            t = bctx.num(t_s)
            closed = heisenberg_closed_form(pair, cl, t)
            oracle = matrix_exponential_conjugate(pair, pair.eta, t)
            assert max_abs(closed - oracle) < bctx.num("1e-40")


def test_heisenberg_energy_basis(bctx):
    spec = make_system("gegenbauer", None, {"g": "2"}, bctx)
    pair = energy_pair(spec, n_max=20)
    cl = verify_closure(pair)
    t = bctx.num("3/2")
    closed = heisenberg_closed_form(pair, cl, t)
    oracle = matrix_exponential_conjugate(pair, pair.eta, t)
    assert max_abs(closed - oracle) < bctx.num("1e-40")


def test_heisenberg_rejects_exact_mode(ctx):
    spec = default_system("krawtchouk", ctx)
    pair = position_pair(spec)
    cl = verify_closure(pair)
    with pytest.raises(ModeError):
        heisenberg_closed_form(pair, cl, ctx.one)


def test_closed_form_where_r0_vanishes_and_frequencies_meet(bctx):
    from krylov_exact.dynamics import ClosureData

    # R_0(E) = E and R_1 = 0: at E = 0 both R_0 = 0 and alpha_+ = alpha_- = 0
    spec = default_system("krawtchouk", bctx)
    pair = energy_pair(spec)
    assert bctx.zero in list(pair.h)
    zero, one = bctx.zero, bctx.one
    cl = ClosureData(r0=(zero, one), r1=(zero,), rm1=(one, 2 * one), residual=0)
    t = bctx.frac(1, 10)
    series = np.zeros(pair.eta.shape, dtype=object)
    term = one
    for m in range(40):
        series = series + term * apply_liouville_power(pair, cl, m)
        term = term * bctx.mp.mpc(0, t) / (m + 1)
    dev = max_abs(heisenberg_closed_form(pair, cl, t) - series)
    assert dev <= bctx.default_tolerance().rel_eps * max(max_abs(pair.eta), one) * 1000
    # complex frequencies still have no closed form here
    negative = ClosureData(r0=(-one,), r1=(zero,), rm1=(zero,), residual=0)
    with pytest.raises(DegenerateFrequencies):
        heisenberg_closed_form(pair, negative, t)


# Hahn a=b=1 and the first two q-Racah samples have R_0(E(n)) = 0 at a level
FORMERLY_SINGULAR = [(kind, i, N) for kind, i in (("hahn", 0), ("q-racah", 0), ("q-racah", 1)) for N in (6, 8)]


def _check_closure_and_dynamics(kind, index, N, ctx):
    spec = make_system(kind, N, param_samples(SystemKind(kind), N)[index], ctx)
    pair = position_pair(spec)
    cl = verify_closure(pair)
    assert all(closure_diagonal_identity(cl, spec, n, ctx) for n in range(N + 1))
    if not ctx.is_exact:
        _, ok = heisenberg_check(pair, cl, HEISENBERG_TIMES)
        assert ok
    return spec, cl


@pytest.mark.parametrize("kind,index,N", FORMERLY_SINGULAR)
def test_closure_and_dynamics_where_r0_vanishes(ctx, bctx, kind, index, N):
    spec, cl = _check_closure_and_dynamics(kind, index, N, ctx)
    assert any(cl.r0_at(spec.energy(n)) == 0 for n in range(N + 1))
    _check_closure_and_dynamics(kind, index, N, bctx)


@pytest.mark.parametrize("mode", ["exact", "bigreal"])
def test_diagonal_identity_rejects_perturbed_eta(mode):
    ctx = Context(mode, 50)
    spec = make_system("hahn", 6, {"a": "1", "b": "1"}, ctx)
    cl = verify_closure(position_pair(spec))
    n = next(k for k in range(7) if cl.r0_at(spec.energy(k)) != 0)
    assert closure_diagonal_identity(cl, spec, n, ctx)
    eta_diag = spec.eta_diag
    spec = dataclasses.replace(spec, eta_diag=lambda k: eta_diag(k) * (1 + ctx.num("1e-30")) if k == n else eta_diag(k))
    assert not closure_diagonal_identity(cl, spec, n, ctx)


@pytest.mark.slow
@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_closure_and_dynamics_sweep(ctx, bctx, kind):
    """Opt-in (``pytest -m slow``): every parameter sample at N = 6 and 8."""
    for N in (6, 8):
        for index in range(3):
            for c in (ctx, bctx):
                _check_closure_and_dynamics(kind.value, index, N, c)


def test_profile_t0(bctx):
    spec = make_system("krawtchouk", 4, {"p": "1/2"}, bctx)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    prof = krylov_profile(chain, pair, ip, [bctx.zero])
    assert abs(prof.phi[0][0] - 1) < bctx.num("1e-45")
    assert all(abs(v) < bctx.num("1e-45") for v in prof.phi[0][1:])
    assert abs(prof.complexity[0]) < bctx.num("1e-44")


def test_profile_hermite_sine(bctx):
    spec = make_system("hermite", None, {}, bctx)
    pair = energy_pair(spec, n_max=40)
    ip = wightman_inner(pair, bctx.num(2))
    chain = operator_lanczos(pair, ip)
    assert chain.stop_index == 1
    times = [bctx.num(k) / 7 for k in range(15)]
    prof = krylov_profile(chain, pair, ip, times)
    with bctx.work():
        for t, k_t, row in zip(times, prof.complexity, prof.phi):
            assert abs(k_t - mp.sin(2 * t) ** 2) < bctx.num("1e-30")
            assert abs(row[0] - mp.cos(2 * t)) < bctx.num("1e-30")


def test_profile_sum_rule_and_bound(bctx):
    spec = make_system("krawtchouk", 5, {"p": "1/3"}, bctx)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    times = [bctx.num(k) / 3 for k in range(12)]
    prof = krylov_profile(chain, pair, ip, times)
    for i in range(len(times)):
        assert prof.sum_rule_defect(i) < bctx.num("1e-40")
    bound = len(chain.ops) - 1
    assert all(k <= bound for k in prof.complexity)


def _gegenbauer_sum_rule_defects():
    ctx = Context("bigreal", 50)
    spec = make_system("gegenbauer", None, {"g": "2"}, ctx)
    pair = energy_pair(spec, n_max=20)
    ip = wightman_inner(pair, 1)
    prof = krylov_profile(operator_lanczos(pair, ip), pair, ip, [ctx.frac(1, 2), ctx.num(2)])
    return [ctx.fmt(prof.sum_rule_defect(i)) for i in range(2)]


def test_profile_independent_of_earlier_contexts(monkeypatch):
    monkeypatch.setattr(mpmath.mp, "dps", 15)  # start from mpmath's default
    before = _gegenbauer_sum_rule_defects()
    big = Context("bigreal", 300)
    big.sqrt(big.num(2))
    assert _gegenbauer_sum_rule_defects() == before


def test_profile_time_reversal(bctx):
    spec = make_system("krawtchouk", 4, {"p": "2/5"}, bctx)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    t = bctx.num("4/5")
    fwd = krylov_profile(chain, pair, ip, [t])
    bwd = krylov_profile(chain, pair, ip, [-t])
    for n, (a, b) in enumerate(zip(fwd.phi[0], bwd.phi[0])):
        sign = 1 if n % 2 == 0 else -1
        assert abs(b - sign * a) < bctx.num("1e-40")


def test_profile_rejects_exact(ctx):
    spec = default_system("krawtchouk", ctx)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    with pytest.raises(ModeError):
        krylov_profile(chain, pair, ip, [ctx.one])


def test_complex_amplitude_guard(bctx):
    # corrupt O_1 so that it has no definite parity.  On a folded band the
    # mirror (1, 0) follows entry (0, 1), so the corruption goes on the
    # diagonal, its own mirror, where an odd vector vanishes.  The nudged
    # pair is symmetric only up to rounding, keeps the whole band, and there
    # entry (0, 1) moves alone
    folded = position_pair(make_system("krawtchouk", 3, {"p": "1/3"}, bctx))
    for pair, (a, b), stride in ((folded, (0, 0), 2), (nudged_pair(folded), (0, 1), 1)):
        ip = trace_inner(pair)
        chain = operator_lanczos(pair, ip)
        space = chain.space
        assert space.lanczos_stride() == stride
        (at,) = np.flatnonzero((space.rows == a) & (space.cols == b))
        chain.vectors[1][at] = chain.vectors[1][at] + bctx.num("1/3")
        with pytest.raises(ComplexAmplitude):
            krylov_profile(chain, pair, ip, [bctx.num("1/2")])


@pytest.mark.parametrize("n", range(4))
def test_complex_amplitude_bound_is_relative_to_the_larger_part(bctx, monkeypatch, n):
    """The imaginary part of (-i)^n (O_n, O(t)) may reach
    100 rel_eps max(1, |Re|, |Im|) and no further."""
    pair = position_pair(make_system("krawtchouk", 3, {"p": "1/3"}, bctx))
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    limit = 100 * bctx.default_tolerance().rel_eps * 3
    turn = [bctx.mp.mpc(1, 0), bctx.mp.mpc(0, 1), bctx.mp.mpc(-1, 0), bctx.mp.mpc(0, -1)][n]
    for scale, raises in ((bctx.frac(99, 100), False), (bctx.frac(101, 100), True)):
        # (-i)^n times this raw value is 3 + i scale * limit
        raw = bctx.mp.mpc(3, scale * limit) * turn
        amplitudes = [bctx.mp.mpc(0, 0)] * n + [raw]
        monkeypatch.setattr(chain.space, "overlaps", lambda vectors, a=amplitudes: lambda t: a)
        if raises:
            with pytest.raises(ComplexAmplitude, match=f"phi_{n} imaginary part"):
                krylov_profile(chain, pair, ip, [bctx.one])
        else:
            assert krylov_profile(chain, pair, ip, [bctx.one]).phi[0][n] == 3


def test_profile_csv_format(bctx):
    spec = make_system("krawtchouk", 2, {"p": "1/2"}, bctx)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    prof = krylov_profile(chain, pair, ip, [bctx.zero, bctx.one])
    lines = prof.to_csv().splitlines()
    assert lines[0].startswith("t,K,phi_0")
    assert len(lines) == 3


@pytest.mark.parametrize("mode", ["exact", "bigreal"])
def test_run_system_checks_fits_closure_once(ctx, bctx, monkeypatch, mode):
    import krylov_exact.dynamics as dynamics_mod
    from krylov_exact import verify

    calls = []
    real = dynamics_mod.verify_closure

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "verify_closure", counting)
    built = {}

    def counted(name):
        real = getattr(verify, name)

        def wrapper(*args, **kwargs):
            built[name] = built.get(name, 0) + 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("operator_lanczos", "moments_to_lanczos"):
        monkeypatch.setattr(verify, name, counted(name))
    c = ctx if mode == "exact" else bctx
    rows = verify.run_system_checks(default_system("krawtchouk", c))
    assert all(r.passed for r in rows)
    names = [r.name for r in rows]
    assert "closure_and_diagonal_identity" in names
    assert ("heisenberg_closed_form_vs_oracle" in names) == (mode == "bigreal")
    assert len(calls) == 1
    assert built == {"operator_lanczos": 1, "moments_to_lanczos": 1}


def test_heisenberg_check_forms_l_eta_once(bctx, monkeypatch):
    # the matrix representation's commutator is the banded kernel
    import krylov_exact.operators as operators_mod

    spec = make_system("hahn", 6, {"a": "1", "b": "3/2"}, bctx)
    pair = position_pair(spec)
    cl = verify_closure(pair)
    calls = []
    real = operators_mod.liouville

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(operators_mod, "liouville", counting)
    devs, ok = heisenberg_check(pair, cl, HEISENBERG_TIMES)
    assert ok and len(calls) == 1
    # the deviations of the closed form and the oracle evaluated time by
    # time, each moved back on its own: the check moves their difference
    # back once, so the two differ by the roundings of the two moves
    bound = heisenberg_route_bound(pair)
    refs = [
        max_abs(heisenberg_closed_form(pair, cl, t) - matrix_exponential_conjugate(pair, pair.eta, t))
        for t in HEISENBERG_TIMES
    ]
    assert all(abs(ref - dev) <= bound for ref, dev in zip(refs, devs, strict=True))
    # and the bound sees R_-1 off by 1e-50 relative, which the row's own
    # bound lets pass
    off = dataclasses.replace(cl, rm1=tuple(c * (1 + bctx.num("1e-50")) for c in cl.rm1))
    off_devs, off_ok = heisenberg_check(pair, off, HEISENBERG_TIMES)
    assert off_ok and any(abs(ref - dev) > bound for ref, dev in zip(refs, off_devs, strict=True))


def test_profile_phase_per_distinct_frequency(bctx, monkeypatch):
    spec = default_system("charlier", bctx)
    cut = moments_closed_thermal(spec, 6, beta="1").truncation.n_max
    pair = energy_pair(spec, n_max=max(cut, 8))
    ip = wightman_inner(pair, bctx.num(1))
    chain = operator_lanczos(pair, ip)
    n = pair.dim
    support = [(a, b) for a in range(n) for b in range(n) if pair.eta[a, b] != 0]
    frequencies = {pair.h[a] - pair.h[b] for a, b in support}
    assert len(frequencies) == 3 and len(support) > 100
    calls = []
    real = Context.expj

    def counting(self, x):
        calls.append(1)
        return real(self, x)

    monkeypatch.setattr(Context, "expj", counting)
    times = [bctx.frac(k, 3) for k in range(5)]
    krylov_profile(chain, pair, ip, times)
    assert 0 < len(calls) <= len(frequencies) * len(times)


def _reference_profile(chain, pair, ip, t):
    """phi_n(t) from per-term sums of weight * conj(O_n) * O_0(t)."""
    ot = matrix_exponential_conjugate(pair, chain.ops[0], t)
    phases = [1, -1j, -1, 1j]
    return [
        ((ip.weight * conjugate(o_n) * ot).sum() * phases[n % 4]).real
        for n, o_n in enumerate(chain.ops)
    ]


@pytest.mark.parametrize("basis", ["position", "energy"])
def test_profile_matches_per_time_reference(bctx, basis):
    if basis == "position":
        pair = position_pair(make_system("hahn", 5, {"a": "1/2", "b": "2"}, bctx))
        ip = trace_inner(pair)
    else:
        pair = energy_pair(default_system("gegenbauer", bctx), n_max=10)
        ip = wightman_inner(pair, bctx.num(1))
    chain = operator_lanczos(pair, ip)
    times = [bctx.frac(1, 10), bctx.frac(7, 10), bctx.num(3)]
    prof = krylov_profile(chain, pair, ip, times)
    bound = 10 * bctx.default_tolerance().rel_eps
    for t, row in zip(times, prof.phi):
        ref = _reference_profile(chain, pair, ip, t)
        assert len(row) == len(ref) > 2
        assert max(abs(a - b) for a, b in zip(row, ref)) <= bound

import pytest

from krylov_exact import (
    default_system,
    energy_pair,
    make_system,
    moments_closed_finite,
    moments_closed_thermal,
    moments_oracle,
    position_pair,
    trace_inner,
    wightman_inner,
)
from krylov_exact.errors import (
    IndexOutOfRange,
    ModeError,
    NotFiniteSystem,
    NotInfiniteSystem,
    TailNotConvergent,
)
from krylov_exact.moments import closed_form_stop, moments_closed, scale_table
from krylov_exact import moments as moments_module
from krylov_exact import operators as operators_module
from krylov_exact.operators import inner, liouville, operator_lanczos

from helpers import FINITE_KINDS, THERMAL_KINDS, diagonal_eta_identity, dual_hahn_mu2_closed, param_samples


def test_krawtchouk_constant_moments(ctx):
    # the alpha_plus = 1 frequency makes every even moment equal
    for N in (1, 4, 6):
        spec = make_system("krawtchouk", N, {"p": "1/3"}, ctx)
        t = moments_closed_finite(spec, 6)
        assert len(set(t.even()[1:])) == 1
        assert all(v == 0 for v in t.values[1::2])
    # at N = 1 the single hopping term gives exactly 2p(1-p)
    spec = make_system("krawtchouk", 1, {"p": "1/3"}, ctx)
    t = moments_closed_finite(spec, 6)
    p = ctx.frac(1, 3)
    assert t.mu(2) == 2 * p * (1 - p)


def test_closed_form_guards(ctx, bctx):
    herm = make_system("hermite", None, {}, bctx)
    with pytest.raises(NotFiniteSystem):
        moments_closed_finite(herm, 4)
    fin = make_system("krawtchouk", 3, {"p": "1/2"}, bctx)
    with pytest.raises(NotInfiniteSystem):
        moments_closed_thermal(fin, 4, beta="1")
    herm_exact = make_system("hermite", None, {}, ctx)
    with pytest.raises(ModeError):
        moments_closed_thermal(herm_exact, 4, beta="1")


def test_table_accessors(ctx):
    spec = make_system("krawtchouk", 3, {"p": "1/2"}, ctx)
    t = moments_closed_finite(spec, 3)
    assert t.order == 6
    assert t.mu(0) == 1
    with pytest.raises(IndexOutOfRange):
        t.mu(7)


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_oracle_equivalence_small(ctx, kind):
    N = 3
    spec = make_system(kind, N, param_samples(kind, N)[0], ctx)
    closed = moments_closed_finite(spec, 4)
    oracle = moments_oracle(position_pair(spec), K=4)
    assert closed.values == oracle.values


def test_oracle_odd_moments_zero(ctx):
    spec = default_system("q-hahn", ctx)
    oracle = moments_oracle(position_pair(spec), K=6)
    assert all(v == 0 for v in oracle.values[1::2])


def test_dual_hahn_closed_expression(ctx):
    # the independently derived rational function agrees with the
    # hopping-sum for arbitrary parameters, not only the pinned ones
    for N, a, b in [(2, "1", "1"), (3, "1/2", "5/2"), (5, "2", "3"), (7, "1/3", "1")]:
        spec = make_system("dual-hahn", N, {"a": a, "b": b}, ctx)
        t = moments_closed_finite(spec, 1)
        assert t.mu(2) == dual_hahn_mu2_closed(N, ctx.num(a), ctx.num(b), ctx)


def test_hermite_powers_of_four(bctx):
    spec = make_system("hermite", None, {}, bctx)
    for beta in ("1/2", "1", "2"):
        t = moments_closed_thermal(spec, 6, beta=beta, tail_tol="1e-38")
        for m in range(1, 7):
            assert abs(t.mu(2 * m) - 4**m) <= bctx.num("1e-35") * 4**m
        assert all(v == 0 for v in t.values[1::2])


def test_meixner_charlier_constant_moments(bctx):
    for name, params in [("meixner", {"c": "1/2", "b": "1"}), ("charlier", {"a": "1"})]:
        spec = make_system(name, None, params, bctx)
        t = moments_closed_thermal(spec, 6, beta="1")
        for m in range(2, 7):
            assert abs(t.mu(2 * m) / t.mu(2) - 1) < bctx.num("1e-38")


def test_laguerre_geometric_ratio(bctx):
    spec = make_system("laguerre", None, {"g": "3/2"}, bctx)
    t = moments_closed_thermal(spec, 6, beta="1")
    for m in range(1, 7):
        ratio = t.mu(2 * m) / t.mu(2)
        assert abs(ratio - 16 ** (m - 1)) <= bctx.num("1e-30") * 16 ** (m - 1)


def test_thermal_oracle_cross_check(bctx):
    spec = make_system("gegenbauer", None, {"g": "2"}, bctx)
    t = moments_closed_thermal(spec, 4, beta="1", tail_tol="1e-38")
    n_max = max(t.truncation.n_max, 8)
    pair = energy_pair(spec, n_max=n_max)
    ip = wightman_inner(pair, bctx.num(1))
    oracle = moments_oracle(pair, ip, K=4)
    scale = max(abs(v) for v in t.values)
    dev = max(abs(a - b) for a, b in zip(t.values, oracle.values))
    assert dev < bctx.num("1e-34") * scale


def _oracle_2k(pair, ip, K):
    """Reference oracle mu_m = (eta, L^m eta) / |eta|^2 from 2K commutators."""
    ctx = pair.ctx
    with ctx.work():
        norm = inner(ip, pair.eta, pair.eta)
        values = [ctx.one]
        v = pair.eta
        for _ in range(2 * K):
            v = liouville(pair.h, v)
            values.append(inner(ip, pair.eta, v) / norm)
    return values


def _oracle_dense(pair, ip, K):
    """mu_0 .. mu_2K from K dense commutators over all dim^2 entries."""
    ctx = pair.ctx
    norm = inner(ip, pair.eta, pair.eta)
    values = [ctx.one]
    v = pair.eta
    for _ in range(K):
        v_next = liouville(pair.h, v)
        values.append(inner(ip, v, v_next) / norm)
        values.append(inner(ip, v_next, v_next) / norm)
        v = v_next
    return values


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_oracle_equals_2k_commutator_reference(ctx, kind):
    for params in param_samples(kind, 6):
        spec = make_system(kind, 6, params, ctx)
        # the energy pairs carry metric weights wherever sqrt(A(n)C(n+1))
        # is irrational
        for pair in (position_pair(spec), energy_pair(spec)):
            assert moments_oracle(pair, K=6).values == _oracle_2k(pair, trace_inner(pair), 6)


@pytest.mark.parametrize("kind", THERMAL_KINDS)
def test_thermal_oracle_equals_2k_commutator_reference(bctx, kind):
    spec = default_system(kind, bctx)
    table = moments_closed_thermal(spec, 6, beta="1")
    pair = energy_pair(spec, n_max=max(table.truncation.n_max, 8))
    ip = wightman_inner(pair, bctx.num(1))
    got = moments_oracle(pair, ip, K=6).values
    ref = _oracle_2k(pair, ip, 6)
    # the tolerance of the verify command's moments_closed_vs_oracle row
    scale = max(abs(v) for v in ref)
    dev = max(abs(a - b) for a, b in zip(got, ref))
    assert dev <= bctx.default_tolerance().rel_eps * scale * 1000
    # the support drops only exact zeros and keeps the summation order
    assert got == _oracle_dense(pair, ip, 6)


def test_energy_oracle_skips_dense_commutators(bctx, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for module in (operators_module, moments_module):
        for name, fn in (("liouville", liouville), ("inner", inner)):
            monkeypatch.setattr(module, name, counted(fn), raising=False)
    spec = default_system("charlier", bctx)
    pair = energy_pair(spec, n_max=30)
    oracle = moments_oracle(pair, wightman_inner(pair, bctx.num(1)), K=6)
    assert calls == []
    assert oracle.order == 12


def test_thermal_truncation_stability(bctx):
    # doubling the truncation moves nothing beyond the certified tail
    spec = make_system("charlier", None, {"a": "1"}, bctx)
    t = moments_closed_thermal(spec, 4, beta="1", tail_tol="1e-38")
    n1 = t.truncation.n_max
    pair1 = energy_pair(spec, n_max=n1)
    pair2 = energy_pair(spec, n_max=2 * n1)
    ip1 = wightman_inner(pair1, bctx.num(1))
    ip2 = wightman_inner(pair2, bctx.num(1))
    o1 = moments_oracle(pair1, ip1, K=4)
    o2 = moments_oracle(pair2, ip2, K=4)
    scale = max(abs(v) for v in o2.values)
    assert max(abs(a - b) for a, b in zip(o1.values, o2.values)) < bctx.num("1e-34") * scale


def test_tail_not_convergent_for_tiny_beta(bctx, monkeypatch):
    # at very high temperature the term ratio tends to about 0.99, and the
    # majorant r/(1 - r) certifies the tail only far beyond the term cap
    monkeypatch.setattr(moments_module, "N_CAP", 2000)
    spec = make_system("meixner", None, {"c": "99/100", "b": "1"}, bctx)
    with pytest.raises(TailNotConvergent):
        moments_closed_thermal(spec, 2, beta="1/1000")


def test_tail_tol_outside_the_unit_interval_refused_at_once(bctx, monkeypatch):
    # a tolerance of 0 is never met and one of 1 or more certifies nothing:
    # both raise before the first term, so a one-term cap changes nothing
    monkeypatch.setattr(moments_module, "N_CAP", 1)
    spec = default_system("charlier", bctx)
    for tol in ("0", "-1/2", "1", "2"):
        with pytest.raises(TailNotConvergent, match="tail_tol = .* outside"):
            moments_closed_thermal(spec, 2, beta="1", tail_tol=tol)


@pytest.mark.parametrize("kind", ["charlier", "meixner"])
def test_thermal_tail_certified_with_ratio_above_half(bctx, kind):
    # at beta = 1/2 the term ratio of a linear spectrum tends to
    # exp(-1/2) > 1/2; the majorant r/(1 - r) still certifies the tail
    spec = default_system(kind, bctx)
    beta = bctx.num("1/2")
    table = moments_closed_thermal(spec, 2, beta=beta)
    assert table.truncation.n_max == {"charlier": 200, "meixner": 201}[kind]
    pair = energy_pair(spec, n_max=table.truncation.n_max + 2)
    oracle = moments_oracle(pair, wightman_inner(pair, beta), K=2)
    scale = max(abs(v) for v in table.values)
    dev = max(abs(a - b) for a, b in zip(table.values, oracle.values))
    assert dev <= bctx.default_tolerance().rel_eps * scale * 1000


@pytest.mark.parametrize(
    "kind, n_max",
    [
        ("meixner", (100, 100)),
        ("charlier", (99, 99)),
        ("hermite", (47, 47)),
        ("laguerre", (24, 24)),
        ("gegenbauer", (7, 8)),
        ("jacobi", (4, 4)),
    ],
)
def test_thermal_truncations_at_beta_one(bctx, kind, n_max):
    # the certified cuts of the default systems at K = 2 and K = 6
    spec = default_system(kind, bctx)
    got = tuple(moments_closed_thermal(spec, K, beta="1").truncation.n_max for K in (2, 6))
    assert got == n_max


def test_scaling_covariance_exact(ctx):
    spec = make_system("q-krawtchouk", 4, {"q": "1/2", "p": "2/3"}, ctx)
    pair = position_pair(spec)
    base = moments_oracle(pair, K=4)
    for lam_s in ("2", "1/3"):
        lam = ctx.num(lam_s)
        from krylov_exact.operators import OperatorPair

        scaled = OperatorPair(lam * pair.h, pair.eta, ctx, pair.metric, spec)
        got = moments_oracle(scaled, K=4)
        want = scale_table(base, lam)
        assert got.values == want.values


def test_moment_positivity_and_evenness(ctx):
    for kind in FINITE_KINDS:
        spec = default_system(kind, ctx)
        t = moments_closed_finite(spec, 6)
        assert all(v > 0 for v in t.even()[1:])
        assert all(v == 0 for v in t.values[1::2])


def test_diagonal_eta_identity_krawtchouk(ctx, bctx):
    p = ctx.frac(1, 3)
    spec = make_system("krawtchouk", 5, {"p": "1/3"}, ctx)
    for n in range(6):
        assert spec.eta_diag(n) == p * (5 - n) + (1 - p) * n
    assert diagonal_eta_identity(spec)
    # n = 0 reduces to -A_0 because C_0 = 0
    assert spec.eta_diag(0) == -spec.A(0)
    # bigreal route goes through the position-basis eigenvectors
    bspec = make_system("krawtchouk", 5, {"p": "1/3"}, bctx)
    assert diagonal_eta_identity(bspec)


def test_moment_csv_format(ctx):
    spec = make_system("krawtchouk", 2, {"p": "1/2"}, ctx)
    t = moments_closed_finite(spec, 2)
    lines = t.to_csv().splitlines()
    assert lines[0] == "m,mu_m,provenance,tail_bound"
    assert lines[1].startswith("0,1,closed-form")
    assert len(lines) == 6


def test_closed_form_stop_singles_out_the_six_noncomplex_systems(ctx, bctx):
    # the paper's six: b_m = 0 for m >= 3, Hermite already at b_2
    stops = {}
    for kind in FINITE_KINDS + THERMAL_KINDS:
        spec = default_system(kind, ctx if kind.is_finite else bctx)
        stops[kind.value] = closed_form_stop(spec, moments_closed(spec, 2, beta="1"))
    early = {name: s for name, s in stops.items() if s is not None and s <= 2}
    assert early == {"krawtchouk": 2, "dual-hahn": 2, "meixner": 2, "charlier": 2, "laguerre": 2, "hermite": 1}
    assert stops["gegenbauer"] is None and stops["jacobi"] is None
    assert all(stops[k.value] == 12 for k in FINITE_KINDS if k.value not in early)


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_closed_form_stop_equals_the_operator_chain(ctx, kind):
    for N in range(1, 5):
        for params in param_samples(kind, N):
            spec = make_system(kind, N, params, ctx)
            pair = position_pair(spec)
            chain = operator_lanczos(pair, trace_inner(pair))
            assert closed_form_stop(spec, moments_closed(spec, 1)) == chain.stop_index, (N, params)

import dataclasses
import random
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from krylov_exact import (
    Context,
    OperatorPair,
    SystemKind,
    apply_liouville_power,
    build_eta_position,
    default_system,
    energy_pair,
    inner,
    krylov_profile,
    liouville,
    make_system,
    matrix_exponential_conjugate,
    moments_oracle,
    operator_lanczos,
    position_pair,
    trace_inner,
    verify_closure,
    wightman_inner,
)
from krylov_exact import band, operators
from krylov_exact.errors import (
    BasisMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    ModeError,
    NotFiniteSystem,
    TruncationTooSmall,
    ZeroEta,
)
from krylov_exact.numeric import rational
from krylov_exact.operators import determinant, eig_symmetric, max_abs, solve_consistent, zeros

from helpers import (
    FINITE_KINDS,
    dense_commutator,
    dense_product,
    hermiticity_defect,
    identity,
    operator_from_json,
    operator_to_json,
    param_samples,
    random_metric_hermitian,
)


def test_hamiltonian_krawtchouk_n1(ctx):
    spec = make_system("krawtchouk", 1, {"p": "1/2"}, ctx)
    h = position_pair(spec).h
    half = ctx.frac(1, 2)
    assert h[0, 0] == half and h[1, 1] == half
    assert h[0, 1] == -half and h[1, 0] == -half


def test_hamiltonian_row0_boundary(ctx):
    for kind in FINITE_KINDS:
        spec = default_system(kind, ctx)
        pair = position_pair(spec)
        assert pair.h[0, 0] == spec.B(0)  # D(0) = 0


def test_hamiltonian_spectrum_matches_energies(bctx):
    spec = make_system("krawtchouk", 2, {"p": "1/3"}, bctx)
    h = position_pair(spec).h
    evals, _ = eig_symmetric(h, bctx)
    tol = bctx.num(10) ** (-(bctx.precision - 15))
    for n in range(3):
        assert abs(evals[n] - n) < tol


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_eigenvalues_equal_catalog_energies(bctx, kind):
    spec = default_system(kind, bctx)
    pair = position_pair(spec)
    evals, _ = eig_symmetric(pair.h, bctx)
    tol = bctx.num(10) ** (-(bctx.precision - 15))
    scale = max(abs(spec.energy(spec.N)), 1)
    for n in range(spec.dim):
        assert abs(evals[n] - spec.energy(n)) <= tol * scale


def test_eta_position(ctx):
    spec = make_system("krawtchouk", 3, {"p": "1/2"}, ctx)
    eta = build_eta_position(spec)
    assert [eta[x, x] for x in range(4)] == [0, 1, 2, 3]
    assert eta[0, 0] == 0
    with pytest.raises(NotFiniteSystem):
        build_eta_position(make_system("hermite", None, {}, ctx))


def test_energy_rep_hermite(bctx):
    spec = make_system("hermite", None, {}, bctx)
    pair = energy_pair(spec, 2)
    h, eta = pair.h, pair.eta
    assert [h[k] for k in range(3)] == [0, 2, 4]
    assert abs(eta[0, 1] - bctx.sqrt(bctx.frac(1, 2))) < bctx.num("1e-45")
    assert abs(eta[1, 2] - 1) < bctx.num("1e-45")
    assert all(eta[k, k] == 0 for k in range(3))


def test_energy_rep_krawtchouk_exact(ctx):
    spec = make_system("krawtchouk", 2, {"p": "1/2"}, ctx)
    # A_0 C_1 = 1/2 is not a perfect square, so the symmetric matrix is
    # not rational; the pair with metric carries the same inner products
    pair = energy_pair(spec)
    ip = trace_inner(pair)
    assert inner(ip, pair.eta, pair.eta) == spec.norm_eta_sq()


def test_energy_rep_charlier_diag(ctx):
    spec = make_system("charlier", None, {"a": "1"}, ctx)
    pair = energy_pair(spec, n_max=2)
    assert [pair.h[k] for k in range(3)] == [0, 1, 2]
    assert [pair.eta[k, k] for k in range(3)] == [1, 2, 3]  # a + n
    # off-diagonal squares are A_n C_{n+1} = a (n+1)
    up = [pair.eta[k, k + 1] for k in range(2)]
    lo = [pair.eta[k + 1, k] for k in range(2)]
    assert [u * l for u, l in zip(up, lo)] == [1, 2]


def test_truncation_guards(ctx):
    spec = make_system("charlier", None, {"a": "1"}, ctx)
    with pytest.raises(TruncationTooSmall):
        energy_pair(spec, n_max=1)
    with pytest.raises(TruncationTooSmall):
        energy_pair(spec)
    fin = make_system("krawtchouk", 3, {"p": "1/2"}, ctx)
    with pytest.raises(TruncationTooSmall):
        energy_pair(fin, n_max=5)


def test_liouville_basics(ctx):
    spec = make_system("krawtchouk", 1, {"p": "1/2"}, ctx)
    pair = position_pair(spec)
    h, eta = pair.h, pair.eta
    assert max_abs(liouville(h, h)) == 0
    assert max_abs(liouville(h, identity(2, ctx))) == 0
    l1 = liouville(h, eta)
    half = ctx.frac(1, 2)
    assert l1[0, 1] == -half and l1[1, 0] == half and l1[0, 0] == 0
    assert max_abs(l1 + l1.T) == 0  # antisymmetric
    with pytest.raises(DimensionMismatch):
        liouville(h, identity(3, ctx))
    with pytest.raises(DimensionMismatch):
        liouville(h.diagonal().copy(), identity(3, ctx))


def test_liouville_refuses_machine_floats():
    # the kernel lays entries out exactly, as rationals or mpmath mantissas;
    # machine floats are refused, as Context.num refuses them
    h = np.array([[1.5, -0.5], [-0.5, 2.0]], dtype=object)
    v = np.array([[0.0, 1.0], [0.25, 0.0]], dtype=object)
    for x, y in ((h, v), (h.astype(float), v.astype(float)), (h, v.astype(int))):
        with pytest.raises(ModeError):
            liouville(x, y)


def _random_band(n, w, ctx, rng):
    """Random non-symmetric matrix with every entry |a - b| <= w drawn."""
    m = zeros(n, ctx)
    for a in range(n):
        for b in range(max(0, a - w), min(n, a + w + 1)):
            m[a, b] = ctx.frac(rng.randint(-9, 9), rng.randint(1, 7))
    return m


def _identical(x, y):
    """Entrywise equal in type and value; mpf values are normalised, so
    equal values are equal bit patterns."""
    return x.shape == y.shape and all(
        type(p) is type(q) and p == q for p, q in zip(x.ravel(), y.ravel())
    )


def _band_product(x, y):
    """XY of two real dense matrices through the band kernel on every
    entry, on integer parts: rationals, or the exact product of bigreal
    entries rounded once per entry."""
    n, mp = len(x), getattr(x[0, 0], "context", None)
    full = band._Band(n, n - 1)
    parts = [band._parts(band._held(m.ravel(), mp)) for m in (x, y)]
    xy = band._bilinear(lambda a, b: band._product(full.lay_out(a), full.lay_out(b), full), *parts, mp)
    return (xy.rationals(0 * x[0, 0] * y[0, 0]) if mp is None else xy.rounded()).reshape(n, n)


@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_liouville_equals_dense_commutator(ctx, bctx, n):
    # the random bands have w_h < w_v, w_h > w_v and w_h = w_v, so the
    # kernel loops over the diagonals of X and, through (Y^T X^T)^T, of Y.
    # Exact results equal the dense products of rationals; bigreal ones
    # the exact products rounded once per entry
    rng = random.Random(n)
    for c in (ctx, bctx):
        for w_h in sorted({0, 1, 2, n - 1}):
            h = _random_band(n, w_h, c, rng)
            pair = SimpleNamespace(h=h, ctx=c)
            for w_v in sorted({0, 1, n - 1}):
                v = _random_band(n, w_v, c, rng)
                assert _identical(liouville(h, v), dense_commutator(pair, v)), (c.mode, w_h, w_v)
                assert _identical(_band_product(h, v), dense_product(pair, h, v)), (c.mode, w_h, w_v)
                assert _identical(_band_product(v, h), dense_product(pair, v, h)), (c.mode, w_h, w_v)


def test_liouville_metric_pairs_equal_dense(ctx):
    # birth-death form: distinct upper (-B) and lower (-D) diagonals
    rng = random.Random(3)
    metric_kinds = 0
    for kind in FINITE_KINDS:
        pair = position_pair(make_system(kind, 8, param_samples(kind, 8)[0], ctx))
        metric_kinds += pair.metric is not None
        v = pair.eta
        for w in range(4):  # L^w eta has bandwidth w
            assert _identical(liouville(pair.h, v), pair.h @ v - v @ pair.h), (kind, w)
            v = liouville(pair.h, v)
        v = _random_band(pair.dim, pair.dim - 1, ctx, rng)
        assert _identical(liouville(pair.h, v), pair.h @ v - v @ pair.h), kind
    assert metric_kinds > 0


def test_no_numpy_conversion_in_bigreal_chain(bctx, monkeypatch):
    # an mpf on the left of an object array makes mpmath build repr() of
    # the whole array in npconvert before numpy takes over
    calls = []
    orig = bctx.mp.npconvert
    monkeypatch.setattr(bctx.mp, "npconvert", lambda x: calls.append(x) or orig(x))
    bctx.mp.mpf(2) * np.array([bctx.one], dtype=object)
    assert len(calls) == 1  # the probe sees the slow path
    calls.clear()
    spec = make_system("gegenbauer", None, {"g": "2"}, bctx)
    pair = energy_pair(spec, n_max=12)
    operator_lanczos(pair, wightman_inner(pair, 1))
    verify_closure(pair)
    pos = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, bctx))
    operator_lanczos(pos, k_max=6)
    verify_closure(pos)
    assert calls == []


def test_trace_inner_identity(ctx):
    spec = make_system("krawtchouk", 3, {"p": "1/2"}, ctx)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    assert inner(ip, identity(4, ctx), identity(4, ctx)) == 4


def _random_pair(pair, ip, rng):
    v = random_metric_hermitian(pair.dim, pair.ctx, rng, pair.metric)
    w = random_metric_hermitian(pair.dim, pair.ctx, rng, pair.metric)
    return v, w


def test_flip_property_trace(ctx):
    spec = default_system("racah", ctx)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    rng = random.Random(7)
    for _ in range(100):
        v, w = _random_pair(pair, ip, rng)
        assert inner(ip, v, liouville(pair.h, w)) == inner(ip, liouville(pair.h, v), w)
        assert inner(ip, v, liouville(pair.h, v)) == 0


def test_flip_property_wightman(bctx):
    spec = make_system("meixner", None, {"c": "1/2", "b": "1"}, bctx)
    pair = energy_pair(spec, n_max=6)
    ip = wightman_inner(pair, bctx.num(1))
    rng = random.Random(11)
    tol = bctx.num("1e-40")
    for _ in range(100):
        v, w = _random_pair(pair, ip, rng)
        lhs = inner(ip, v, liouville(pair.h, w))
        rhs = inner(ip, liouville(pair.h, v), w)
        assert abs(lhs - rhs) <= tol * max(1, abs(lhs))
        assert abs(inner(ip, v, liouville(pair.h, v))) <= tol


def test_inner_product_of_another_dimension_rejected(ctx, bctx):
    geg = default_system("gegenbauer", bctx)
    small, big = energy_pair(geg, n_max=6), energy_pair(geg, n_max=10)
    one = bctx.num(1)
    for pair, other in ((small, big), (big, small)):
        ip = wightman_inner(other, one)
        chain = operator_lanczos(pair, wightman_inner(pair, one), k_max=2)
        for run in (
            lambda: moments_oracle(pair, ip, K=2),
            lambda: operator_lanczos(pair, ip, k_max=2),
            lambda: krylov_profile(chain, pair, ip, [one]),
        ):
            with pytest.raises(DimensionMismatch, match=rf"dim {other.dim} vs pair dim {pair.dim}"):
                run()
    kraw = make_system("krawtchouk", 6, {"p": "1/3"}, ctx)
    kraw4 = make_system("krawtchouk", 4, {"p": "1/3"}, ctx)
    for build in (energy_pair, position_pair):
        pair, other = build(kraw4), build(kraw)
        for p, o in ((pair, other), (other, pair)):
            ip = trace_inner(o)
            with pytest.raises(DimensionMismatch):
                moments_oracle(p, ip, K=2)
            with pytest.raises(DimensionMismatch):
                operator_lanczos(p, ip)


def test_wightman_requires_energy_basis(bctx):
    spec = make_system("krawtchouk", 3, {"p": "1/2"}, bctx)
    pair = position_pair(spec)
    with pytest.raises(BasisMismatch):
        wightman_inner(pair, bctx.num(1))


def test_basis_follows_the_shape_of_h(ctx, bctx):
    spec = make_system("krawtchouk", 3, {"p": "1/2"}, ctx)
    pos, en = position_pair(spec), energy_pair(spec)
    assert (pos.basis, en.basis) == ("position", "energy")
    # a hand-made pair has no basis to contradict: it reads it off h
    assert OperatorPair(en.h, en.eta, ctx, en.metric, spec).basis == "energy"
    assert OperatorPair(pos.h, pos.eta, ctx, pos.metric, spec).basis == "position"
    diag = zeros(4, bctx)
    diag[np.arange(4), np.arange(4)] = [bctx.num(n) for n in range(4)]
    hand = OperatorPair(diag, zeros(4, bctx), bctx)
    assert hand.basis == "position"
    with pytest.raises(BasisMismatch):
        wightman_inner(hand, 1)


def test_wightman_conjugate_symmetry(bctx):
    spec = make_system("charlier", None, {"a": "1"}, bctx)
    pair = energy_pair(spec, n_max=5)
    ip = wightman_inner(pair, bctx.num("3/2"))
    rng = random.Random(3)
    v, w = _random_pair(pair, ip, rng)
    assert abs(inner(ip, v, w) - inner(ip, w, v)) < bctx.num("1e-45")


def test_lanczos_krawtchouk_stops_at_two(ctx):
    spec = make_system("krawtchouk", 4, {"p": "1/2"}, ctx)
    pair = position_pair(spec)
    chain = operator_lanczos(pair)
    assert chain.stopped and chain.stop_index == 2
    assert len(chain.b_squared) == 2
    table_mu2 = ctx.frac(2, 1) * sum(spec.ac_product(n) for n in range(4)) / spec.norm_eta_sq()
    assert chain.b_squared[0] == table_mu2
    assert chain.b_squared[1] == 1 - table_mu2


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_lanczos_orthogonality_exact(ctx, kind):
    for N, sample_idx in ((6, 0), (8, 1)):
        spec = make_system(kind, N, param_samples(kind, N)[sample_idx], ctx)
        pair = position_pair(spec)
        ip = trace_inner(pair)
        chain = operator_lanczos(pair, ip, k_max=6)
        for j in range(len(chain.ops)):
            for l in range(j + 1, len(chain.ops)):
                assert inner(ip, chain.ops[j], chain.ops[l]) == 0
        # hermiticity ladder: i^n O_n hermitian, i.e. the real chain
        # alternates metric-symmetric / metric-antisymmetric
        for n, op in enumerate(chain.ops):
            sign = 1 if n % 2 == 0 else -1
            assert hermiticity_defect(op, pair.metric, sign) == 0


def test_lanczos_orthonormality_bigreal(bctx):
    spec = default_system("q-hahn", bctx)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip, k_max=8)
    tol = bctx.default_tolerance()
    for j in range(len(chain.ops)):
        for l in range(j, len(chain.ops)):
            got = inner(ip, chain.ops[j], chain.ops[l])
            want = 1 if j == l else 0
            assert abs(got - want) < 10 * tol.rel_eps
    for n, op in enumerate(chain.ops):
        sign = 1 if n % 2 == 0 else -1
        assert hermiticity_defect(op, None, sign) < 10 * tol.rel_eps
        if sign < 0:
            # i times an anti-hermitian operator is hermitian
            assert hermiticity_defect(op * bctx.mp.mpc(0, 1)) < 10 * tol.rel_eps


def test_lanczos_hermite_b2_zero(bctx):
    spec = make_system("hermite", None, {}, bctx)
    pair = energy_pair(spec, n_max=24)
    ip = wightman_inner(pair, bctx.num("7/10"))
    chain = operator_lanczos(pair, ip)
    assert chain.stopped and chain.stop_index == 1
    assert abs(chain.b[0] - 2) < bctx.num("1e-45")


def test_lanczos_chain_bound(ctx, bctx):
    # and each mode's fields: exact keeps b^2 with the squared norms
    # nu_0 .. nu_k of its unnormalised vectors, bigreal keeps b
    for c in (ctx, bctx):
        spec = make_system("krawtchouk", 2, {"p": "1/2"}, c)
        for pair in (position_pair(spec), energy_pair(spec)):
            chain = operator_lanczos(pair)
            assert len(chain.ops) <= pair.dim**2
            if c.is_exact:
                assert chain.b is None and len(chain.norms_sq) == len(chain.b_squared) + 1
            else:
                assert chain.norms_sq is None and chain.b_squared == [b * b for b in chain.b]


@pytest.mark.parametrize("mode", ["exact", "bigreal"])
@pytest.mark.parametrize("basis", ["position", "energy"])
def test_negative_step_counts_rejected(basis, mode):
    ctx = Context(mode, 50)
    spec = default_system("hahn", ctx)
    pair = position_pair(spec) if basis == "position" else energy_pair(spec)
    closure = verify_closure(pair)
    with pytest.raises(IndexOutOfRange, match="k_max = -1"):
        operator_lanczos(pair, k_max=-1)
    with pytest.raises(IndexOutOfRange, match="K = -1"):
        moments_oracle(pair, K=-1)
    with pytest.raises(IndexOutOfRange, match="m = -2"):
        apply_liouville_power(pair, closure, -2)
    # no step at all stays valid: the seed alone, and eta itself
    assert operator_lanczos(pair, k_max=0).b_squared == []
    assert moments_oracle(pair, K=0).values == [ctx.one]
    assert (apply_liouville_power(pair, closure, 0) == pair.eta).all()


@pytest.mark.parametrize("run", [operator_lanczos, moments_oracle], ids=["chain", "oracle"])
@pytest.mark.parametrize("mode", ["exact", "bigreal"])
@pytest.mark.parametrize("basis", ["position", "energy"])
def test_zero_eta_rejected(basis, mode, run):
    # the chain and the oracle share the seed, which refuses a zero norm
    ctx = Context(mode, 50)
    spec = make_system("krawtchouk", 2, {"p": "1/2"}, ctx)
    pair = position_pair(spec) if basis == "position" else energy_pair(spec)
    pair.eta = pair.eta * ctx.zero
    with pytest.raises(ZeroEta, match="eta has zero norm"):
        run(pair)


def test_exponential_conjugate_t0(bctx):
    spec = make_system("krawtchouk", 3, {"p": "1/3"}, bctx)
    pair = position_pair(spec)
    out = matrix_exponential_conjugate(pair, pair.eta, bctx.zero)
    assert max_abs(out - pair.eta) < bctx.num("1e-45")


def test_exponential_conjugate_norm_preserved(bctx):
    spec = make_system("krawtchouk", 3, {"p": "1/3"}, bctx)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    o0 = pair.eta / bctx.sqrt(inner(ip, pair.eta, pair.eta))
    ot = matrix_exponential_conjugate(pair, o0, bctx.num("7/10"))
    assert abs(inner(ip, ot, ot) - 1) < bctx.num("1e-45")


def test_pair_takes_the_context_precision(bctx):
    # the same 55-digit matrices in global mpmath's class, whose own
    # arithmetic would round at the global precision
    pair = position_pair(default_system("krawtchouk", bctx))
    to_global = np.vectorize(mpmath.mpf, otypes=[object])
    with bctx.work():
        h, eta = to_global(pair.h), to_global(pair.eta)
    foreign = OperatorPair(h, eta, bctx, None, pair.spec)
    assert all(type(v) is bctx.mp.mpf for v in np.concatenate([foreign.h.ravel(), foreign.eta.ravel()]))
    assert operator_lanczos(foreign).b_squared == operator_lanczos(pair).b_squared


def test_exponential_conjugate_2x2_analytic(bctx):
    # two-level closed form: eigenvectors (1, +-1)/sqrt(2) give
    # diag entries (1 -+ cos t)/2 and off-diagonal -+(i/2) sin t
    spec = make_system("krawtchouk", 1, {"p": "1/2"}, bctx)
    pair = position_pair(spec)
    t = bctx.num("9/10")
    out = matrix_exponential_conjugate(pair, pair.eta, t)
    c, s, i = bctx.mp.cos(t), bctx.mp.sin(t), bctx.mp.mpc(0, 1)
    half = bctx.frac(1, 2)
    expected = np.array(
        [
            [half * (1 - c), -i * half * s],
            [i * half * s, half * (1 + c)],
        ],
        dtype=object,
    )
    assert max_abs(out - expected) < bctx.num("1e-45")
    assert abs(abs(out[0, 1]) - half * abs(s)) < bctx.num("1e-45")


def test_exponential_conjugate_exact_rejected(ctx):
    spec = make_system("krawtchouk", 1, {"p": "1/2"}, ctx)
    pair = position_pair(spec)
    with pytest.raises(ModeError):
        matrix_exponential_conjugate(pair, pair.eta, ctx.one)


@pytest.mark.parametrize("kind", FINITE_KINDS)
def test_energy_position_moment_equivalence(ctx, kind):
    from krylov_exact import moments_oracle

    N = 4
    spec = make_system(kind, N, param_samples(kind, N)[0], ctx)
    mp_pos = moments_oracle(position_pair(spec), K=4)
    mp_en = moments_oracle(energy_pair(spec), K=4)
    assert mp_pos.values == mp_en.values


def test_operator_json_roundtrip(ctx, bctx):
    spec = make_system("q-hahn", 3, {"a": "1/2", "b": "1/3", "q": "1/2"}, ctx)
    pair = position_pair(spec)
    back = operator_from_json(operator_to_json(pair.h, ctx), ctx)
    assert (back == pair.h).all()
    bspec = make_system("q-hahn", 3, {"a": "1/2", "b": "1/3", "q": "1/2"}, bctx)
    bpair = position_pair(bspec)
    bback = operator_from_json(operator_to_json(bpair.h, bctx), bctx)
    assert max_abs(bback - bpair.h) == 0


@pytest.mark.parametrize("kind,n_max", [("gegenbauer", 30), ("jacobi", 20)])
def test_thermal_chain_b2_against_100_digits(kind, n_max):
    chains = []
    for precision in (50, 100):
        ctx = Context("bigreal", precision)
        pair = energy_pair(default_system(kind, ctx), n_max=n_max)
        chains.append(operator_lanczos(pair, wightman_inner(pair, 1)))
    got, ref = chains
    assert len(got.b_squared) == len(ref.b_squared) > n_max
    worst = max(abs(ctx.num(x) - y) / y for x, y in zip(got.b_squared, ref.b_squared))
    assert worst <= ctx.num("1e-45")


def _cofactor_det(rows):
    """Laplace expansion along the first row: the pivot-free reference."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def test_exact_determinant_independent_of_pivot(ctx):
    # the first nonzero entry of each column is not its largest
    rows = [[ctx.frac(1, 3), ctx.num(2), ctx.num(0)],
            [ctx.num(4), ctx.frac(1, 5), ctx.num(6)],
            [ctx.num(-7), ctx.num(8), ctx.frac(10, 3)]]
    got = determinant(np.array(rows, dtype=object), ctx)
    want = _cofactor_det(rows)
    assert got == want and type(got) is type(rational(1))
    zero_first = [[ctx.zero, ctx.num(2)], [ctx.frac(1, 2), ctx.num(-9)]]
    assert determinant(np.array(zero_first, dtype=object), ctx) == -1


def test_exact_solve_consistent_independent_of_pivot(ctx):
    c1 = np.array([ctx.frac(1, 7), ctx.num(5), ctx.num(-3), ctx.zero], dtype=object)
    c2 = np.array([ctx.num(2), ctx.frac(1, 4), ctx.num(9), ctx.num(1)], dtype=object)
    target = c1 * ctx.frac(2, 3) - c2 * 5
    got = solve_consistent([c1, c2], target, ctx)
    assert got == [ctx.frac(2, 3), ctx.num(-5)]
    assert all(type(v) is type(rational(1)) for v in got)
    # a dependent column is not a pivot and gets 0; the others are unique
    assert solve_consistent([c1, c1 * 2, c2], target, ctx) == [ctx.frac(2, 3), 0, -5]
    off = target.copy()
    off[3] = off[3] + ctx.frac(1, 10**30)
    assert solve_consistent([c1, c2], off, ctx) is None


def test_one_space_per_pair_and_inner_product(ctx, bctx, monkeypatch):
    # the oracle and the chain on one (pair, inner product) build one space;
    # another inner product object, or a band of another reach, builds its own
    built = []
    for name in ("_BandSpace", "SupportBasis"):
        cls = getattr(operators, name)
        monkeypatch.setattr(operators, name, lambda *args, cls=cls: built.append(cls) or cls(*args))
    finite = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, ctx))
    thermal = energy_pair(make_system("charlier", None, {"a": "1"}, bctx), n_max=12)
    for pair, make_ip in ((finite, trace_inner), (thermal, lambda p: wightman_inner(p, 1))):
        ip = make_ip(pair)
        built.clear()
        moments_oracle(pair, ip, K=20)
        operator_lanczos(pair, ip)
        assert len(built) == 1
        moments_oracle(pair, make_ip(pair), K=20)
        assert len(built) == 2
    moments_oracle(finite, ip=trace_inner(finite), K=1)  # reach 1, not the whole band
    assert len(built) == 3 and built[-1].__name__ == "_BandSpace"


@pytest.mark.parametrize("basis", ["position", "energy"])
def test_shared_spaces_keep_results_history_independent(ctx, bctx, basis):
    # a pair's moments and b^2 are the same whether or not earlier calls on
    # it used another inner product or another K
    def results(pair, ip):
        return moments_oracle(pair, ip, K=4).values, operator_lanczos(pair, ip).b_squared

    if basis == "position":
        spec = make_system("q-racah", 6, param_samples(SystemKind.Q_RACAH, 6)[0], ctx)
        make_pair, make_ip = position_pair, trace_inner
    else:
        spec = make_system("meixner", None, {"b": "1", "c": "1/2"}, bctx)
        make_pair, make_ip = (lambda s: energy_pair(s, n_max=10)), (lambda p: wightman_inner(p, 1))
    fresh = make_pair(spec)
    want = results(fresh, make_ip(fresh))
    used = make_pair(spec)
    ip = make_ip(used)
    moments_oracle(used, make_ip(used), K=4)
    for K in (1, 2, 9):
        moments_oracle(used, ip, K=K)
    operator_lanczos(used, ip, k_max=3)
    assert results(used, ip) == want


def test_reassigned_arrays_rebuild_the_representation(ctx, bctx):
    # eta mirrored under the metric g except in (0, 1), assigned after a
    # first oracle: the kept space and eta's bandwidth must not outlive the
    # old eta, so the moments are a fresh pair's
    spec = make_system("hahn", 6, {"a": "1/2", "b": "2"}, ctx)
    pair = position_pair(spec)
    moments_oracle(pair)
    eta = pair.eta.copy()
    eta[0, 1], eta[1, 0] = ctx.one, pair.metric[1] / pair.metric[0] + 1
    pair.eta = eta
    fresh = OperatorPair(pair.h, eta, ctx, pair.metric, spec)
    assert moments_oracle(pair).values == moments_oracle(fresh).values
    assert moments_oracle(pair).values[1] == ctx.frac(285, 824)
    for name in ("h", "eta", "metric"):
        rep = pair.rep
        setattr(pair, name, getattr(pair, name))
        assert pair.rep is not rep and pair.rep.spaces == {}
    # a bigreal pair converts what is assigned, as at construction
    big = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, bctx))
    big.eta = big.eta * 2
    assert all(type(x) is bctx.mp.mpf for x in big.eta.ravel())
    assert big.rep.eta is big.eta


def test_position_pair_evaluates_b_and_d_once(ctx):
    spec = make_system("racah", 6, param_samples(SystemKind.RACAH, 6)[0], ctx)
    calls = []

    def counted(name):
        real = getattr(spec, name)
        return lambda x: calls.append((name, x)) or real(x)

    counting = dataclasses.replace(spec, B=counted("B"), D=counted("D"))
    assert _identical(position_pair(counting).h, position_pair(spec).h)
    assert sorted(calls) == sorted((name, x) for name in ("B", "D") for x in range(spec.dim))

"""The folded energy-basis support against full-support references.

``SupportBasis`` keeps one entry per mirror pair {(a, b), (b, a)} of the
eta support plus the diagonal.  The references below work on the whole
support, as the package did before the fold: the weight from the dense
double loops, the moment oracle over every entry, the bigreal chain with
modified Gram-Schmidt against every earlier vector (on the package's
exact-accumulator kernel, where an opposite-parity coefficient is an
exact 0), the exact three-term
recurrence, and overlaps from one complex phase per entry.  For the
pairs that ``energy_pair`` builds the fold changes no bit of any result.
"""

import numpy as np
import pytest

from krylov_exact import (
    Context,
    OperatorPair,
    default_system,
    energy_pair,
    krylov_profile,
    make_system,
    moments_oracle,
    operator_lanczos,
    trace_inner,
    wightman_inner,
)
from krylov_exact.errors import MirrorAsymmetry
from krylov_exact.operators import zeros

from helpers import FINITE_KINDS, THERMAL_KINDS, param_samples

BETA = 1


def _loop_weight(pair, beta=None):
    """The dense weight, filled by the double loops the fold replaced."""
    ctx, n = pair.ctx, pair.dim
    w = np.empty((n, n), dtype=object)
    if beta is None:
        if pair.metric is None:
            w[:] = ctx.one
        else:
            g = pair.metric
            for a in range(n):
                for b in range(n):
                    w[a, b] = g[b] / g[a]
        return w
    beta = ctx.num(beta)
    half = np.array([ctx.exp(-beta * e / 2) for e in pair.h], dtype=object)
    z = ctx.dot(half, half)
    for a in range(n):
        for b in range(n):
            w[a, b] = half[a] * half[b] / z
    if pair.metric is not None:
        g = pair.metric
        for a in range(n):
            for b in range(n):
                w[a, b] = w[a, b] * g[b] / g[a]
    return w


class _FullSupport:
    """Every nonzero entry of eta, in row-major order, unfolded."""

    def __init__(self, pair, weight):
        n = pair.dim
        self.ctx, self.dim = pair.ctx, n
        self.index = [(a, b) for a in range(n) for b in range(n) if pair.eta[a, b] != 0]
        self.freq = np.array([pair.h[a] - pair.h[b] for a, b in self.index], dtype=object)
        self.weight = np.array([weight[a, b] for a, b in self.index], dtype=object)

    def gather(self, mat):
        return np.array([mat[a, b] for a, b in self.index], dtype=object)

    def scatter(self, vec):
        out = zeros(self.dim, self.ctx)
        for v, (a, b) in zip(vec, self.index):
            out[a, b] = v
        return out

    def dot(self, u, v):
        return self.ctx.dot(self.weight * u, v)


def _ref_moments(pair, weight, K):
    ctx = pair.ctx
    space = _FullSupport(pair, weight)
    v = space.gather(pair.eta)
    norm = space.dot(v, v)
    values = [ctx.one]
    for _ in range(K):
        v_next = space.freq * v
        values.append(space.dot(v, v_next) / norm)
        values.append(space.dot(v_next, v_next) / norm)
        v = v_next
    return values


def _ref_chain_bigreal(pair, weight):
    """(b, ops): full reorthogonalisation against every earlier vector,
    with the package's kernel (``Context.gram_schmidt``)."""
    ctx = pair.ctx
    space = _FullSupport(pair, weight)
    seed = space.gather(pair.eta)
    o_prev, o_cur = None, seed / ctx.sqrt(space.dot(seed, seed))
    ops, basis, bs = [o_cur], [(o_cur, space.weight * o_cur)], []
    while len(bs) < len(space.index):
        w = space.freq * o_cur
        if o_prev is not None:
            w = w - o_prev * bs[-1]
        w, basis = ctx.gram_schmidt(w, basis)
        b = ctx.sqrt(space.dot(w, w))
        if ctx.is_zero(b):
            break
        o_prev, o_cur = o_cur, w / b
        ops.append(o_cur)
        basis.append((o_cur, space.weight * o_cur))
        bs.append(b)
    return bs, [space.scatter(v) for v in ops]


def _ref_chain_exact(pair, weight):
    """(b^2, norms^2, ops) of the unnormalised three-term recurrence."""
    space = _FullSupport(pair, weight)
    v_prev, v_cur = None, space.gather(pair.eta)
    nus, b2s, ops = [space.dot(v_cur, v_cur)], [], [v_cur]
    while len(b2s) < len(space.index):
        w = space.freq * v_cur
        if v_prev is not None:
            w = w - v_prev * b2s[-1]
        nu = space.dot(w, w)
        if nu == 0:
            break
        b2s.append(nu / nus[-1])
        nus.append(nu)
        v_prev, v_cur = v_cur, w
        ops.append(w)
    return b2s, nus, [space.scatter(v) for v in ops]


def _ref_overlaps(pair, weight, ops, t):
    """[(O_n, O_0(t))] from one complex phase exp(i freq t) per entry."""
    ctx = pair.ctx
    space = _FullSupport(pair, weight)
    o0 = space.gather(ops[0])
    phases = [ctx.expj(f * t) for f in space.freq]
    return [ctx.dot(space.weight * space.gather(o_n) * o0, phases) for o_n in ops]


def _same(x, y):
    """Equal bit patterns for mpmath values, equal type and value otherwise."""
    if hasattr(x, "_mpc_") or hasattr(y, "_mpc_"):
        return getattr(x, "_mpc_", None) == getattr(y, "_mpc_", 0)
    if hasattr(x, "_mpf_") or hasattr(y, "_mpf_"):
        return getattr(x, "_mpf_", None) == getattr(y, "_mpf_", 0)
    return type(x) is type(y) and x == y


def _all_same(xs, ys):
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(_same(x, y) for x, y in zip(xs, ys))


def _ops_same(got, ref):
    return len(got) == len(ref) and all(
        _all_same(g.ravel(), r.ravel()) for g, r in zip(got, ref)
    )


def _check_against_reference(pair, ip, beta, times):
    ctx = pair.ctx
    weight = _loop_weight(pair, beta)
    assert _all_same(moments_oracle(pair, ip, K=6).values, _ref_moments(pair, weight, 6))
    chain = operator_lanczos(pair, ip)
    if ctx.is_exact:
        b2s, nus, ops = _ref_chain_exact(pair, weight)
        assert _all_same(chain.b_squared, b2s) and _all_same(chain.norms_sq, nus)
        assert _ops_same(chain.ops, ops)
        return
    bs, ops = _ref_chain_bigreal(pair, weight)
    assert _all_same(chain.b, bs) and _ops_same(chain.ops, ops)
    space = pair.rep.space(pair, ip, len(chain.ops) - 1)
    at = space.overlaps([space.gather(o) for o in chain.ops])
    for t in times:
        assert _all_same(at(t), _ref_overlaps(pair, weight, ops, t))


def _times(ctx):
    return [ctx.frac(1, 10), ctx.frac(7, 10), ctx.num(3)]


@pytest.mark.parametrize("n_max", [12, pytest.param(30, marks=pytest.mark.slow)])
@pytest.mark.parametrize("kind", THERMAL_KINDS, ids=lambda k: k.value)
def test_thermal_fold_bit_identical(bctx, kind, n_max):
    pair = energy_pair(default_system(kind.value, bctx), n_max=n_max)
    _check_against_reference(pair, wightman_inner(pair, BETA), BETA, _times(bctx))


@pytest.mark.parametrize("mode", ["exact", "bigreal"])
@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_finite_fold_bit_identical(mode, kind):
    ctx = Context(mode, 50)
    for params in param_samples(kind, 6):
        pair = energy_pair(make_system(kind.value, 6, params, ctx))
        _check_against_reference(pair, trace_inner(pair), None, _times(ctx))


def test_weight_entries_equal_the_loops(ctx, bctx):
    kraw = make_system("krawtchouk", 6, {"p": "1/3"}, ctx)
    pairs = [energy_pair(kraw), energy_pair(make_system("krawtchouk", 6, {"p": "1/3"}, bctx))]
    assert pairs[0].metric is not None
    cases = [(p, trace_inner(p), None) for p in pairs]
    geg = energy_pair(default_system("gegenbauer", bctx), n_max=12)
    # a bigreal pair with a metric reaches the metric branch of the Wightman weight
    g = np.array([bctx.frac(k + 2, k + 1) for k in range(geg.dim)], dtype=object)
    with_metric = OperatorPair(geg.h, geg.eta, bctx, g)
    for beta in (BETA, bctx.frac(3, 7)):
        cases += [(p, wightman_inner(p, beta), beta) for p in (geg, with_metric)]
    for pair, ip, beta in cases:
        ref = _loop_weight(pair, beta)
        assert _all_same(ip.weight.ravel(), ref.ravel())
        rows, cols = np.nonzero(pair.eta)
        assert _all_same(ip.entries(cols, rows), ref[cols, rows])


def _asymmetric_pairs(c):
    """Krawtchouk energy pairs with eta_23 doubled, and with eta_32 removed."""
    base = energy_pair(make_system("krawtchouk", 6, {"p": "1/3"}, c))
    doubled, one_sided = base.eta.copy(), base.eta.copy()
    doubled[2, 3] = 2 * doubled[2, 3]
    one_sided[3, 2] = c.zero
    return [OperatorPair(base.h, eta, c, base.metric, base.spec) for eta in (doubled, one_sided)]


def test_asymmetric_eta_odd_moments(ctx, bctx):
    # the support space checks the mirror when it is built, so the oracle
    # refuses the pairs that would have nonzero odd moments, with the
    # chain's error
    for c in (ctx, bctx):
        for pair in _asymmetric_pairs(c):
            errors = []
            for run in (moments_oracle, operator_lanczos):
                with pytest.raises(MirrorAsymmetry, match=r"\(2, 3\) and \(3, 2\)") as err:
                    run(pair)
                errors.append(str(err.value))
            assert errors[0] == errors[1]


def test_asymmetric_eta_chain_raises(ctx, bctx):
    for c in (ctx, bctx):
        for pair in _asymmetric_pairs(c):
            with pytest.raises(MirrorAsymmetry, match=r"\(2, 3\) and \(3, 2\)"):
                operator_lanczos(pair)


def test_folded_chain_halves_the_dots(bctx, monkeypatch):
    # the step from O_{m-1} takes one coefficient of Context.gram_schmidt
    # per earlier vector of W's parity, m // 2 of them, and the reference
    # one per earlier vector
    pair = energy_pair(default_system("gegenbauer", bctx), n_max=30)
    ip = wightman_inner(pair, BETA)
    weight = _loop_weight(pair, BETA)
    coefficients = []
    real = Context.gram_schmidt
    monkeypatch.setattr(
        Context, "gram_schmidt", lambda self, w, basis: coefficients.append(len(basis)) or real(self, w, basis))
    chain = operator_lanczos(pair, ip)
    folded = sum(coefficients)
    coefficients.clear()
    bs, _ = _ref_chain_bigreal(pair, weight)
    full = sum(coefficients)
    steps = range(1, len(chain.b) + chain.stopped + 1)
    assert _all_same(chain.b, bs) and len(bs) > 50
    assert folded == sum(m // 2 for m in steps) and full == sum(steps)


@pytest.mark.slow
def test_criterion_11_chain_and_profile_bit_identical(bctx):
    """Opt-in (``pytest -m slow``): Gegenbauer g=2, n_max=60, 20 times."""
    times = [bctx.num(k) / bctx.num(4) + bctx.frac(1, 50) for k in range(20)]
    pair = energy_pair(make_system("gegenbauer", None, {"g": "2"}, bctx), n_max=60)
    ip = wightman_inner(pair, bctx.num(BETA))
    weight = _loop_weight(pair, BETA)
    chain = operator_lanczos(pair, ip)
    bs, ops = _ref_chain_bigreal(pair, weight)
    assert _all_same(chain.b, bs) and _ops_same(chain.ops, ops)
    prof = krylov_profile(chain, pair, ip, times)
    one, mpc = bctx.one, bctx.mp.mpc
    phases = [mpc(one, 0), mpc(0, -one), mpc(-one, 0), mpc(0, one)]
    for t, row in zip(times, prof.phi):
        ref = _ref_overlaps(pair, weight, ops, t)
        assert _all_same(row, [(v * phases[n % 4]).real for n, v in enumerate(ref)])

"""Bigreal position pairs in the eigenbasis of H.

A bigreal position pair runs its chain, oracle and profile on the spectrum
pair (E, eta') with eta' = Q^T eta Q, rounded once per entry, less the
entries that lie within their error of 0 (``_Banded.spectrum``).  The
chain then stops where the exact chain stops, and its b^2 agree with the
exact ones (``helpers.exact_b2_reference``, no chain and no closed form)
to about the working precision.  On the band the rounded H gave a Krylov
space the exact H does not have, and 25 of the 60 samples below stopped
late.  The route reads only H and eta: a spec whose closed forms raise
changes nothing.  The zero bound is a bound: every entry of eta' lies
within it of the same entry at three times the precision.  A bigreal pair
the eigenbasis cannot hold is refused, and names why; its exact
counterpart runs on the band.
"""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from krylov_exact import (
    Context,
    InnerProduct,
    OperatorPair,
    default_system,
    energy_pair,
    krylov_profile,
    make_system,
    moments_oracle,
    operator_lanczos,
    position_pair,
    trace_inner,
)
from krylov_exact.errors import BasisMismatch
from krylov_exact.numeric import eigenbasis_zero_bounds
from krylov_exact.operators import EigenSupport

from helpers import (
    FINITE_KINDS,
    agree,
    exact_b2_reference,
    exact_value,
    normalised_ops,
    nudged_pair,
    param_samples,
    rotated_pair,
)

TIMES = ["1/10", "7/5", "3"]


def _stops_right(ctx, bctx, kind, N, params) -> None:
    exact = operator_lanczos(position_pair(make_system(kind, N, params, ctx)))
    chain = operator_lanczos(position_pair(make_system(kind, N, params, bctx)))
    assert isinstance(chain.space, EigenSupport)
    assert (chain.stop_index, chain.stopped) == (exact.stop_index, True), (kind, params)


@pytest.mark.parametrize("kind, params", [("hahn", {"a": "1/2", "b": "2"}),
                                          ("affine-q-krawtchouk", {"q": "1/3", "p": "2"})])
def test_named_samples_stop_at_the_exact_2n(ctx, bctx, kind, params):
    # both ran 72 steps on the band at N=8
    _stops_right(ctx, bctx, kind, 8, params)
    assert operator_lanczos(position_pair(make_system(kind, 8, params, bctx))).stop_index == 16


@pytest.mark.slow
@pytest.mark.parametrize("N", [6, 8])
@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_every_sample_stops_where_the_exact_chain_stops(ctx, bctx, kind, N):
    for params in param_samples(kind, N):
        _stops_right(ctx, bctx, kind, N, params)


@pytest.mark.slow
@pytest.mark.parametrize("N", [16, 32, 64])
def test_hahn_b2_agree_with_the_exact_reference(ctx, bctx, N):
    params = {"a": "1/2", "b": "2"}
    want = exact_b2_reference(position_pair(make_system("hahn", N, params, ctx)))
    chain = operator_lanczos(position_pair(make_system("hahn", N, params, bctx)))
    assert chain.stop_index == len(want) == 2 * N
    for got, w in zip(chain.b_squared, want, strict=True):
        w = Fraction(int(w.numerator), int(w.denominator))
        assert abs(exact_value(got) - w) <= w / 10**47


@pytest.mark.slow
@pytest.mark.parametrize("kind, N", [(kind, 16) for kind in FINITE_KINDS] + [("hahn", 32)],
                         ids=lambda v: getattr(v, "value", v))
def test_exact_reference_equals_the_exact_chain(ctx, kind, N):
    params = {"a": "1/2", "b": "2"} if kind == "hahn" else param_samples(kind, N)[0]
    pair = position_pair(make_system(kind, N, params, ctx))
    chain = operator_lanczos(pair)
    assert chain.stopped and exact_b2_reference(pair) == chain.b_squared


@pytest.mark.slow
def test_hahn_128_chain_and_profile_within_ten_seconds(bctx):
    # CPU time of this process, which other work on a shared host slows
    # far less than wall time
    start = time.process_time()
    pair = position_pair(make_system("hahn", 128, {"a": "1/2", "b": "2"}, bctx))
    chain = operator_lanczos(pair)
    profile = krylov_profile(chain, pair, trace_inner(pair), TIMES)
    assert time.process_time() - start <= 10
    assert chain.stop_index == 256
    assert all(d <= bctx.num("1e-50") for d in map(profile.sum_rule_defect, range(len(TIMES))))


def test_the_route_reads_only_h_and_eta(bctx):
    pair = position_pair(make_system("hahn", 6, {"a": "1/2", "b": "2"}, bctx))
    ip = trace_inner(pair)
    want = operator_lanczos(pair, ip).b, moments_oracle(pair, ip).values

    def closed_form(*args):
        raise AssertionError("the route read a closed form")

    blind = position_pair(pair.spec)
    blind.spec = dataclasses.replace(pair.spec, **dict.fromkeys(
        ("energy", "A", "C", "alpha_plus", "alpha_minus"), closed_form))
    chain = operator_lanczos(blind, ip)
    assert (chain.b, moments_oracle(blind, ip).values) == want
    assert krylov_profile(chain, blind, ip, TIMES).phi == krylov_profile(
        operator_lanczos(pair, ip), pair, ip, TIMES).phi


@pytest.mark.parametrize("kind", ["hahn", "q-racah", "quantum-q-krawtchouk"])
def test_zero_bound_covers_the_entries_error(bctx, kind):
    # the zero bound kappa_a + kappa_b of each entry of eta' holds its
    # distance from the same entry at 150 digits, with Q's column signs
    # matched, and every entry set to 0 lies within it
    pair = position_pair(default_system(kind, bctx))
    fine = position_pair(default_system(kind, Context("bigreal", 150)))
    rep, ref = pair.rep, fine.rep
    energies, q, qm, _ = rep._decomposition
    _, q_ref, _, _ = ref._decomposition
    kappa = eigenbasis_zero_bounds(pair.h, pair.eta, energies, qm, bctx.mp)
    moved = bctx.matmul(q.T, pair.eta, q)
    signs = [1 if bctx.mp.fsum(q[:, j] * q_ref[:, j]) > 0 else -1 for j in range(pair.dim)]
    exact = fine.ctx.matmul(q_ref.T, fine.eta, q_ref)
    kept = ref.spectrum[0].eta
    for a in range(pair.dim):
        for b in range(pair.dim):
            bound = exact_value(kappa[a]) + exact_value(kappa[b])
            assert abs(exact_value(moved[a, b]) - signs[a] * signs[b] * exact_value(exact[a, b])) <= bound
            # the 150-digit route keeps exactly the entries the 50-digit one keeps
            assert (rep.spectrum[0].eta[a, b] == 0) == (kept[a, b] == 0)


def test_dropped_mass_is_carried_on_the_chain(ctx, bctx):
    pair = position_pair(make_system("hahn", 8, {"a": "1/2", "b": "2"}, bctx))
    spectrum, dropped = pair.rep.spectrum
    moved = bctx.matmul(pair.rep._decomposition[1].T, pair.eta, pair.rep._decomposition[1])
    gone = moved[(spectrum.eta == 0) & (moved != 0)]
    assert len(gone) > 0
    assert dropped == bctx.mp.fdot(gone, gone) / bctx.mp.fdot(moved.ravel(), moved.ravel())
    assert 0 < dropped < bctx.num("1e-90")
    assert operator_lanczos(pair).dropped_mass == dropped
    # the energy pair and the exact band drop nothing
    for other in (energy_pair(default_system("hahn", bctx)), position_pair(default_system("hahn", ctx))):
        assert operator_lanczos(other).dropped_mass == 0


def test_chain_ops_are_in_the_pairs_basis(ctx, bctx):
    # O_n moved back, Q O_n' Q^T: the first matches the position eta, and
    # the matrices match the exact chain's vectors, normalised
    pair, exact = (position_pair(make_system("krawtchouk", 4, {"p": "1/3"}, c)) for c in (bctx, ctx))
    chain, want = operator_lanczos(pair), operator_lanczos(exact)
    assert len(chain.ops) == len(want.ops)
    bound = bctx.num("1e-50")
    for got, w in zip(chain.ops, normalised_ops(want.ops, want.norms_sq, exact.metric, bctx), strict=True):
        assert got.shape == w.shape == pair.eta.shape
        assert max(abs(x - y) for x, y in zip(got.ravel(), w.ravel())) <= bound


def test_a_degenerate_spectrum_drops_nothing(ctx, bctx):
    # E = 1, 1, 2: the residual intervals of the first two meet, so no
    # eigenvector error is bounded and no entry is set to 0; the chain
    # still runs and matches the same integer pair's in exact mode
    h = np.diag([1, 1, 2]).astype(object)
    eta = np.array([[1, 1, 0], [1, 2, 1], [0, 1, 3]], dtype=object)
    pair, exact = (OperatorPair(*(np.vectorize(c.num, otypes=[object])(m) for m in (h, eta)), c) for c in (bctx, ctx))
    chain, want = operator_lanczos(pair), operator_lanczos(exact)
    assert isinstance(chain.space, EigenSupport) and chain.dropped_mass == 0
    assert chain.stop_index == want.stop_index
    assert agree(chain.b_squared, want.b_squared)


def test_pairs_off_the_eigenbasis_are_refused(ctx, bctx):
    # the chain and the oracle name the first condition a bigreal pair
    # fails; the lifted pair's exact counterpart, under its metric, runs on
    # the band and has the symmetric bigreal pair's b^2
    pair = position_pair(make_system("krawtchouk", 3, {"p": "1/3"}, bctx))
    exact = position_pair(make_system("krawtchouk", 3, {"p": "1/3"}, ctx))
    assert exact.metric is not None
    h, eta, metric = (np.vectorize(bctx.num, otypes=[object])(m) for m in (exact.h, exact.eta, exact.metric))
    thermal = InnerProduct(bctx, pair.dim, bctx.one, half=np.full(pair.dim, bctx.one, dtype=object), z=bctx.num(4))
    cases = [
        (rotated_pair(pair), None, "H is wider than tridiagonal"),
        (nudged_pair(pair), None, "H is not symmetric"),
        (OperatorPair(pair.h, pair.eta * bctx.mp.mpc(0, 1), bctx), None, "H or eta is complex"),
        (OperatorPair(h, eta, bctx, metric), None, "there is a metric"),
        (pair, thermal, "the inner product is not the trace"),
    ]
    for off, ip, unmet in cases:
        for run in (operator_lanczos, moments_oracle):
            with pytest.raises(BasisMismatch, match=unmet):
                run(off, ip)
    assert agree(operator_lanczos(pair).b_squared, operator_lanczos(exact).b_squared)
    assert agree(moments_oracle(pair).values, moments_oracle(exact).values)

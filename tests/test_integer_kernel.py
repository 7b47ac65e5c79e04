"""The position pair on the integer kernel.

Every bigreal product of the band kernel -- a commutator, V f(H), a
function f(H) -- is the exact rational product rounded once per entry;
the references here form it with ``Fraction`` arithmetic and round it
with ``from_rational``.  The folded exact band gives the whole band's
commutators, the folded profile read of the eigenbasis route gives the
dense read over every entry to 1e-50, and the Heisenberg check's
deviations stay within the rounding bound of the same check at three
times the precision, a bound that R_-1 off by 1e-50 relative breaks.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from krylov_exact import (
    Context,
    default_system,
    krylov_profile,
    make_system,
    operator_lanczos,
    position_pair,
    trace_inner,
    verify_closure,
)
from krylov_exact import band
from krylov_exact.dynamics import HEISENBERG_TIMES, heisenberg_check
from krylov_exact.operators import max_abs

from helpers import FINITE_KINDS, exact_chain, exact_value, reference_profile, rounded_value


def _same(got, want) -> bool:
    """Equal entry by entry in type and raw value."""
    key = lambda x: (type(x), x._mpc_ if hasattr(x, "_mpc_") else x._mpf_)  # noqa: E731
    return got.shape == want.shape and [key(x) for x in got.ravel()] == [key(x) for x in want.ravel()]


def _rounded(mp, re, im, complex_: bool) -> np.ndarray:
    """Fraction arrays rounded once per entry, mpc throughout if COMPLEX_."""
    out = [rounded_value(mp, x) for x in re.ravel()]
    if complex_:
        out = [mp.make_mpc((r._mpf_, rounded_value(mp, x)._mpf_)) for r, x in zip(out, im.ravel())]
    return np.array(out, dtype=object).reshape(re.shape)


def _vector(ops, rng, kind: str) -> np.ndarray:
    """A bigreal vector on the band of OPS: real, complex, or real with
    entries 2^+-3000 apart, far more than one Mantissas slab holds."""
    mp = ops.ctx.mp
    values = [mp.mpf(rng.randint(-9, 9)) / rng.randint(1, 7) for _ in range(len(ops.rows))]
    if kind == "complex":
        values = [mp.mpc(x, mp.mpf(rng.randint(-9, 9)) / 3) for x in values]
    elif kind == "spread":
        values = [mp.ldexp(x, 3000 if k % 3 == 0 else -3000 if k % 3 == 1 else 0) for k, x in enumerate(values)]
    return np.array(values, dtype=object)


@pytest.mark.parametrize("kind", ["real", "complex", "spread"])
@pytest.mark.parametrize("system, N", [("hahn", 6), ("q-racah", None)])
def test_band_products_are_the_exact_product_rounded_once(bctx, system, N, kind):
    spec = make_system(system, N, {"a": "1/2", "b": "2"}, bctx) if N else default_system(system, bctx)
    pair = position_pair(spec)
    ops = band._BandOperators(pair.rep, None)  # the whole band: any product fits
    rng, mp = random.Random(f"{system}{kind}"), bctx.mp
    v, w = _vector(ops, rng, kind), _vector(ops, rng, "real")
    dv, dw = ops.scatter(v), ops.scatter(w)
    complex_ = kind == "complex"
    commutator = [a - b for a, b in zip(exact_chain([pair.h, dv]), exact_chain([dv, pair.h]))]
    assert _same(ops.scatter(ops.liouville(v)), _rounded(mp, *commutator, complex_))
    for (x, dx), (y, dy) in (((v, dv), (w, dw)), ((v, dv), (ops.h, pair.h)), ((ops.h, pair.h), (v, dv))):
        assert _same(ops.scatter(ops.mul(x, y)), _rounded(mp, *exact_chain([dx, dy]), complex_)), kind
    # f(H) by Horner's rule in rationals, rounded once
    coeffs = (mp.mpf(3) / 7, -mp.mpf(5) / 3, mp.mpf(2) / 9)
    h, acc = np.vectorize(exact_value, otypes=[object])(pair.h), np.full(pair.h.shape, Fraction(0), dtype=object)
    for k, c in enumerate(reversed(coeffs)):
        acc = acc @ h if k else acc
        acc[np.diag_indices(pair.dim)] += exact_value(c)
    assert _same(ops.scatter(ops.poly(coeffs)), _rounded(mp, acc, None, False))


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_folded_band_commutators_equal_the_whole_band(ctx, kind):
    # the folded space holds W = G^-1 V on the entries a <= b, the whole
    # band every entry; scattered back, each commutator is the whole band's,
    # in type and value
    pair = position_pair(default_system(kind, ctx))
    folded, whole = pair.rep.space(pair, trace_inner(pair), None), band._BandOperators(pair.rep, None)
    n = pair.dim
    assert (folded.rows <= folded.cols).all() and len(folded.rows) == n * (n + 1) // 2 and len(whole.rows) == n * n
    f, w = folded.gather(pair.eta), whole.gather(pair.eta)
    for k in range(2 * pair.dim):
        f, w = folded.liouville(f, k % 2), whole.liouville(w)
        got, want = folded.scatter(f, (k + 1) % 2), whole.scatter(w)
        assert [(type(x), x) for x in got.ravel()] == [(type(x), x) for x in want.ravel()], k


@pytest.mark.parametrize("system", ["hahn", "q-racah", "quantum-q-krawtchouk"])
def test_folded_profile_read_equals_the_whole_band(bctx, system):
    # the eigenbasis route reads an even O_n against the cos wave alone and
    # an odd one against the sin wave, so the other part of each amplitude
    # is an exact zero, and phi_n(t) is the dense read over every entry
    pair = position_pair(default_system(system, bctx))
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    at = chain.space.overlaps(chain.vectors)
    times = list(map(bctx.num, ("1/10", "7/10", "157/50", "10")))
    for t in times:
        assert all(not (z.imag if n % 2 == 0 else z.real) for n, z in enumerate(at(t)))
    rows = krylov_profile(chain, pair, ip, times).phi
    bound = bctx.num("1e-50")
    for got, want in zip(rows, reference_profile(pair, ip, chain.ops, times), strict=True):
        assert max(abs(x - y) for x, y in zip(got, want, strict=True)) <= bound


def _rounding_bound(pair, t):
    """n 2^-prec max(|eta|, 1) (1 + |H|_inf |t|): the phases exp(iEt) carry
    |E t| 2^-prec from the rounded argument, and each entry of either side
    sums n terms."""
    ctx = pair.ctx
    norm = max(sum(abs(x) for x in row) for row in pair.h)
    unit = ctx.mp.ldexp(1, -ctx.mp.prec) * max(max_abs(pair.eta), ctx.one)
    return pair.dim * unit * (1 + norm * abs(ctx.num(t)))


@pytest.mark.parametrize("kind", FINITE_KINDS, ids=lambda k: k.value)
def test_heisenberg_deviations_within_the_rounding_bound(bctx, kind):
    pair = position_pair(default_system(kind, bctx))
    closure = verify_closure(pair)
    devs, ok = heisenberg_check(pair, closure, HEISENBERG_TIMES)
    fine = position_pair(default_system(kind, Context("bigreal", 3 * bctx.precision)))
    refs, _ = heisenberg_check(fine, verify_closure(fine), HEISENBERG_TIMES)
    bounds = [_rounding_bound(pair, t) for t in HEISENBERG_TIMES]
    assert ok and all(abs(d - bctx.num(r)) <= b for d, r, b in zip(devs, refs, bounds, strict=True))
    off = dataclasses.replace(closure, rm1=tuple(c * (1 + bctx.num("1e-50")) for c in closure.rm1))
    off_devs, _ = heisenberg_check(pair, off, HEISENBERG_TIMES)
    assert any(abs(d - bctx.num(r)) > b for d, r, b in zip(off_devs, refs, bounds, strict=True))

"""Shared test data and reference forms.

Valid rational parameter samples for every system: the finite-system
samples depend on N because several parameter ranges do (Racah needs
a > N + d, the q-Krawtchouk variants bound p by powers of q).  They are
kept as exact strings so both numeric modes parse them without rounding.

Operator helpers the library does not need: the identity matrix, a JSON
round trip, random metric-hermitian matrices and the hermiticity defect.

The dense spectrum reference: the closure residual, the closure
combination, the closed form and the phase twist of a spectrum pair
(H diagonal, given by its energies) evaluated on every entry of dim x dim
matrices, with the same operations per entry as the library's evaluation
on the eta support.

mpmath's dense ``eigsy``, the reference of the package's implicit QL
eigendecomposition.  Two bigreal position pairs off the eigenbasis route:
one rotated to a dense H, one with a tridiagonal H nudged by one ulp.

Closed forms only the tests use (the dual Hahn mu_2 and the affine
q-Krawtchouk |eta|^2), and the O(K^3) moments -> b^2 route that
Chebyshev's algorithm replaced, kept as its reference.  The cross-basis
check of <n|eta|n>, which no ``verify`` row runs.

Exact rational values of mpmath numbers and of their product chains, and
rounding once at a context's precision.

The exact reference b^2 of a finite pair, from the oracle's moments
through Chebyshev's algorithm.  Bigreal values against exact ones to a
number of digits, and an exact chain's vectors normalised in the
symmetric representation, the references of the eigenbasis route.

The full-band reference for the position basis: the moment oracle and
the unnormalised exact chain from dense commutators and dots over every
entry, with no fold, and the profile rows from dense matrices in
rational arithmetic, rounded where O_0 moves to the eigenbasis and
where each amplitude part ends.  A dense commutator or product is
``h @ v - v @ h`` or ``x @ y`` in exact mode and, in bigreal mode, that
product formed in rationals and rounded once per entry, as the band
kernel forms it.  The bound between the Heisenberg check's deviation and
the one read off the public closed form and oracle.
The dense position-basis closure: R_i(H) by Horner's rule with dense
products ``acc @ h`` (in rationals, rounded once at the end in bigreal
mode), V f(H) as a dense product, and R_{-1} fitted over all n^2
entries, with L^m eta from the same dense functions of H.

The golden file of exact values, ``data/exact_golden.json``, and the one
function that rewrites it (:func:`write_exact_golden`).
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
from mpmath.libmp import from_man_exp, from_rational, fzero

from krylov_exact import (
    Context,
    OperatorPair,
    SystemKind,
    default_system,
    energy_pair,
    liouville,
    make_system,
    moments_closed,
    moments_oracle,
    moments_to_lanczos,
    operator_lanczos,
    position_pair,
    verify_closure,
)
from krylov_exact.catalog import _polyval
from krylov_exact.dynamics import _exp_differences
from krylov_exact.errors import TruncationTooSmall
from krylov_exact.operators import eig_symmetric, solve_consistent, zeros

FINITE_KINDS = [k for k in SystemKind if k.is_finite]
THERMAL_KINDS = [k for k in SystemKind if not k.is_finite]


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def param_samples(kind: SystemKind, N: int) -> list[dict]:
    """Three valid exact parameter sets for the given finite system."""
    q = Fraction
    if kind is SystemKind.KRAWTCHOUK:
        return [{"p": "1/3"}, {"p": "1/2"}, {"p": "4/5"}]
    if kind is SystemKind.HAHN:
        return [{"a": "1", "b": "1"}, {"a": "1/2", "b": "2"}, {"a": "3", "b": "5/2"}]
    if kind is SystemKind.DUAL_HAHN:
        return [{"a": "1", "b": "2"}, {"a": "1/2", "b": "3"}, {"a": "2", "b": "2"}]
    if kind is SystemKind.RACAH:
        return [
            {"d": "1", "a": str(N + 2), "b": "3/2"},
            {"d": "1/2", "a": str(N + 1), "b": "5/4"},
            {"d": "2", "a": str(N + 3), "b": "5/2"},
        ]
    if kind is SystemKind.QUANTUM_Q_KRAWTCHOUK:
        return [
            {"q": "1/2", "p": _frac(q(3, 2) * q(1, 2) ** -N)},
            {"q": "1/3", "p": _frac(2 * q(1, 3) ** -N)},
            {"q": "2/5", "p": _frac(3 * q(2, 5) ** -N)},
        ]
    if kind is SystemKind.Q_KRAWTCHOUK:
        return [
            {"q": "1/2", "p": "2/3"},
            {"q": "1/3", "p": "1"},
            {"q": "3/5", "p": "5/2"},
        ]
    if kind is SystemKind.AFFINE_Q_KRAWTCHOUK:
        return [
            {"q": "1/2", "p": "3/2"},
            {"q": "1/3", "p": "2"},
            {"q": "2/5", "p": "1"},
        ]
    if kind in (SystemKind.Q_HAHN, SystemKind.DUAL_Q_HAHN):
        return [
            {"q": "1/2", "a": "1/2", "b": "1/3"},
            {"q": "1/3", "a": "1/4", "b": "1/2"},
            {"q": "2/5", "a": "2/3", "b": "1/5"},
        ]
    if kind is SystemKind.Q_RACAH:
        return [
            {"q": "1/2", "d": "1/2", "b": "1/2", "a": _frac(q(1, 2) ** (N + 2))},
            {"q": "1/2", "d": "1/2", "b": "3/4", "a": _frac(q(1, 2) ** (N + 1) / 3)},
            {"q": "2/5", "d": "1/2", "b": "1/2", "a": _frac(q(2, 5) ** N / 4)},
        ]
    raise ValueError(f"no samples for {kind}")


# ---------------------------------------------------------------------------
# Operator helpers
# ---------------------------------------------------------------------------


def identity(n: int, ctx) -> np.ndarray:
    m = zeros(n, ctx)
    np.fill_diagonal(m, [ctx.one] * n)
    return m


def operator_to_json(mat: np.ndarray, ctx) -> str:
    """Serialize a dense operator as {dim, entries} with string entries
    (row-major), so exact rationals survive the round trip."""
    dim = mat.shape[0]
    entries = [ctx.fmt(v) for v in mat.ravel()]
    return json.dumps({"dim": dim, "entries": entries}, sort_keys=True)


def operator_from_json(doc: str, ctx) -> np.ndarray:
    data = json.loads(doc)
    dim = data["dim"]
    out = np.empty((dim, dim), dtype=object)
    for i, s in enumerate(data["entries"]):
        out[i // dim, i % dim] = ctx.num(s)
    return out


def hermiticity_defect(v: np.ndarray, metric: np.ndarray | None = None, sign: int = 1):
    """Largest violation of (metric-twisted) symmetry V_ab g_b = sign V_ba g_a.

    sign=+1 tests hermiticity of the honest representation, sign=-1
    anti-hermiticity.  For complex entries the left side is conjugated.
    """
    n = v.shape[0]
    worst = 0
    for a in range(n):
        for b in range(a, n):
            lhs = v[a, b]
            rhs = v[b, a]
            if hasattr(lhs, "_mpc_"):
                lhs = lhs.conjugate()
            if metric is not None:
                lhs = lhs * metric[b]
                rhs = rhs * metric[a]
            d = abs(rhs - sign * lhs)
            if d > worst:
                worst = d
    return worst


def random_metric_hermitian(n: int, ctx, rng, metric=None) -> np.ndarray:
    """Random matrix that is hermitian in the honest representation."""
    m = zeros(n, ctx)
    for a in range(n):
        m[a, a] = ctx.frac(rng.randint(-9, 9), rng.randint(1, 7))
        for b in range(a + 1, n):
            v = ctx.frac(rng.randint(-9, 9), rng.randint(1, 7))
            m[a, b] = v
            if metric is None:
                m[b, a] = v
            else:
                m[b, a] = v * metric[b] / metric[a]
    return m


# ---------------------------------------------------------------------------
# Dense spectrum reference
# ---------------------------------------------------------------------------


def dense_poly(pair, coeffs) -> np.ndarray:
    return np.array([_polyval(coeffs, e) for e in pair.h], dtype=object)


def dense_combination(eta, l1, a, b, c) -> np.ndarray:
    """eta a(H) + (L eta) b(H) + c(H): V f(H) scales the columns, and
    c(H) is added on the diagonal."""
    out = eta * a + l1 * b
    for i in range(out.shape[0]):
        out[i, i] = out[i, i] + c[i]
    return out


def dense_conjugate_exp(pair, v, t) -> np.ndarray:
    """The phase twist (p_a conj(p_b)) V_ab with p = exp(iEt)."""
    phases = [pair.ctx.expj(e * t) for e in pair.h]
    return np.multiply.outer(phases, [p.conjugate() for p in phases]) * v


def dense_closure(pair, spec=None):
    """(rm1, residual) of :func:`~krylov_exact.verify_closure`, fitted from
    the dense residual M = L^2 eta - eta R_0(H) - (L eta) R_1(H)."""
    spec = spec or pair.spec
    ctx = pair.ctx
    l1 = liouville(pair.h, pair.eta)
    l2 = liouville(pair.h, l1)
    m = l2 - pair.eta * dense_poly(pair, spec.r0_coeffs) - l1 * dense_poly(pair, spec.r1_coeffs)
    residual = max(abs(v) for v in liouville(pair.h, m).ravel())
    n = pair.dim
    one, zero = ctx.one, ctx.zero
    cols = [dense_poly(pair, c) for c in ((one,), (zero, one), (zero, zero, one))]
    rm1 = solve_consistent(cols, np.array([m[i, i] for i in range(n)], dtype=object), ctx)
    return tuple(rm1), residual


def dense_liouville_power(pair, closure, m: int) -> np.ndarray:
    """L^m eta from the closure recurrence, as functions on the spectrum."""
    ctx = pair.ctx
    r0, r1, rm1 = (dense_poly(pair, c) for c in (closure.r0, closure.r1, closure.rm1))
    a_k, b_k, c_k = dense_poly(pair, (ctx.one,)), dense_poly(pair, (ctx.zero,)), dense_poly(pair, (ctx.zero,))
    for _ in range(m):
        a_k, b_k, c_k = r0 * b_k, a_k + r1 * b_k, rm1 * b_k
    return dense_combination(pair.eta, liouville(pair.h, pair.eta), a_k, b_k, c_k)


def dense_closed_form(pair, closure, t) -> np.ndarray:
    """exp(iHt) eta exp(-iHt) = eta A(H) + (L eta) B(H) + C(H)."""
    ctx = pair.ctx
    avals, bvals, cvals = [], [], []
    for e in pair.h:
        r1 = closure.r1_at(e)
        root = ctx.sqrt(r1 * r1 + 4 * closure.r0_at(e))
        ap, am = (r1 + root) / 2, (r1 - root) / 2
        e_am, b, second = _exp_differences(ctx, t, ap, am)
        avals.append(e_am - am * b)
        bvals.append(b)
        cvals.append(closure.rm1_at(e) * second)
    values = (np.array(v, dtype=object) for v in (avals, bvals, cvals))
    return dense_combination(pair.eta, liouville(pair.h, pair.eta), *values)


# ---------------------------------------------------------------------------
# Closed forms and the moments -> b^2 reference
# ---------------------------------------------------------------------------


def dual_hahn_mu2_closed(N: int, a, b, ctx):
    """Independently derived rational closed form of the dual Hahn mu_2.

    Equal to 2*sum A_n C_{n+1} / |eta|^2 for every (N, a, b); the
    numerator and denominator below were obtained by summing that lattice
    expression symbolically and are verified against it in the tests.
    """
    a = ctx.num(a)
    b = ctx.num(b)
    s = a + b
    numer = (N + 2) * (2 * N * N + 5 * s * N - 6 * N + 10 * a * b - 5 * s + 4)
    denom = (
        6 * N**3
        + 15 * s * N**2
        - 6 * N**2
        + 10 * s * s * N
        - 5 * s * N
        - 4 * N
        + 5 * s * s
        - 10 * s
        + 4
    )
    return numer / denom


def affine_qk_norm_closed(N: int, q, ctx):
    """Closed form of sum_x (q^-x - 1)^2 for x = 0..N.

    Derived independently as N + q^{-2N} (1-q^N)(1-q^N(1+2q)) / (1-q^2)
    and verified against the direct sum in the tests.
    """
    q = ctx.num(q)
    return N + q ** (-2 * N) * (1 - q**N) * (1 - q**N * (1 + 2 * q)) / (1 - q * q)


def hankel_b2_reference(table):
    """(b_squared, stop_index) of a symmetric moment table, O(K^3).

    The monic polynomials p_{k+1} = x p_k - b_k^2 p_{k-1} are kept as
    coefficient lists, and each h_k = L(p_k^2) is a double sum of their
    coefficients against the moments; b_k^2 = h_k / h_{k-1}, and a b_k^2
    that ``ctx.is_zero`` stops the chain at O_{k-1}.
    """
    mus, ctx = table.values, table.ctx
    K = (len(mus) - 1) // 2

    def dot(p, q):
        s = ctx.zero
        for i, ci in enumerate(p):
            if ci == 0:
                continue
            for j, cj in enumerate(q):
                if cj == 0:
                    continue
                s = s + ci * cj * mus[i + j]
        return s

    p_prev, p_cur = [ctx.one], [ctx.zero, ctx.one]
    h_prev = ctx.one
    b2s = []
    for k in range(1, K + 1):
        h_cur = dot(p_cur, p_cur)
        b2 = h_cur / h_prev
        if ctx.is_zero(b2):
            return b2s, k - 1
        b2s.append(b2)
        nxt = [ctx.zero] + list(p_cur)
        for i, c in enumerate(p_prev):
            nxt[i] = nxt[i] - b2 * c
        p_prev, p_cur = p_cur, nxt
        h_prev = h_cur
    return b2s, None


def diagonal_eta_identity(spec, n_max: int | None = None) -> bool:
    """Check <n|eta|n> against the recurrence data at every level.

    Finite systems are checked on levels 0..N, thermal ones on 0..n_max.
    For finite systems in bigreal mode the left side is computed from
    the position-basis eigenvectors of one eigendecomposition, making
    this a genuine cross-basis verification; otherwise it reduces to the
    catalog's own consistency (finite families use -(A_n + C_n), the
    thermal ones their diagonal recurrence coefficient).
    """
    hi = spec.N if spec.is_finite else n_max
    if hi is None:
        raise TruncationTooSmall("infinite system needs an explicit n_max")
    ctx = spec.ctx
    if spec.is_finite and not ctx.is_exact:
        _, q = eig_symmetric(position_pair(spec).h, ctx)
        for n in range(hi + 1):
            got = ctx.zero
            for x in range(spec.dim):
                got = got + q[x, n] * q[x, n] * spec.eta(x)
            if not ctx.close(got, spec.eta_diag(n)):
                return False
        return True
    if spec.is_finite or spec.kind in (SystemKind.MEIXNER, SystemKind.CHARLIER):
        return all(ctx.close(spec.eta_diag(n), -(spec.A(n) + spec.C(n))) for n in range(hi + 1))
    return True  # thermal families with explicit diagonal data


# ---------------------------------------------------------------------------
# Exact references of the eigenbasis route
# ---------------------------------------------------------------------------


def exact_b2_reference(pair) -> list:
    """The b^2 of the whole exact chain of the finite position PAIR, from
    ``moments_oracle(K=2N+1)`` and ``moments_to_lanczos``, with no chain
    and no closed form.  The measure of N + 1 levels has at most 2N + 1
    points, so the chain stops by O_2N, and the 2N + 1 moments reach it."""
    assert pair.ctx.is_exact
    coeffs = moments_to_lanczos(moments_oracle(pair, K=2 * pair.dim - 1))
    assert coeffs.stop_index is not None
    return coeffs.b_squared


def agree(got, want, digits: int = 47) -> bool:
    """Whether each bigreal value of GOT lies within 10^-DIGITS relative of
    the exact rational at its place in WANT, and so an exact 0 exactly."""
    want = [Fraction(int(w.numerator), int(w.denominator)) for w in want]
    return len(got) == len(want) and all(abs(exact_value(g) - w) <= abs(w) / 10**digits for g, w in zip(got, want))


def normalised_ops(ops, norms_sq, metric, ctx) -> list:
    """Exact unnormalised chain matrices V_k with squared norms nu_k as
    ctx's bigreal O_k = V_k / sqrt(nu_k), moved to the symmetric
    representation of a pair under the metric g: O_ab sqrt(g_b / g_a)."""
    n = len(ops[0])
    g = [ctx.one] * n if metric is None else [ctx.num(x) for x in metric]
    scale = np.array([[ctx.sqrt(g[b] / g[a]) for b in range(n)] for a in range(n)], dtype=object)
    return [np.vectorize(ctx.num, otypes=[object])(v) * scale / ctx.sqrt(ctx.num(nu)) for v, nu in zip(ops, norms_sq)]


# ---------------------------------------------------------------------------
# Full-band reference for the position basis
# ---------------------------------------------------------------------------


def eigsy_reference(h, ctx):
    """(E ascending, Q) of a symmetric bigreal H from mpmath's dense
    ``eigsy`` at the context's precision: Householder tridiagonalisation
    and implicit QL with every rotation of Q in mpf arithmetic, O(n^3)
    even for a tridiagonal H.  The reference of
    :func:`~krylov_exact.operators.eig_symmetric`."""
    evals, q = ctx.mp.eigsy(ctx.mp.matrix(h.tolist()))
    order = sorted(range(len(h)), key=lambda i: evals[i])
    return np.array([evals[i] for i in order], dtype=object), np.array(q.tolist(), dtype=object)[:, order]


def rotated_pair(pair):
    """The bigreal position pair moved to the eigenbasis by plain object
    products: entries (a, b) and (b, a) round differently, so H and eta
    are symmetric only up to rounding.  H is dense, so
    :func:`~krylov_exact.operators.eig_symmetric` rejects it."""
    _, q = eig_symmetric(pair.h, pair.ctx)
    return OperatorPair(q.T @ pair.h @ q, q.T @ pair.eta @ q, pair.ctx)


def nudged_pair(pair):
    """The bigreal position pair with H[1, 0] moved up by one unit in the
    last place: H stays tridiagonal and is symmetric only up to rounding,
    so ``eig_symmetric`` still accepts it, and the chain does not."""
    h, mp = pair.h.copy(), pair.ctx.mp
    h[1, 0] = h[1, 0] + mp.ldexp(1, mp.mag(h[1, 0]) - mp.prec)
    return OperatorPair(h, pair.eta, pair.ctx)


def exact_ints(m) -> tuple:
    """(re, im, exp): the exact values of an array of mpf and mpc entries
    as Python-int arrays at one exponent, re * 2**exp and im * 2**exp; im
    is None where every entry is real."""
    flat = m.ravel()
    count = 2 if any(hasattr(x, "_mpc_") for x in flat) else 1
    parts = [[x._mpc_[k] if hasattr(x, "_mpc_") else (x._mpf_, fzero)[k] for x in flat] for k in range(count)]
    low = min((e for part in parts for _, man, e, _ in part if man), default=0)
    ints = [[(-man if s else man) << (e - low) if man else 0 for s, man, e, _ in part] for part in parts]
    ints = [np.array(part, dtype=object).reshape(m.shape) for part in ints]
    return ints[0], ints[1] if count == 2 else None, low


def rounded_ints(mp, re, im, exp) -> np.ndarray:
    """(re + i im) 2**exp with each entry rounded once at the precision and
    rounding of ``mp``: mpf, or mpc where IM is given."""
    prec, rnd = mp._prec_rounding
    out = [mp.make_mpf(from_man_exp(int(v), exp, prec, rnd)) for v in re.ravel()]
    if im is not None:
        out = [mp.make_mpc((r._mpf_, from_man_exp(int(v), exp, prec, rnd))) for r, v in zip(out, im.ravel())]
    return np.array(out, dtype=object).reshape(re.shape)


def _exact_product(x, y) -> tuple:
    """(re, im, exp) of X @ Y, exactly, for arrays of mpf and mpc."""
    (xr, xi, ex), (yr, yi, ey) = exact_ints(x), exact_ints(y)
    if xi is None and yi is None:
        return xr @ yr, None, ex + ey
    xi, yi = (np.zeros(m.shape, dtype=object) if m is None else m for m, r in ((xi, xr), (yi, yr)))
    return xr @ yr - xi @ yi, xr @ yi + xi @ yr, ex + ey


def dense_product(pair, x, y):
    """X @ Y: exact in exact mode, else the exact product rounded once per
    entry, as the band kernel forms it."""
    if pair.ctx.is_exact:
        return x @ y
    return rounded_ints(pair.ctx.mp, *_exact_product(x, y))


def dense_commutator(pair, v):
    """[H, V] = HV - VH: exact in exact mode, else the exact commutator
    rounded once per entry."""
    if pair.ctx.is_exact:
        return pair.h @ v - v @ pair.h
    (ar, ai, e), (br, bi, _) = _exact_product(pair.h, v), _exact_product(v, pair.h)
    return rounded_ints(pair.ctx.mp, ar - br, None if ai is None else ai - bi, e)


def reference_oracle(pair, dot, K: int) -> list:
    """mu_0 .. mu_2K from K dense commutators and the given dot."""
    v = pair.eta
    norm = dot(v, v)
    values = [pair.ctx.one]
    for _ in range(K):
        v_next = dense_commutator(pair, v)
        values += [dot(v, v_next) / norm, dot(v_next, v_next) / norm]
        v = v_next
    return values


def reference_exact_chain(pair, dot, k_max: int | None = None):
    """(ops, b^2, squared norms, stopped) of the unnormalised exact
    recurrence V_{k+1} = [H, V_k] - b_k^2 V_{k-1} on dense matrices, with
    the given dot, to k_max steps (all of them by default)."""
    k_max = pair.dim**2 if k_max is None else k_max
    v_prev, v_cur = None, pair.eta
    ops, nus, b2s = [v_cur], [dot(v_cur, v_cur)], []
    while len(b2s) < k_max:
        w = dense_commutator(pair, v_cur)
        if v_prev is not None:
            w = w - v_prev * b2s[-1]
        nu = dot(w, w)
        if nu == 0:
            return ops, b2s, nus, True
        nus.append(nu)
        b2s.append(nus[-1] / nus[-2])
        v_prev, v_cur = v_cur, w
        ops.append(v_cur)
    return ops, b2s, nus, False


def exact_value(x) -> Fraction:
    """The rational value of an mpf."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def exact_chain(factors) -> tuple:
    """The exact product of object arrays of mpf and mpc, numpy's @ from
    left to right, as (re, im) arrays of Fractions."""

    def parts(m):
        split = [(x.real, x.imag) if hasattr(x, "_mpc_") else (x, None) for x in m.ravel()]
        return tuple(
            np.array([Fraction(0) if p[k] is None else exact_value(p[k]) for p in split], dtype=object).reshape(m.shape)
            for k in (0, 1)
        )

    re, im = parts(factors[0])
    for factor in factors[1:]:
        fr, fi = parts(factor)
        re, im = re @ fr - im @ fi, re @ fi + im @ fr
    return re, im


def rounded_value(mp, x: Fraction):
    """X rounded once at the precision and rounding of ``mp``."""
    prec, rnd = mp._prec_rounding
    return mp.make_mpf(from_rational(x.numerator, x.denominator, prec, rnd))


def reference_profile(pair, ip, ops, times) -> list:
    """phi_n(t) = Re((-i)^n (O_n, O_0(t))) for real chain matrices O_n,
    with dense matrices over every entry, rounded where the package's
    eigenbasis route rounds and exact in between: O_0' = Q^T O_0 Q rounded
    once per entry; then, from the phases p = exp(iEt) rounded once each,
    the phase twist (p_a conj(p_b)) O_0'_ab, the move back Q X Q^T and its
    sum with the covector weight * O_n over every entry, all in
    rationals, each part of an amplitude rounded once."""
    ctx, mp = pair.ctx, pair.ctx.mp
    exact = np.vectorize(exact_value, otypes=[object])
    rounded = np.vectorize(lambda x: rounded_value(mp, x), otypes=[object])
    energies, q = eig_symmetric(pair.h, ctx)
    q = exact(q)
    o0 = exact(rounded(q.T @ exact(ops[0]) @ q))
    covectors = [exact(ip.weight * o_n) for o_n in ops]
    turn = [mp.mpc(1, 0), mp.mpc(0, -1), mp.mpc(-1, 0), mp.mpc(0, 1)]
    rows = []
    for t in times:
        phases = [ctx.expj(e * t) for e in energies]
        re, im = (exact(np.array([getattr(p, part) for p in phases], dtype=object)) for part in ("real", "imag"))
        # p_a conj(p_b) = re_a re_b + im_a im_b + i (im_a re_b - re_a im_b)
        outer = np.multiply.outer
        twist = (outer(re, re) + outer(im, im), outer(im, re) - outer(re, im))
        moved = [q @ (part * o0) @ q.T for part in twist]
        parts = [[rounded_value(mp, (d * m).sum()) for m in moved] for d in covectors]
        rows.append([(mp.mpc(*part) * turn[n % 4]).real for n, part in enumerate(parts)])
    return rows


def dense_position_poly(pair, coeffs) -> np.ndarray:
    """f(H) by Horner's rule, acc = acc @ h + c, on dense matrices: in
    bigreal mode in rationals, each entry rounded once at the end."""
    bigreal = not pair.ctx.is_exact
    value = exact_value if bigreal else (lambda c: c)
    h, diag = np.vectorize(value, otypes=[object])(pair.h), np.diag_indices(pair.dim)
    acc = np.full((pair.dim, pair.dim), Fraction(0) if bigreal else pair.ctx.zero, dtype=object)
    for k, c in enumerate(reversed(coeffs)):
        acc = acc @ h if k else acc
        acc[diag] = acc[diag] + value(c)
    return np.vectorize(lambda x: rounded_value(pair.ctx.mp, x), otypes=[object])(acc) if bigreal else acc


def dense_position_closure(pair):
    """(rm1, residual) of :func:`~krylov_exact.verify_closure` on a position
    pair from dense n x n products: M = L^2 eta - eta @ R_0(H) - (L eta) @
    R_1(H), the largest |[H, M]_ab|, and R_{-1} fitted over all n^2 rows."""
    ctx, spec = pair.ctx, pair.spec
    l1 = dense_commutator(pair, pair.eta)
    l2 = dense_commutator(pair, l1)
    r0, r1 = (dense_position_poly(pair, c) for c in (spec.r0_coeffs, spec.r1_coeffs))
    m = l2 - dense_product(pair, pair.eta, r0) - dense_product(pair, l1, r1)
    residual = max(abs(v) for v in dense_commutator(pair, m).ravel())
    one, zero = ctx.one, ctx.zero
    cols = [dense_position_poly(pair, c) for c in ((one,), (zero, one), (zero, zero, one))]
    return tuple(solve_consistent(cols, m, ctx)), residual


def dense_position_liouville_power(pair, closure, m: int) -> np.ndarray:
    """L^m eta = eta A_m(H) + (L eta) B_m(H) + C_m(H) from the closure
    recurrence, with dense functions of H and dense products."""
    ctx = pair.ctx
    r0, r1, rm1 = (dense_position_poly(pair, c) for c in (closure.r0, closure.r1, closure.rm1))
    a_k, b_k, c_k = (dense_position_poly(pair, (c,)) for c in (ctx.one, ctx.zero, ctx.zero))
    for _ in range(m):
        a_k, b_k, c_k = dense_product(pair, r0, b_k), a_k + dense_product(pair, r1, b_k), dense_product(pair, rm1, b_k)
    return dense_product(pair, pair.eta, a_k) + dense_product(pair, dense_commutator(pair, pair.eta), b_k) + c_k


def same_scalar(x, y) -> bool:
    """Equal in type and value, and bigreal values bit for bit."""
    return type(x) is type(y) and (x._mpf_ == y._mpf_ if hasattr(x, "_mpf_") else x == y)


def heisenberg_route_bound(pair):
    """How far a deviation of ``heisenberg_check`` may lie from
    max |heisenberg_closed_form - matrix_exponential_conjugate| at the same
    time, for a diagonal eta.  Both routes start from the same eigenbasis
    values C' and O'.  The public functions move each back on its own and
    round every entry once: each part of an entry of Q C' Q^T is at most
    |eta|_2 = max |eta|, so each side is off by at most sqrt(2) 2^-prec
    max |eta| per entry.  The check rounds C' - O' and its move back,
    and the public difference and both moduli round too; those errors are
    2^-prec times the deviation itself.  So 2 sqrt(2) < 3 units of
    2^-prec max(|eta|, 1)."""
    assert not np.any(pair.eta - np.diag(np.diag(pair.eta)))
    ctx = pair.ctx
    return 3 * ctx.mp.ldexp(1, -ctx.mp.prec) * max(max(abs(v) for v in pair.eta.ravel()), ctx.one)


# ---------------------------------------------------------------------------
# Golden exact values
# ---------------------------------------------------------------------------

EXACT_GOLDEN = Path(__file__).parent / "data" / "exact_golden.json"


#: The golden case too slow for tier-1 (``pytest -m slow`` runs it).
SLOW_GOLDEN = "hahn N=32 a=1/2 b=2"


def exact_golden_cases() -> dict:
    """{label: spec}: every finite system at its default sample, and Hahn
    (a = 1/2, b = 2) at N = 16 and N = 32 (:data:`SLOW_GOLDEN`), in exact
    mode."""
    ctx = Context("exact")
    cases = {kind.value: default_system(kind, ctx) for kind in FINITE_KINDS}
    for n in (16, 32):
        cases[f"hahn N={n} a=1/2 b=2"] = make_system(SystemKind.HAHN, n, {"a": "1/2", "b": "2"}, ctx)
    return cases


def exact_golden_values(spec) -> dict:
    """The exact values of SPEC the golden file keeps, as ``ctx.fmt``
    strings: the closed-form mu_0 .. mu_12, the oracle's on the position
    pair, b^2 and the stop of the Hankel route (Chebyshev's algorithm on the
    closed-form moments), the operator chain's b^2 to k_max = 6 and over
    the whole chain with its stop, and the closure's R_{-1} on the
    position and the energy pair."""
    fmt = lambda values: [spec.ctx.fmt(v) for v in values]  # noqa: E731
    closed = moments_closed(spec, K=6)
    hankel = moments_to_lanczos(closed)
    position = position_pair(spec)
    full = operator_lanczos(position)
    return {
        "mu_closed": fmt(closed.values),
        "mu_oracle": fmt(moments_oracle(position, K=6).values),
        "hankel_b2": fmt(hankel.b_squared),
        "hankel_stop": hankel.stop_index,
        "chain_b2": fmt(operator_lanczos(position, k_max=6).b_squared),
        "chain_b2_full": fmt(full.b_squared),
        "chain_stop": full.stop_index,
        "rm1_position": fmt(verify_closure(position).rm1),
        "rm1_energy": fmt(verify_closure(energy_pair(spec)).rm1),
    }


def write_exact_golden() -> None:
    """Rewrite ``data/exact_golden.json`` from the code as it stands.  Run it
    only for a change that is meant to move exact values, and record the
    rewrite in CHANGES.md:

        PYTHONPATH=src:tests python -c "import helpers; helpers.write_exact_golden()"
    """
    doc = {label: exact_golden_values(spec) for label, spec in exact_golden_cases().items()}
    EXACT_GOLDEN.parent.mkdir(exist_ok=True)
    EXACT_GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")

"""Finite-dimensional operator algebra for the solvable systems.

Matrices are numpy arrays with ``dtype=object`` so that entries can be
exact rationals or mpmath numbers.  Diagonal operators (the Hamiltonian
in its eigenbasis) are 1-D arrays of eigenvalues, which keeps commutators
and Heisenberg evolution elementwise.

A matrix Hamiltonian is applied through its nonzero diagonals: with
bandwidths w_H and w_V, :func:`liouville` forms [H, V] from
O(n * w_H * (w_H + w_V)) scalar products plus an O(n^2) scan for the
bandwidths, instead of the O(n^3) of a dense product.  The position-basis
H is tridiagonal (w_H = 1) and eta diagonal, so L^k eta has bandwidth k.

Exact mode and the off-diagonal square roots
--------------------------------------------
The position-basis Hamiltonian has off-diagonal entries -sqrt(B(x)D(x+1))
and the energy-basis eta has sqrt(A(n)C(n+1)), both generally irrational.
To keep exact-rational verification possible, :func:`position_pair` and
:func:`energy_pair` can return the diagonally rescaled similar matrices
(upper/lower entries -B(x)/-D(x+1), respectively A(n)C(n+1)/1) together
with the rational metric g of the rescaling.  All inner products carry
the metric weight g_b/g_a, which makes them literally equal to the
honest trace inner products of the symmetric representation, so moments,
Lanczos data, and closure residuals come out exactly right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath
import numpy as np
from mpmath import mp

from .catalog import SystemSpec
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    ModeError,
    NegativeUnderSquareRoot,
    NotFiniteSystem,
    TruncationTooSmall,
    ZeroEta,
)
from .numeric import Context, Tolerance, exact_sqrt

POSITION = "position"
ENERGY = "energy"


def zeros(n: int, ctx: Context) -> np.ndarray:
    m = np.empty((n, n), dtype=object)
    m[:] = ctx.zero
    return m


def identity(n: int, ctx: Context) -> np.ndarray:
    m = zeros(n, ctx)
    for i in range(n):
        m[i, i] = ctx.one
    return m


def from_rows(rows, ctx: Context) -> np.ndarray:
    m = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m[i, j] = ctx.num(v)
    return m


def operator_to_json(mat: np.ndarray, ctx: Context) -> str:
    """Serialize a dense operator as {dim, entries} with string entries
    (row-major), so exact rationals survive the round trip."""
    import json

    dim = mat.shape[0]
    entries = [ctx.fmt(v) for v in mat.ravel()]
    return json.dumps({"dim": dim, "entries": entries}, sort_keys=True)


def operator_from_json(doc: str, ctx: Context) -> np.ndarray:
    import json

    data = json.loads(doc)
    dim = data["dim"]
    out = np.empty((dim, dim), dtype=object)
    for i, s in enumerate(data["entries"]):
        out[i // dim, i % dim] = ctx.parse(s)
    return out


def conjugate(mat: np.ndarray) -> np.ndarray:
    out = np.empty_like(mat)
    flat_in = mat.ravel()
    flat_out = out.ravel()
    for i, v in enumerate(flat_in):
        flat_out[i] = v.conjugate() if isinstance(v, mpmath.mpc) else v
    return out


def max_abs(mat: np.ndarray):
    return max(abs(v) for v in np.asarray(mat, dtype=object).ravel())


@dataclass
class OperatorPair:
    """A Hamiltonian/eta pair in one basis, with optional rational metric.

    ``h`` is a 1-D array of eigenvalues (energy basis) or a 2-D matrix
    (position basis).  ``metric`` is None for an orthonormal basis, or
    the diagonal g of the similarity that maps the stored matrices back
    to the honest symmetric representation.
    """

    h: np.ndarray
    eta: np.ndarray
    basis: str
    ctx: Context
    metric: np.ndarray | None = None
    spec: SystemSpec | None = None

    @property
    def dim(self) -> int:
        return self.eta.shape[0]


@dataclass
class InnerProduct:
    """Elementwise-weight form of an operator inner product.

    (V, W) = sum_ab weight[a,b] * conj(V[a,b]) * W[a,b].  The trace inner
    product has unit weights (metric-adjusted in the rescaled exact
    representation); the Wightman one carries Boltzmann factors
    exp(-beta*(E_a + E_b)/2) / Z.
    """

    kind: str
    weight: np.ndarray
    ctx: Context
    beta: object | None = None

    @property
    def dim(self) -> int:
        return self.weight.shape[0]


def trace_inner(pair: OperatorPair) -> InnerProduct:
    n = pair.dim
    ctx = pair.ctx
    w = np.empty((n, n), dtype=object)
    if pair.metric is None:
        w[:] = ctx.one
    else:
        g = pair.metric
        for a in range(n):
            for b in range(n):
                w[a, b] = g[b] / g[a]
    return InnerProduct("trace", w, ctx)


def wightman_inner(pair: OperatorPair, beta) -> InnerProduct:
    """Thermal inner product; requires the energy basis for the weights."""
    if pair.basis != ENERGY:
        raise BasisMismatch("Wightman inner product needs the energy basis")
    ctx = pair.ctx
    beta = ctx.num(beta)
    if not beta > 0:
        raise BasisMismatch("beta must be positive")
    energies = pair.h
    n = pair.dim
    with ctx.work():
        half = [ctx.exp(-beta * e / 2) for e in energies]
        z = sum(hw * hw for hw in half)
        w = np.empty((n, n), dtype=object)
        for a in range(n):
            for b in range(n):
                w[a, b] = half[a] * half[b] / z
        if pair.metric is not None:
            g = pair.metric
            for a in range(n):
                for b in range(n):
                    w[a, b] = w[a, b] * g[b] / g[a]
    return InnerProduct("wightman", w, ctx, beta)


def inner(ip: InnerProduct, v: np.ndarray, w: np.ndarray):
    """(V, W) under the given inner product."""
    if v.shape != w.shape or v.shape != ip.weight.shape:
        raise DimensionMismatch(f"shapes {v.shape}, {w.shape}, {ip.weight.shape}")
    with ip.ctx.work():
        return (ip.weight * conjugate(v) * w).sum()


def norm_sq(ip: InnerProduct, v: np.ndarray):
    return inner(ip, v, v)


def _bandwidth(m: np.ndarray) -> int:
    """Largest |a - b| over the nonzero entries of a square matrix (0 if none)."""
    rows, cols = np.nonzero(m)
    return int(np.abs(rows - cols).max()) if rows.size else 0


def _diagonal_rows(m: np.ndarray, f: int, lo: int, hi: int) -> np.ndarray:
    """Entries M[a, a + f] for rows lo <= a < hi, as a view."""
    off = max(0, -f)
    return m.diagonal(f)[lo - off:hi - off]


def liouville(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Commutator [H, V]; elementwise when H is a diagonal spectrum array.

    A matrix H is applied through its nonzero diagonals: only the entries
    with |a - b| <= w_H + w_V can be nonzero, and each is summed over
    ascending k exactly as ``h @ v - v @ h`` sums it, less the terms that
    are exact zeros.  Results therefore equal the dense product bit for
    bit, also in bigreal mode.
    """
    if h.ndim == 1:
        if v.shape != (h.shape[0], h.shape[0]):
            raise DimensionMismatch(f"spectrum dim {h.shape[0]} vs matrix {v.shape}")
        return np.subtract.outer(h, h) * v
    if h.shape != v.shape:
        raise DimensionMismatch(f"{h.shape} vs {v.shape}")
    n = h.shape[0]
    w_h, w_v = _bandwidth(h), _bandwidth(v)
    zero = 0 * h[0, 0] * v[0, 0]
    out = np.full((n, n), zero, dtype=object)
    reach = min(w_h + w_v, n - 1)
    for e in range(-reach, reach + 1):
        # output diagonal e: entries (a, a + e) for rows a0 <= a < a1
        a0, a1 = max(0, -e), min(n, n - e)
        hv = np.full(a1 - a0, zero, dtype=object)
        vh = hv.copy()
        for d in range(-w_h, w_h + 1):
            if abs(e - d) <= w_v:  # (HV)[a, a+e] += H[a, a+d] V[a+d, a+e]
                lo, hi = max(a0, -d), min(a1, n - d)
                hv[lo - a0:hi - a0] += (
                    _diagonal_rows(h, d, lo, hi) * _diagonal_rows(v, e - d, lo + d, hi + d)
                )
            if abs(e + d) <= w_v:  # (VH)[a, a+e] += V[a, a+e+d] H[a+e+d, a+e]
                lo, hi = max(a0, -e - d), min(a1, n - e - d)
                vh[lo - a0:hi - a0] += (
                    _diagonal_rows(v, e + d, lo, hi) * _diagonal_rows(h, -d, lo + e + d, hi + e + d)
                )
        rows = np.arange(a0, a1)
        out[rows, rows + e] = hv - vh
    return out


# ---------------------------------------------------------------------------
# Representation builders
# ---------------------------------------------------------------------------


def build_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Symmetric tridiagonal position-basis Hamiltonian.

    In exact mode this requires every B(x)D(x+1) to be a perfect rational
    square; otherwise use :func:`position_pair`, which avoids the square
    roots through a diagonal similarity.
    """
    pair = position_pair(spec, allow_metric=False)
    return pair.h


def build_eta_position(spec: SystemSpec) -> np.ndarray:
    if not spec.is_finite:
        raise NotFiniteSystem(f"{spec.kind.value} has no position lattice")
    ctx = spec.ctx
    n = spec.dim
    m = zeros(n, ctx)
    for x in range(n):
        m[x, x] = spec.eta(x)
    return m


def position_pair(spec: SystemSpec, allow_metric: bool = True) -> OperatorPair:
    """Position-basis (H, eta) pair, exact-safe via the metric rescaling."""
    if not spec.is_finite:
        raise NotFiniteSystem(f"{spec.kind.value} has no position lattice")
    ctx = spec.ctx
    n = spec.dim
    h = zeros(n, ctx)
    metric = None
    for x in range(n):
        h[x, x] = spec.B(x) + spec.D(x)
    offs = [spec.B(x) * spec.D(x + 1) for x in range(n - 1)]
    for v in offs:
        if v < 0:
            raise NegativeUnderSquareRoot("B(x)*D(x+1) negative; invalid parameters")
    if ctx.is_exact:
        roots = [exact_sqrt(v) for v in offs]
        if all(r is not None for r in roots):
            for x, r in enumerate(roots):
                h[x, x + 1] = -r
                h[x + 1, x] = -r
        elif not allow_metric:
            raise ModeError(
                "off-diagonal sqrt(B*D) is irrational; use position_pair()"
            )
        else:
            # birth-death form, similar to the symmetric one by diag(g)
            g = np.empty(n, dtype=object)
            g[0] = ctx.one
            for x in range(n - 1):
                h[x, x + 1] = -spec.B(x)
                h[x + 1, x] = -spec.D(x + 1)
                g[x + 1] = g[x] * spec.D(x + 1) / spec.B(x)
            metric = g
    else:
        with ctx.work():
            for x in range(n - 1):
                r = -ctx.sqrt(offs[x])
                h[x, x + 1] = r
                h[x + 1, x] = r
    return OperatorPair(h, build_eta_position(spec), POSITION, ctx, metric, spec)


def build_energy_rep(spec: SystemSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum array and symmetric tridiagonal eta in the energy basis."""
    pair = energy_pair(spec, n_max, allow_metric=False)
    return pair.h, pair.eta


def energy_pair(spec: SystemSpec, n_max: int | None = None, allow_metric: bool = True) -> OperatorPair:
    """Energy-basis (H, eta) pair on levels 0..n_max.

    H is returned as the 1-D spectrum array.  For finite systems
    n_max defaults to N and may not exceed it.
    """
    ctx = spec.ctx
    if spec.is_finite:
        n_max = spec.N if n_max is None else n_max
        if n_max > spec.N:
            raise TruncationTooSmall(f"n_max {n_max} exceeds N={spec.N}")
    elif n_max is None:
        raise TruncationTooSmall("infinite system needs an explicit n_max")
    if n_max < 2:
        raise TruncationTooSmall("need n_max >= 2")
    dim = n_max + 1
    energies = np.empty(dim, dtype=object)
    for k in range(dim):
        energies[k] = spec.energy(k)
    eta = zeros(dim, ctx)
    for k in range(dim):
        eta[k, k] = spec.eta_diag(k)
    prods = [spec.ac_product(k) for k in range(dim - 1)]
    for v in prods:
        if v < 0:
            raise NegativeUnderSquareRoot("A(n)*C(n+1) negative; invalid parameters")
    metric = None
    if ctx.is_exact:
        roots = [exact_sqrt(v) for v in prods]
        if all(r is not None for r in roots):
            for k, r in enumerate(roots):
                eta[k, k + 1] = r
                eta[k + 1, k] = r
        elif not allow_metric:
            raise ModeError("sqrt(A*C) is irrational; use energy_pair()")
        else:
            g = np.empty(dim, dtype=object)
            g[0] = ctx.one
            for k in range(dim - 1):
                eta[k, k + 1] = prods[k]
                eta[k + 1, k] = ctx.one
                g[k + 1] = g[k] / prods[k]
            metric = g
    else:
        with ctx.work():
            for k in range(dim - 1):
                r = ctx.sqrt(prods[k])
                eta[k, k + 1] = r
                eta[k + 1, k] = r
    return OperatorPair(energies, eta, ENERGY, ctx, metric, spec)


# ---------------------------------------------------------------------------
# Lanczos orthonormalisation in operator space
# ---------------------------------------------------------------------------


@dataclass
class OperatorChain:
    """Orthonormal chain O_0, O_1, ... with its Lanczos coefficients.

    In bigreal mode ``ops`` are normalised and ``b`` holds b_1..; in
    exact mode ``ops`` are the unnormalised rational chain vectors and
    only ``b_squared`` (with the squared norms ``norms_sq``) is stored,
    so that the stop test b_{k+1} = 0 stays literal.
    """

    ops: list
    b_squared: list
    stopped: bool
    ctx: Context
    b: list | None = None
    norms_sq: list | None = field(default=None, repr=False)

    @property
    def stop_index(self) -> int | None:
        """k such that b_{k+1} vanished, i.e. the chain ends at O_k."""
        return len(self.b_squared) if self.stopped else None

    def b_values(self, ctx: Context | None = None) -> list:
        """Materialise b_n, taking square roots in bigreal if needed."""
        if self.b is not None:
            return list(self.b)
        ctx = ctx or self.ctx
        if ctx.is_exact:
            roots = [exact_sqrt(v) for v in self.b_squared]
            if all(r is not None for r in roots):
                return roots
            raise ModeError("b values are irrational; pass a bigreal context")
        with ctx.work():
            return [ctx.sqrt(ctx.num(v)) for v in self.b_squared]

    def to_json_dict(self) -> dict:
        ctx = self.ctx
        return {
            "b": [ctx.fmt(v) for v in self.b_values()] if not ctx.is_exact else None,
            "b_squared": [ctx.fmt(v) for v in self.b_squared],
            "stopped": self.stopped,
            "stop_index": self.stop_index,
        }


class SupportBasis:
    """Index set of the eta support, closed under the diagonal-H Liouvillian.

    With H diagonal the commutator acts elementwise, so every operator in
    the Krylov chain is supported exactly where eta is.  Gathering the
    matrices onto that support turns each Lanczos step from O(dim^2) into
    O(support) work, which matters for the long thermal chains.
    """

    def __init__(self, pair: OperatorPair, ip: InnerProduct):
        n = pair.dim
        self.dim = n
        self.index = [
            (a, b) for a in range(n) for b in range(n) if pair.eta[a, b] != 0
        ]
        self.freq = np.array(
            [pair.h[a] - pair.h[b] for a, b in self.index], dtype=object
        )
        self.weight = np.array(
            [ip.weight[a, b] for a, b in self.index], dtype=object
        )

    def gather(self, mat: np.ndarray) -> np.ndarray:
        return np.array([mat[a, b] for a, b in self.index], dtype=object)

    def scatter(self, vec: np.ndarray, ctx: Context) -> np.ndarray:
        out = zeros(self.dim, ctx)
        for v, (a, b) in zip(vec, self.index):
            out[a, b] = v
        return out

    def dot(self, u: np.ndarray, v: np.ndarray):
        return (self.weight * u * v).sum()


def operator_lanczos(
    pair: OperatorPair,
    ip: InnerProduct | None = None,
    k_max: int | None = None,
    tol: Tolerance | None = None,
) -> OperatorChain:
    """Orthonormalise the Krylov chain seeded by eta.

    Iterates W_k = L O_k - b_k O_{k-1}, b_{k+1} = |W_k|, stopping at
    k_max, at the dimension bound dim**2, or when b_{k+1} is declared
    zero by the tolerance.
    """
    ctx = pair.ctx
    ip = ip or trace_inner(pair)
    tol = tol or ctx.default_tolerance()
    support = SupportBasis(pair, ip) if pair.h.ndim == 1 else None
    cap = pair.dim * pair.dim
    if support is not None:
        # the chain never leaves the eta support
        cap = min(cap, len(support.index))
    k_max = cap if k_max is None else min(k_max, cap)

    if ctx.is_exact:
        return _lanczos_exact(pair, ip, k_max, support)

    with ctx.work():
        if support is None:
            seed = pair.eta
            apply_l = lambda v: liouville(pair.h, v)
            dot = lambda u, v: inner(ip, u, v)
        else:
            seed = support.gather(pair.eta)
            apply_l = lambda v: support.freq * v
            dot = support.dot
        nrm2 = dot(seed, seed)
        if ctx.is_zero(nrm2, tol):
            raise ZeroEta("eta has zero norm")
        o_prev = None
        o_cur = seed / ctx.sqrt(nrm2)
        ops = [o_cur]
        bs = []
        stopped = False
        while len(bs) < k_max:
            w = apply_l(o_cur)
            if o_prev is not None:
                w = w - o_prev * bs[-1]
            # full reorthogonalisation: thermal weights make the inner
            # product extremely ill-conditioned, and the bare three-term
            # recurrence would drift into ghost directions near the end
            # of the chain
            for o_j in ops:
                w = w - o_j * dot(o_j, w)
            b2 = dot(w, w)
            b = ctx.sqrt(b2)
            if ctx.is_zero(b, tol):
                stopped = True
                break
            o_prev, o_cur = o_cur, w / b
            ops.append(o_cur)
            bs.append(b)
        if support is not None:
            ops = [support.scatter(v, ctx) for v in ops]
        return OperatorChain(
            ops=ops,
            b_squared=[v * v for v in bs],
            stopped=stopped,
            ctx=ctx,
            b=bs,
        )


def _lanczos_exact(
    pair: OperatorPair,
    ip: InnerProduct,
    k_max: int,
    support: "SupportBasis | None" = None,
) -> OperatorChain:
    """Unnormalised three-term recurrence V_{k+1} = L V_k - b_k^2 V_{k-1}.

    With V_k = (b_1 ... b_k |eta|) O_k the squared norms nu_k satisfy
    b_k^2 = nu_k / nu_{k-1}, all rational, and the stop test is V = 0.
    """
    if support is None:
        v_cur = pair.eta
        apply_l = lambda v: liouville(pair.h, v)
        dot = lambda u, v: inner(ip, u, v)
    else:
        v_cur = support.gather(pair.eta)
        apply_l = lambda v: support.freq * v
        dot = support.dot
    v_prev = None
    nu_cur = dot(v_cur, v_cur)
    if nu_cur == 0:
        raise ZeroEta("eta has zero norm")
    ops = [v_cur]
    nus = [nu_cur]
    b2s = []
    stopped = False
    while len(b2s) < k_max:
        w = apply_l(v_cur)
        if v_prev is not None:
            w = w - v_prev * b2s[-1]
        nu_next = dot(w, w)
        if nu_next == 0:
            stopped = True
            break
        b2s.append(nu_next / nu_cur)
        nus.append(nu_next)
        v_prev, v_cur = v_cur, w
        nu_cur = nu_next
        ops.append(v_cur)
    if support is not None:
        ops = [support.scatter(v, pair.ctx) for v in ops]
    return OperatorChain(
        ops=ops,
        b_squared=b2s,
        stopped=stopped,
        ctx=pair.ctx,
        norms_sq=nus,
    )


# ---------------------------------------------------------------------------
# Heisenberg evolution oracle
# ---------------------------------------------------------------------------


def matrix_exponential_conjugate(h: np.ndarray, v: np.ndarray, t, ctx: Context) -> np.ndarray:
    """exp(iHt) V exp(-iHt) via the eigenbasis phases (bigreal only).

    With H already diagonal (1-D spectrum array) the result is the
    elementwise phase twist exp(i(E_a - E_b)t) V_ab; a dense symmetric H
    is eigendecomposed first.
    """
    if ctx.is_exact:
        raise ModeError("Heisenberg evolution needs bigreal mode")
    with ctx.work():
        t = ctx.num(t)
        if h.ndim == 1:
            return _phase_conjugate(h, v, t, ctx)
        energies, q = eig_symmetric(h, ctx)
        vq = q.T @ v @ q
        wq = _phase_conjugate(energies, vq, t, ctx)
        return q @ wq @ q.T


def _phase_conjugate(energies, v, t, ctx):
    n = len(energies)
    out = np.empty((n, n), dtype=object)
    phases = [ctx.expj(e * t) for e in energies]
    for a in range(n):
        for b in range(n):
            out[a, b] = phases[a] * phases[b].conjugate() * v[a, b]
    return out


def eig_symmetric(h: np.ndarray, ctx: Context):
    """Eigendecomposition of a real symmetric matrix, sorted ascending.

    Returns (eigenvalues 1-D object array, orthogonal matrix Q) with
    h = Q diag(E) Q^T.
    """
    if ctx.is_exact:
        raise ModeError("eigendecomposition needs bigreal mode")
    n = h.shape[0]
    with ctx.work():
        m = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                m[i, j] = h[i, j]
        evals, q = mp.eigsy(m)
        order = sorted(range(n), key=lambda i: evals[i])
        energies = np.empty(n, dtype=object)
        qm = np.empty((n, n), dtype=object)
        for col, i in enumerate(order):
            energies[col] = evals[i]
            for r in range(n):
                qm[r, col] = q[r, i]
        return energies, qm


# ---------------------------------------------------------------------------
# Structure checks used by the property tests and the verify suite
# ---------------------------------------------------------------------------


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
            if isinstance(lhs, mpmath.mpc):
                lhs = lhs.conjugate()
            if metric is not None:
                lhs = lhs * metric[b]
                rhs = rhs * metric[a]
            d = abs(rhs - sign * lhs)
            if d > worst:
                worst = d
    return worst


def random_metric_hermitian(n: int, ctx: Context, rng, metric=None) -> np.ndarray:
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
# Exact/dense linear algebra helpers
# ---------------------------------------------------------------------------


def determinant(m: np.ndarray, ctx: Context):
    """Determinant by fraction-free-ish Gaussian elimination.

    Exact mode pivots on any nonzero entry; bigreal uses partial
    pivoting on magnitude.
    """
    a = np.array(m, dtype=object)
    n = a.shape[0]
    with ctx.work():
        det = ctx.one
        for col in range(n):
            piv = None
            if ctx.is_exact:
                for r in range(col, n):
                    if a[r, col] != 0:
                        piv = r
                        break
            else:
                piv = max(range(col, n), key=lambda r: abs(a[r, col]))
                if a[piv, col] == 0:
                    piv = None
            if piv is None:
                return ctx.zero
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                det = -det
            det = det * a[col, col]
            inv = 1 / a[col, col]
            for r in range(col + 1, n):
                if a[r, col] != 0:
                    f = a[r, col] * inv
                    a[r, col:] = a[r, col:] - a[col, col:] * f
        return det


def solve_consistent(columns: list, target: np.ndarray, ctx: Context, tol: Tolerance | None = None):
    """Solve an overdetermined linear system sum_j c_j columns[j] = target.

    All arrays are flattened.  Returns the coefficient list if the system
    is consistent (exactly in exact mode, within tolerance otherwise),
    else None.
    """
    tol = tol or ctx.default_tolerance()
    cols = [np.asarray(c, dtype=object).ravel() for c in columns]
    rhs = np.asarray(target, dtype=object).ravel()
    mrows = len(rhs)
    k = len(cols)
    with ctx.work():
        a = np.empty((mrows, k + 1), dtype=object)
        for j, c in enumerate(cols):
            a[:, j] = c
        a[:, k] = rhs
        row = 0
        pivots = []
        for col in range(k):
            piv = None
            best = None
            for r in range(row, mrows):
                val = a[r, col]
                if ctx.is_exact:
                    if val != 0:
                        piv = r
                        break
                else:
                    if best is None or abs(val) > best:
                        best = abs(val)
                        piv = r
            if piv is None or (not ctx.is_exact and ctx.is_zero(a[piv, col], tol)):
                continue
            a[[row, piv]] = a[[piv, row]]
            inv = 1 / a[row, col]
            a[row, :] = a[row, :] * inv
            for r in range(mrows):
                if r != row and a[r, col] != 0:
                    a[r, :] = a[r, :] - a[row, :] * a[r, col]
            pivots.append(col)
            row += 1
            if row == mrows:
                break
        # consistency: remaining rows must have zero rhs
        scale = max([abs(v) for v in rhs] + [ctx.one])
        for r in range(row, mrows):
            resid = a[r, k]
            if ctx.is_exact:
                if resid != 0:
                    return None
            elif abs(resid) > tol.rel_eps * scale:
                return None
        coeffs = [ctx.zero] * k
        for r, col in enumerate(pivots):
            coeffs[col] = a[r, k]
        # verify (the elimination above already guarantees pivot rows)
        recon = np.array([ctx.zero] * mrows, dtype=object)
        for j, c in enumerate(cols):
            recon = recon + c * coeffs[j]
        for i in range(mrows):
            diff = recon[i] - rhs[i]
            if ctx.is_exact:
                if diff != 0:
                    return None
            elif abs(diff) > 4 * tol.rel_eps * scale:
                return None
        return coeffs

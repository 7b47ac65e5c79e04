"""Finite-dimensional operator algebra for the solvable systems.

Matrices are numpy arrays with ``dtype=object`` so that entries can be
exact rationals or mpmath numbers.  An :class:`OperatorPair` holds H in
one of two representations, picked once from the shape of ``h``:

* a spectrum -- H diagonal, stored as the 1-D array of its energies
  (the energy basis).  Functions of H are 1-D arrays of their values, and
  an operator is the vector of its entries on the eta support plus the
  diagonal, where the closure and Heisenberg checks run elementwise.  The
  moment oracle, the Lanczos chain and the profile fold that support to
  one entry per mirror pair (:class:`SupportBasis`).
* a banded symmetric matrix -- the tridiagonal position-basis H.
  Functions of H are dense matrices.  Spectral work happens in the
  eigenbasis: the eigendecomposition (E, Q) is computed at most once per
  pair, and operators move there, Q^T V Q, and back, Q V Q^T, through
  :meth:`~krylov_exact.numeric.Context.matmul`, which rounds each entry
  once.  The Heisenberg check and the profile move their
  time-independent operators once and bring one result per time back.

A matrix Hamiltonian is applied through its nonzero diagonals: with
bandwidths w_H and w_V, :func:`liouville` forms [H, V] from
O(n * w_H * (w_H + w_V)) scalar products instead of the O(n^3) of a
dense product.  The position-basis H is tridiagonal (w_H = 1) and eta
diagonal, so L^k eta has bandwidth k, and the moment oracle, the Lanczos
chain and the profile of a matrix H work in :class:`_BandSpace`: a
vector is its entries within W = w_eta + steps * w_H of the diagonal,
for the number of commutators the caller applies, and a commutator
reads the vector's bandwidth off its nonzero entries.

Every inner product (V, W) = sum_ab weight_ab conj(V_ab) W_ab is one
:meth:`~krylov_exact.numeric.Context.dot` of the covector weight*conj(V)
with W.  In bigreal mode that dot forms the products exactly and rounds
the sum once, so a dot over the band equals the dot over every entry.
The Lanczos spaces hand out those covectors (``dual``), so the chain
keeps one beside each of its vectors and the profile forms them once for
all times.  In exact mode the band space holds each vector as integer
numerators over one denominator: commutators run the same kernel on the
integer numerators of H, and a dot is one integer sum that becomes a
rational only at the end, so no rational is formed entry by entry.

The energy-basis fold
---------------------
L multiplies entry (a, b) by E_a - E_b and its mirror (b, a) by the
negative, so L^k eta has the parity V_ba = (-1)^k r_ab V_ab with the
mirror ratio r_ab = eta_ba / eta_ab; this is why odd moments vanish.
:class:`SupportBasis` stores one entry per mirror pair plus the diagonal
and restores the mirrors from a vector's parity.  Dots of equal parity
weigh an entry with w+ = w_ab + w_ba r_ab^2, dots of opposite parity
(the oracle's odd moments) with w- = w_ab - w_ba r_ab^2.  The Lanczos
chain needs every w- to vanish, which makes vectors of opposite parity
orthogonal, so it reorthogonalises against only those of its own
parity.  For the pairs :func:`energy_pair` builds in bigreal, r = 1 and
w+ = 2 w exactly, so the folded sums are the unfolded ones bit for bit.

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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .catalog import SystemSpec, _polyval
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    MirrorAsymmetry,
    ModeError,
    NegativeUnderSquareRoot,
    NotFiniteSystem,
    TruncationTooSmall,
    ZeroEta,
)
from .numeric import Context, exact_sqrt, rational

POSITION = "position"
ENERGY = "energy"


def zeros(n: int, ctx: Context) -> np.ndarray:
    m = np.empty((n, n), dtype=object)
    m[:] = ctx.zero
    return m


def conjugate(mat: np.ndarray) -> np.ndarray:
    flat = [v.conjugate() if hasattr(v, "_mpc_") else v for v in mat.ravel()]
    return np.array(flat, dtype=object).reshape(mat.shape)


def max_abs(mat: np.ndarray):
    return max(abs(v) for v in np.asarray(mat, dtype=object).ravel())


@dataclass
class OperatorPair:
    """A Hamiltonian/eta pair in one basis, with optional rational metric.

    ``h`` is a 1-D array of eigenvalues (energy basis) or a 2-D matrix
    (position basis); ``rep`` is the matching representation of H, and
    :attr:`basis` names the basis, read off the same shape.
    ``metric`` is None for an orthonormal basis, or the diagonal g of the
    similarity that maps the stored matrices back to the honest symmetric
    representation.
    """

    h: np.ndarray
    eta: np.ndarray
    ctx: Context
    metric: np.ndarray | None = None
    spec: SystemSpec | None = None
    rep: _Spectrum | _Banded = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.ctx.is_exact:
            # entries made elsewhere (ints, global mpmath) take the context's
            # class; otherwise arithmetic on them rounds at their own precision
            to_ctx = np.vectorize(self.ctx.num, otypes=[object])
            self.h, self.eta = to_ctx(self.h), to_ctx(self.eta)
        self.rep = _Spectrum(self.h, self.ctx, self.eta) if self.h.ndim == 1 else _Banded(self.h, self.ctx, self.eta)

    @property
    def basis(self) -> str:
        return ENERGY if self.h.ndim == 1 else POSITION

    @property
    def dim(self) -> int:
        return self.eta.shape[0]


@dataclass
class InnerProduct:
    """Elementwise-weight form of an operator inner product.

    (V, W) = sum_ab weight[a,b] * conj(V[a,b]) * W[a,b].  The weight is
    kept factored: the trace inner product has unit weights, or g_b/g_a
    in the rescaled exact representation with metric g; the Wightman one
    has h_a * h_b / Z with the half Boltzmann factors h_a =
    exp(-beta*E_a/2) and Z = sum_a h_a^2, times g_b/g_a under a metric.
    The trace product is the one without ``half``.  :meth:`entries`
    evaluates single entries from the factors, as the operator spaces
    need them; the dense :attr:`weight` is built on first use, by
    :func:`inner`.
    """

    ctx: Context
    dim: int
    beta: object | None = None
    half: np.ndarray | None = None
    z: object | None = None
    metric: np.ndarray | None = None
    _weight: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def entries(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """weight[rows[s], cols[s]] for each s: h_a*h_b/z, then *g_b/g_a."""
        g = self.metric
        if self.half is None:
            if g is None:
                return np.full(len(rows), self.ctx.one, dtype=object)
            return g[cols] / g[rows]
        w = self.half[rows] * self.half[cols] / self.z
        return w if g is None else w * g[cols] / g[rows]

    @property
    def weight(self) -> np.ndarray:
        """The dense dim x dim weight."""
        if self._weight is None:
            rows, cols = np.indices((self.dim, self.dim))
            self._weight = self.entries(rows.ravel(), cols.ravel()).reshape(self.dim, self.dim)
        return self._weight


def trace_inner(pair: OperatorPair) -> InnerProduct:
    return InnerProduct(pair.ctx, pair.dim, metric=pair.metric)


def wightman_inner(pair: OperatorPair, beta) -> InnerProduct:
    """Thermal inner product; requires the energy basis for the weights."""
    if pair.basis != ENERGY:
        raise BasisMismatch("Wightman inner product needs the energy basis")
    ctx = pair.ctx
    beta = ctx.num(beta)
    if not beta > 0:
        raise BasisMismatch("beta must be positive")
    half = np.array([ctx.exp(-beta * e / 2) for e in pair.h], dtype=object)
    return InnerProduct(ctx, pair.dim, beta, half=half, z=ctx.dot(half, half), metric=pair.metric)


def inner(ip: InnerProduct, v: np.ndarray, w: np.ndarray):
    """(V, W) under the given inner product."""
    if v.shape != w.shape or v.shape != (ip.dim, ip.dim):
        raise DimensionMismatch(f"shapes {v.shape}, {w.shape}, {(ip.dim, ip.dim)}")
    return ip.ctx.dot((ip.weight * conjugate(v)).ravel(), w.ravel())


def _bandwidth(m: np.ndarray) -> int:
    """Largest |a - b| over the nonzero entries of a square matrix (0 if none)."""
    rows, cols = np.nonzero(m)
    return int(np.abs(rows - cols).max()) if rows.size else 0


def _band(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the entries of an n x n matrix with |a - b| <= width,
    in row-major order; width n - 1 gives every entry."""
    index = np.arange(n)
    return np.nonzero(np.abs(np.subtract.outer(index, index)) <= width)


def _diagonals(h: np.ndarray, zero) -> np.ndarray:
    """The nonzero diagonals of H, padded by n zeros on each side:
    hd[w_H + d, n + a] = H[a, a + d] for |d| <= w_H."""
    n, w_h = len(h), _bandwidth(h)
    rows, cols = _band(n, w_h)
    hd = np.full((2 * w_h + 1, 3 * n), zero, dtype=object)
    hd[w_h + cols - rows, n + rows] = h[rows, cols]
    return hd


def _band_commutator(hd: np.ndarray, vec: np.ndarray, rows: np.ndarray, cols: np.ndarray, zero) -> np.ndarray:
    """[H, V] on the band (rows, cols) of :func:`_band`, which must hold
    it, for V given on that band and H by its diagonals (:func:`_diagonals`).

    With V padded to P[a, W + e] = V[a, a + e], each diagonal d of H adds
    one block to HV and one to VH, limited to the bandwidth w_V of V read
    off its nonzero entries.  Each entry is summed over ascending d
    exactly as ``h @ v - v @ h`` sums it, less terms that are exact zeros,
    so results equal the dense product bit for bit, also in bigreal mode.
    """
    w_h, n = len(hd) // 2, hd.shape[1] // 3
    offsets = cols - rows
    width = int(np.abs(offsets).max())
    nonzero = np.flatnonzero(vec)
    w_v = int(np.abs(offsets[nonzero]).max()) if nonzero.size else 0
    at = rows * (2 * width + 1) + width + offsets
    p = np.full(n * (2 * width + 1), zero, dtype=object)
    p[at] = vec
    p = p.reshape(n, 2 * width + 1)
    hv, vh = np.full(p.shape, zero, dtype=object), np.full(p.shape, zero, dtype=object)
    for d in range(-w_h, w_h + 1):
        # (HV)[a, a+e] += H[a, a+d] V[a+d, a+e] for |e - d| <= w_V
        lo, hi = max(0, -d), min(n, n - d)
        e0, e1 = max(d - w_v, -width) + width, min(d + w_v, width) + width + 1
        hv[lo:hi, e0:e1] += hd[w_h + d, n + lo:n + hi, None] * p[lo + d:hi + d, e0 - d:e1 - d]
        # (VH)[a, a+e] += V[a, a+e+d] H[a+e+d, a+e] for |e + d| <= w_V: the
        # H factors of row a are a window of diagonal -d
        e0, e1 = max(-d - w_v, -width) + width, min(-d + w_v, width) + width + 1
        windows = np.lib.stride_tricks.sliding_window_view(hd[w_h - d], e1 - e0)
        vh[:, e0:e1] += p[:, e0 + d:e1 + d] * windows[n + e0 + d - width:2 * n + e0 + d - width]
    return hv.ravel()[at] - vh.ravel()[at]


def liouville(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Commutator [H, V]; elementwise when H is a diagonal spectrum array,
    else the band kernel (:func:`_band_commutator`) on every entry, which
    equals ``h @ v - v @ h`` bit for bit."""
    if h.ndim == 1:
        if v.shape != (h.shape[0], h.shape[0]):
            raise DimensionMismatch(f"spectrum dim {h.shape[0]} vs matrix {v.shape}")
        return np.subtract.outer(h, h) * v
    if h.shape != v.shape:
        raise DimensionMismatch(f"{h.shape} vs {v.shape}")
    n = h.shape[0]
    zero = 0 * h[0, 0] * v[0, 0]
    rows, cols = _band(n, n - 1)
    return _band_commutator(_diagonals(h, zero), v.ravel(), rows, cols, zero).reshape(n, n)


# ---------------------------------------------------------------------------
# The two representations of H
# ---------------------------------------------------------------------------


def _unchanged(v: np.ndarray) -> np.ndarray:
    return v


class _Spectrum:
    """H diagonal, stored as the 1-D array of its energies.

    An operator is the 1-D vector of its entries on the row-major entries
    of (eta != 0) plus the diagonal, found once; without eta, on every
    entry (the eigenbasis of a matrix H).  L V, V f(H), V + f(H) and the
    phase twist act entry by entry and keep exact zeros zero, so the
    closure relation and exp(iHt) eta exp(-iHt) live on those entries.  A
    function f(H) is the 1-D array of its values on the spectrum.
    """

    def __init__(self, h: np.ndarray, ctx: Context, eta: np.ndarray | None = None):
        self.h, self.ctx = h, ctx
        entries = np.ones((len(h), len(h)), dtype=bool) if eta is None else eta != 0
        np.fill_diagonal(entries, True)
        self.rows, self.cols = np.nonzero(entries)
        self.diag = np.flatnonzero(self.rows == self.cols)

    def gather(self, mat: np.ndarray) -> np.ndarray:
        return mat[self.rows, self.cols]

    def scatter(self, vec: np.ndarray) -> np.ndarray:
        """The matrix of VEC: off the list, exact zeros of its entries' kind."""
        out = np.full((len(self.h), len(self.h)), self.ctx.zero * vec[0], dtype=object)
        out[self.rows, self.cols] = vec
        return out

    def holding(self, mat: np.ndarray) -> _Spectrum:
        """The same H on the entries of MAT, which may leave eta's support."""
        return _Spectrum(self.h, self.ctx, mat)

    def liouville(self, v: np.ndarray) -> np.ndarray:
        return (self.h[self.rows] - self.h[self.cols]) * v

    def poly(self, coeffs) -> np.ndarray:
        return np.array([_polyval(coeffs, e) for e in self.h], dtype=object)

    def right_mul(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        """V f(H)."""
        return v * f[self.cols]

    def mul(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """f(H) g(H)."""
        return f * g

    def add(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        """V + f(H)."""
        out = v.copy()
        out[self.diag] = v[self.diag] + f
        return out

    def as_function(self, m: np.ndarray):
        """(f, off): the function of H on the diagonal of M, and the
        largest |M_ab| off it, which a function of H must not have."""
        off = np.delete(m, self.diag)
        return m[self.diag], max((abs(v) for v in off), default=self.ctx.zero)

    def conjugate_exp(self, v: np.ndarray, t) -> np.ndarray:
        """exp(iHt) V exp(-iHt): the phase twist (p_a conj(p_b)) V_ab with
        the phases p = exp(iEt)."""
        phases = np.array([self.ctx.expj(e * t) for e in self.h], dtype=object)
        conj = np.array([p.conjugate() for p in phases], dtype=object)
        return phases[self.rows] * conj[self.cols] * v

    def eigenbasis(self) -> tuple[_Spectrum, object, object]:
        """(spectrum, to, back): H is diagonal already, so itself and the
        identity both ways."""
        return self, _unchanged, _unchanged

    def space(self, pair: OperatorPair, ip: InnerProduct, steps: int | None) -> SupportBasis:
        return SupportBasis(pair, ip)


class _Banded:
    """H as a symmetric banded matrix (tridiagonal in the position basis).

    An operator, and a function f(H), is a dense matrix.  Spectral work
    happens in the eigenbasis H = Q diag(E) Q^T, computed on first use and
    kept, so each pair runs :func:`eig_symmetric` at most once.  The
    band data of the pair's operator spaces (:attr:`bands`) are kept the
    same way.
    """

    def __init__(self, h: np.ndarray, ctx: Context, eta: np.ndarray):
        self.h, self.ctx, self.eta = h, ctx, eta
        self._eigen = None

    @cached_property
    def bands(self) -> tuple[np.ndarray, int, int]:
        """(hd, d_H, w_eta): the padded diagonals of H (:func:`_diagonals`),
        in exact mode as integer numerators over d_H (else d_H = 1), and
        the bandwidth of eta."""
        hd = _diagonals(self.h, self.ctx.zero)
        hd, d_h = _integer_numerators(hd) if self.ctx.is_exact else (hd, 1)
        return hd, d_h, _bandwidth(self.eta)

    gather = scatter = staticmethod(_unchanged)

    def holding(self, mat: np.ndarray) -> _Banded:
        return self

    def liouville(self, v: np.ndarray) -> np.ndarray:
        return liouville(self.h, v)

    def eigenbasis(self) -> tuple[_Spectrum, object, object]:
        """(spectrum, to, back): the eigenvalues E as a :class:`_Spectrum` on
        every entry, V -> Q^T V Q into it (row-major) and V -> Q V Q^T back,
        each two :meth:`~krylov_exact.numeric.Context.matmul` products,
        which round every entry once."""
        if self._eigen is None:
            energies, q = eig_symmetric(self.h, self.ctx)
            ctx, qt, n = self.ctx, q.T, len(energies)
            self._eigen = (
                _Spectrum(energies, ctx),
                lambda v: ctx.matmul(ctx.matmul(qt, v), q).ravel(),
                lambda v: ctx.matmul(ctx.matmul(q, v.reshape(n, n)), qt),
            )
        return self._eigen

    def poly(self, coeffs) -> np.ndarray:
        acc, diag = zeros(len(self.h), self.ctx), np.diag_indices(len(self.h))
        for k, c in enumerate(reversed(coeffs)):  # Horner: acc = acc H + c
            acc = acc @ self.h if k else acc
            acc[diag] = acc[diag] + c
        return acc

    def right_mul(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        return v @ f

    mul = right_mul

    def add(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        return v + f

    def as_function(self, m: np.ndarray):
        """A matrix commuting with H already is the function of H."""
        return m, self.ctx.zero

    def space(self, pair: OperatorPair, ip: InnerProduct, steps: int | None) -> _BandSpace:
        return _BandSpace(pair, ip, steps)


# ---------------------------------------------------------------------------
# Representation builders
# ---------------------------------------------------------------------------


def build_eta_position(spec: SystemSpec) -> np.ndarray:
    if not spec.is_finite:
        raise NotFiniteSystem(f"{spec.kind.value} has no position lattice")
    m = zeros(spec.dim, spec.ctx)
    np.fill_diagonal(m, [spec.eta(x) for x in range(spec.dim)])
    return m


def position_pair(spec: SystemSpec) -> OperatorPair:
    """Position-basis (H, eta) pair, exact-safe via the metric rescaling."""
    if not spec.is_finite:
        raise NotFiniteSystem(f"{spec.kind.value} has no position lattice")
    ctx = spec.ctx
    n = spec.dim
    h = zeros(n, ctx)
    np.fill_diagonal(h, [spec.B(x) + spec.D(x) for x in range(n)])
    upper, lower = [spec.B(x) for x in range(n - 1)], [spec.D(x + 1) for x in range(n - 1)]
    metric = _off_diagonals(h, upper, lower, -1, ctx, "B(x)*D(x+1)")
    return OperatorPair(h, build_eta_position(spec), ctx, metric, spec)


def _off_diagonals(m, upper, lower, sign, ctx, what):
    """Fill the first off-diagonals of the tridiagonal ``m``.

    Entry k couples levels k, k+1 with strength sqrt(upper[k] * lower[k]).
    Both entries get sign * sqrt(...), unless in exact mode a root is
    irrational: then they get sign * upper[k] above and sign * lower[k]
    below, similar to the symmetric form by diag(g), and the metric g is
    returned.  Returns None for the symmetric form.  ``what`` names the
    product in the error for a negative one.
    """
    prods = [u * w for u, w in zip(upper, lower)]
    if any(v < 0 for v in prods):
        raise NegativeUnderSquareRoot(f"{what} negative; invalid parameters")
    if not ctx.is_exact:
        roots = [ctx.sqrt(v) for v in prods]
    else:
        roots = [exact_sqrt(v) for v in prods]
        if any(r is None for r in roots):
            g = np.empty(len(prods) + 1, dtype=object)
            g[0] = ctx.one
            for k, (u, w) in enumerate(zip(upper, lower)):
                m[k, k + 1] = sign * u
                m[k + 1, k] = sign * w
                g[k + 1] = g[k] * w / u
            return g
    for k, r in enumerate(roots):
        m[k, k + 1] = m[k + 1, k] = sign * r
    return None


def energy_pair(spec: SystemSpec, n_max: int | None = None) -> OperatorPair:
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
    energies = np.array([spec.energy(k) for k in range(dim)], dtype=object)
    eta = zeros(dim, ctx)
    np.fill_diagonal(eta, [spec.eta_diag(k) for k in range(dim)])
    upper = [spec.ac_product(k) for k in range(dim - 1)]
    metric = _off_diagonals(eta, upper, [ctx.one] * (dim - 1), 1, ctx, "A(n)*C(n+1)")
    return OperatorPair(energies, eta, ctx, metric, spec)


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


def _check_dims(pair: OperatorPair, ip: InnerProduct) -> None:
    if ip.dim != pair.dim:
        raise DimensionMismatch(f"inner product dim {ip.dim} vs pair dim {pair.dim}")


class SupportBasis:
    """The eta support, folded to one entry per mirror pair.

    With H diagonal the commutator acts elementwise, [H, V]_ab =
    (E_a - E_b) V_ab, so every operator of the Krylov chain lives on the
    support of eta, and the mirror entry (b, a) of L^k eta is
    (-1)^k r_ab times the entry (a, b), with the mirror ratio
    r_ab = eta_ba / eta_ab (zero where the mirror is zero).  The basis
    therefore keeps the diagonal and one entry of each mirror pair {(a, b),
    (b, a)} -- the upper one, or the lower one where the upper is zero --
    in the row-major order of eta, and a vector's parity k mod 2 restores
    the rest (:meth:`scatter`).  This is the fold of a symmetric support
    measure into ± frequency pairs (Chihara, *An Introduction to
    Orthogonal Polynomials*, 1978, ch. I).

    Inner products fold with it.  Two vectors of equal parity pair entry
    (a, b) with the weight w+ = w_ab + w_ba r_ab^2 (:meth:`dot`, w+ = w_aa
    on the diagonal); two of opposite parity with w- = w_ab - w_ba r_ab^2
    (:meth:`cross_dot`, zero on the diagonal, where an odd vector
    vanishes).  The oracle's odd moments are cross-parity dots, so an eta
    that is not self-adjoint under the inner product still gets its
    nonzero odd moments.  When every w- vanishes (the trace and Wightman
    products of :func:`energy_pair`), vectors of opposite parity are
    orthogonal and the Lanczos chain reorthogonalises each new vector
    against only every second earlier one.  ``size`` is the unfolded
    support count, which bounds the chain length.
    """

    def __init__(self, pair: OperatorPair, ip: InnerProduct):
        _check_dims(pair, ip)
        ctx, eta = pair.ctx, pair.eta
        self.dim = pair.dim
        self.ctx = ctx
        nonzero = pair.rep.gather(eta) != 0  # the entry list less diagonal zeros
        rows, cols = pair.rep.rows[nonzero], pair.rep.cols[nonzero]
        self.size = len(rows)
        keep = (rows <= cols) | (eta[cols, rows] == 0)
        r, c = self.rows, self.cols = rows[keep], cols[keep]
        diag = r == c
        self.freq = pair.h[r] - pair.h[c]
        self.ratio = eta[c, r] / eta[r, c]
        # the weights an overlap takes from a representative entry and from
        # its mirror; the diagonal is its own mirror and counts once
        self.weight = ip.entries(r, c)
        self.mirror_weight = np.where(diag, ctx.zero, ip.entries(c, r))
        mirror_sq = self.mirror_weight * self.ratio * self.ratio
        self.wplus = self.weight + mirror_sq
        self.wminus = np.where(diag, ctx.zero, self.weight - mirror_sq)
        self.mirrors = np.flatnonzero(~diag & (self.ratio != 0))

    def gather(self, mat: np.ndarray) -> np.ndarray:
        return mat[self.rows, self.cols]

    def scatter(self, vec: np.ndarray, parity: int = 0) -> np.ndarray:
        """The full matrix of a folded vector of the given parity."""
        out = zeros(self.dim, self.ctx)
        out[self.rows, self.cols] = vec
        m = self.mirrors
        mirror = self.ratio[m] * vec[m]
        out[self.cols[m], self.rows[m]] = -mirror if parity else mirror
        return out

    def liouville(self, vec: np.ndarray) -> np.ndarray:
        return self.freq * vec

    def dual(self, u: np.ndarray) -> np.ndarray:
        """The covector of U against vectors of its parity: (U, V) =
        ctx.dot(dual(U), V).  Chain vectors on the support are real, so
        only the weight enters."""
        return self.wplus * u

    def dot(self, u: np.ndarray, v: np.ndarray):
        """(U, V) for U and V of equal parity."""
        return self.ctx.dot(self.dual(u), v)

    def cross_dot(self, u: np.ndarray, v: np.ndarray):
        """(U, V) for U and V of opposite parity."""
        return self.ctx.dot(self.wminus * u, v)

    def lanczos_stride(self) -> int:
        """Check that the chain may run here and return the stride of its
        reorthogonalisation.

        The chain takes a_n = (O_n, L O_n) = 0, a cross-parity dot, so
        every w- must vanish: |w-| <= rel_eps * |w+|, which is w- = 0 in
        exact mode.  Vectors of opposite parity are then orthogonal and
        only every second earlier vector is needed.
        """
        rel_eps = self.ctx.default_tolerance().rel_eps
        for s, (wm, wp) in enumerate(zip(self.wminus, self.wplus)):
            if abs(wm) > rel_eps * abs(wp):
                a, b = self.rows[s], self.cols[s]
                raise MirrorAsymmetry(
                    f"eta entries ({a}, {b}) and ({b}, {a}) are not mirror images under the "
                    f"inner product (w- = {self.ctx.fmt(wm)}), so the chain would need a_n != 0"
                )
        return 2

    def overlaps(self, ops: list):
        """t -> [(O_n, O_0(t))].  O_0(t) is a phase twist on the support:
        with c_s and c_m the weighted products of O_n and O_0 at the
        representative entry s and at its mirror, each overlap is
        sum_s (c_s + c_m) cos(omega_s t) + i (c_s - c_m) sin(omega_s t),
        two real dots.  The phase of each distinct frequency omega_s is
        computed once per time; no parity is assumed."""
        here, there = (self.rows, self.cols), (self.cols, self.rows)
        o0, o0_mirror = ops[0][here], ops[0][there]
        even, odd = [], []
        for o_n in ops:
            c = self.weight * o_n[here] * o0
            c_mirror = self.mirror_weight * o_n[there] * o0_mirror
            even.append(c + c_mirror)
            odd.append(c - c_mirror)
        # mpf keys compare by exact value; entry s takes phase slot[s]
        position = {}
        slot = [position.setdefault(f, len(position)) for f in self.freq]
        distinct = list(position)
        ctx = self.ctx

        def at(t):
            phases = [ctx.expj(f * t) for f in distinct]
            cos = [phases[k].real for k in slot]
            sin = [phases[k].imag for k in slot]
            return [
                ctx.mp.make_mpc((ctx.dot(e, cos)._mpf_, ctx.dot(o, sin)._mpf_))
                for e, o in zip(even, odd)
            ]

        return at


def _integer_numerators(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(num, den): rationals as integer numerators over the least common
    denominator of the nonzero ones, num[i] / den == values[i]."""
    flat = values.ravel()
    nz = np.flatnonzero(flat)
    picked = flat[nz]
    dens = [int(v.denominator) for v in picked]
    den = math.lcm(*dens)
    num = np.zeros(flat.size, dtype=object)
    num[nz] = np.array([int(v.numerator) * (den // d) for v, d in zip(picked, dens)], dtype=object)
    return num.reshape(values.shape), den


class _Scaled:
    """An exact vector num / den: Python int numerators over one positive
    denominator, in lowest terms (den and the numerators share no
    factor).  Supports the two operations of the exact chain, ``u - v``
    and ``u * c`` for a rational c."""

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int):
        g = math.gcd(den, *num.tolist())
        self.num = num // g if g > 1 else num
        self.den = den // g

    def __sub__(self, other: _Scaled) -> _Scaled:
        den = math.lcm(self.den, other.den)
        return _Scaled(self.num * (den // self.den) - other.num * (den // other.den), den)

    def __mul__(self, c) -> _Scaled:
        return _Scaled(self.num * int(c.numerator), self.den * int(c.denominator))


class _BandSpace:
    """The operator space of a matrix H, in both modes: a vector is its
    row-major entries within W = min(w_eta + steps * w_H, n - 1) of the
    diagonal (every entry when ``steps`` is None), and a commutator is
    :func:`_band_commutator`.  Nothing is folded: every dot is
    :meth:`dot`, and the chain reorthogonalises against every earlier
    vector.  The modes differ only in the scalars.  A bigreal vector holds
    mpf entries, and a dot is one fused dot of the covector (:meth:`dual`)
    with V.  An exact vector is a :class:`_Scaled`: H is cleared of
    denominators once per pair (:attr:`_Banded.bands`), h_num / d_H, and
    the band weight (metric factors g_b/g_a included) once per space,
    w_num / d_w; a commutator runs the kernel on the
    numerators over d_H * den, and a dot is one integer sum over
    d_w * den_u * den_v.  Exact values equal those of rational arithmetic.
    The profile evolves O_0 alone, in the eigenbasis of H (:meth:`overlaps`).
    """

    def __init__(self, pair: OperatorPair, ip: InnerProduct, steps: int | None):
        _check_dims(pair, ip)
        n, ctx = pair.dim, pair.ctx
        self.pair, self.ctx, self.exact, self.size = pair, ctx, ctx.is_exact, n * n
        self.hd, self.d_h, w_eta = pair.rep.bands
        width = n - 1 if steps is None else min(w_eta + steps * (len(self.hd) // 2), n - 1)
        self.rows, self.cols = _band(n, width)
        weight = ip.entries(self.rows, self.cols)
        self.weight, self.d_w = _integer_numerators(weight) if self.exact else (weight, 1)

    def gather(self, mat: np.ndarray):
        vec = mat[self.rows, self.cols]
        return _Scaled(*_integer_numerators(vec)) if self.exact else vec

    def scatter(self, vec, parity: int = 0) -> np.ndarray:
        out = zeros(self.pair.dim, self.ctx)
        if self.exact:
            nz = np.flatnonzero(vec.num)
            out[self.rows[nz], self.cols[nz]] = [rational(vec.num[i], vec.den) for i in nz]
        else:
            out[self.rows, self.cols] = vec
        return out

    def liouville(self, vec):
        if self.exact:
            return _Scaled(_band_commutator(self.hd, vec.num, self.rows, self.cols, 0), vec.den * self.d_h)
        return _band_commutator(self.hd, vec, self.rows, self.cols, self.ctx.zero)

    def dual(self, u: np.ndarray) -> np.ndarray:
        """The covector of a bigreal U: the weight times the conjugate of U."""
        return self.weight * conjugate(u)

    def dot(self, u, v):
        if self.exact:
            return rational(self.ctx.dot(self.weight * u.num, v.num), self.d_w * u.den * v.den)
        return self.ctx.dot(self.dual(u), v)

    cross_dot = dot

    def lanczos_stride(self) -> int:
        return 1

    def overlaps(self, ops: list):
        """t -> [(O_n, O_0(t))] through the exponential-conjugation oracle.
        O_0 moves into the eigenbasis of H once, and the covectors of the
        chain are formed once, for all times; each time then costs the
        phase twist of O_0 there and one transform back, read on the band.
        The chain vectors stay in the position basis: moving each of them
        instead would cost two products per vector."""
        duals = [self.dual(self.gather(o_n)) for o_n in ops]
        eigen, to, back = self.pair.rep.eigenbasis()
        o0 = to(ops[0])

        def at(t):
            ot = self.gather(back(eigen.conjugate_exp(o0, t)))
            return [self.ctx.dot(d, ot) for d in duals]

        return at


def operator_lanczos(
    pair: OperatorPair,
    ip: InnerProduct | None = None,
    k_max: int | None = None,
) -> OperatorChain:
    """Orthonormalise the Krylov chain seeded by eta.

    Iterates W_k = L O_k - b_k O_{k-1}, b_{k+1} = |W_k|, stopping at
    k_max, at the dimension of the space the chain lives in (dim**2, or
    the eta support for a diagonal H), or when b_{k+1}
    :meth:`~krylov_exact.numeric.Context.is_zero`.
    """
    ctx = pair.ctx
    ip = ip or trace_inner(pair)
    space = pair.rep.space(pair, ip, k_max)
    k_max = space.size if k_max is None else min(k_max, space.size)
    stride = space.lanczos_stride()

    if ctx.is_exact:
        return _lanczos_exact(space, pair.eta, k_max, ctx)

    seed = space.gather(pair.eta)
    nrm2 = space.dot(seed, seed)
    if ctx.is_zero(nrm2):
        raise ZeroEta("eta has zero norm")
    o_prev = None
    o_cur = seed / ctx.sqrt(nrm2)
    ops = [o_cur]
    # each chain vector's covector, kept beside it: a reorthogonalisation
    # coefficient is then one fused dot
    duals = [space.dual(o_cur)]
    bs = []
    stopped = False
    while len(bs) < k_max:
        w = space.liouville(o_cur)
        if o_prev is not None:
            w = w - o_prev * bs[-1]
        # full reorthogonalisation: thermal weights make the inner
        # product extremely ill-conditioned, and the bare three-term
        # recurrence would drift into ghost directions near the end
        # of the chain.  W has the parity of O_{k+1}; on a folded
        # support the vectors of the other parity are orthogonal to it.
        first = len(ops) % stride
        for o_j, d_j in zip(ops[first::stride], duals[first::stride]):
            w = w - o_j * ctx.dot(d_j, w)
        b2 = space.dot(w, w)
        b = ctx.sqrt(b2)
        if ctx.is_zero(b):
            stopped = True
            break
        o_prev, o_cur = o_cur, w / b
        ops.append(o_cur)
        duals.append(space.dual(o_cur))
        bs.append(b)
    return OperatorChain(
        ops=[space.scatter(v, k % 2) for k, v in enumerate(ops)],
        b_squared=[v * v for v in bs],
        stopped=stopped,
        ctx=ctx,
        b=bs,
    )


def _lanczos_exact(space, eta: np.ndarray, k_max: int, ctx: Context) -> OperatorChain:
    """Unnormalised three-term recurrence V_{k+1} = L V_k - b_k^2 V_{k-1}.

    With V_k = (b_1 ... b_k |eta|) O_k the squared norms nu_k satisfy
    b_k^2 = nu_k / nu_{k-1}, all rational, and the stop test is V = 0.
    """
    v_cur = space.gather(eta)
    v_prev = None
    nu_cur = space.dot(v_cur, v_cur)
    if nu_cur == 0:
        raise ZeroEta("eta has zero norm")
    ops = [v_cur]
    nus = [nu_cur]
    b2s = []
    stopped = False
    while len(b2s) < k_max:
        w = space.liouville(v_cur)
        if v_prev is not None:
            w = w - v_prev * b2s[-1]
        nu_next = space.dot(w, w)
        if nu_next == 0:
            stopped = True
            break
        b2s.append(nu_next / nu_cur)
        nus.append(nu_next)
        v_prev, v_cur = v_cur, w
        nu_cur = nu_next
        ops.append(v_cur)
    return OperatorChain(
        ops=[space.scatter(v, k % 2) for k, v in enumerate(ops)],
        b_squared=b2s,
        stopped=stopped,
        ctx=ctx,
        norms_sq=nus,
    )


# ---------------------------------------------------------------------------
# Heisenberg evolution oracle
# ---------------------------------------------------------------------------


def matrix_exponential_conjugate(pair: OperatorPair, v: np.ndarray, t) -> np.ndarray:
    """exp(iHt) V exp(-iHt) via the eigenbasis phases (bigreal only).

    In the eigenbasis this is the phase twist exp(i(E_a - E_b)t) V_ab.  A
    matrix H moves V there and back, Q^T V Q and Q (.) Q^T, with fused
    products (:meth:`_Banded.eigenbasis`) and the eigendecomposition the
    pair computes once; a spectrum twists V on V's own nonzero entries.
    """
    ctx = pair.ctx
    if ctx.is_exact:
        raise ModeError("Heisenberg evolution needs bigreal mode")
    rep = pair.rep.holding(v)
    eigen, to, back = rep.eigenbasis()
    return rep.scatter(back(eigen.conjugate_exp(to(rep.gather(v)), ctx.num(t))))


def eig_symmetric(h: np.ndarray, ctx: Context):
    """Eigendecomposition of a real symmetric matrix, sorted ascending.

    Returns (eigenvalues 1-D object array, orthogonal matrix Q) with
    h = Q diag(E) Q^T.
    """
    if ctx.is_exact:
        raise ModeError("eigendecomposition needs bigreal mode")
    evals, q = ctx.mp.eigsy(ctx.mp.matrix(h.tolist()))
    order = sorted(range(len(h)), key=lambda i: evals[i])
    return np.array([evals[i] for i in order], dtype=object), np.array(q.tolist(), dtype=object)[:, order]


# ---------------------------------------------------------------------------
# Exact/dense linear algebra helpers
# ---------------------------------------------------------------------------


def determinant(m: np.ndarray, ctx: Context):
    """Determinant by Gaussian elimination with partial pivoting on
    magnitude (in exact mode the pivot does not change the result).
    """
    a = np.array(m, dtype=object)
    n = a.shape[0]
    det = ctx.one
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r, col]))
        if a[piv, col] == 0:
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


def solve_consistent(columns: list, target: np.ndarray, ctx: Context):
    """Solve an overdetermined linear system sum_j c_j columns[j] = target.

    All arrays are flattened.  Elimination pivots on the largest
    magnitude and skips a column whose pivot ``ctx.is_zero``.  Returns the
    coefficient list if the system is consistent, else None: every
    residual within rel_eps * max(|target|, 1) and the reconstruction
    within 4 times that, both exactly zero in exact mode.
    """
    rel_eps = ctx.default_tolerance().rel_eps
    cols = [np.asarray(c, dtype=object).ravel() for c in columns]
    rhs = np.asarray(target, dtype=object).ravel()
    mrows, k = len(rhs), len(cols)
    a = np.column_stack(cols + [rhs])
    row = 0
    pivots = []
    for col in range(k):
        piv = max(range(row, mrows), key=lambda r: abs(a[r, col]))
        if ctx.is_zero(a[piv, col]):
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
    if any(abs(a[r, k]) > rel_eps * scale for r in range(row, mrows)):
        return None
    coeffs = [ctx.zero] * k
    for r, col in enumerate(pivots):
        coeffs[col] = a[r, k]
    # verify (the elimination above already guarantees pivot rows)
    recon = np.array([ctx.zero] * mrows, dtype=object)
    for j, c in enumerate(cols):
        recon = recon + c * coeffs[j]
    if any(abs(x - y) > 4 * rel_eps * scale for x, y in zip(recon, rhs)):
        return None
    return coeffs

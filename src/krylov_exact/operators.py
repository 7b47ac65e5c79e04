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
  Operators are dense matrices; the moment oracle, the Lanczos chain, the
  profile, the closure relation and L^m eta run on bands of H
  (:mod:`~krylov_exact.band`), where functions of H are banded too.
  Spectral work happens in the eigenbasis: the eigendecomposition (E, Q)
  is computed at most once per pair, and operators move there, Q^T V Q,
  a three-factor :meth:`~krylov_exact.numeric.Context.matmul` rounded
  once per entry, and are held there as exact integer mantissas
  (:class:`_Eigenbasis`).  Per time, the closed form, the phase twist
  and their difference are formed exactly and move back, Q X Q^T, in one
  exact product with Q's mantissas, converted once per pair; the
  Heisenberg check reads its largest entry from that exact product, the
  public closed form and oracle round it once per entry, and the profile
  reads its amplitudes off it
  (:meth:`~krylov_exact.band._BandSpace.overlaps`).

Every inner product (V, W) = sum_ab weight_ab conj(V_ab) W_ab is one
:meth:`~krylov_exact.numeric.Context.dot` of the covector weight*conj(V)
with W.  In bigreal mode that dot forms the products exactly and rounds
the sum once, so a dot over the band equals the dot over every entry.
The Lanczos spaces hand out those covectors (``dual``); the chain keeps
one beside each of its vectors for its exact-accumulator
reorthogonalisation (:meth:`~krylov_exact.numeric.Context.gram_schmidt`),
each coefficient an exact sum rounded once.  The profile stacks them once for
all times, as integer mantissas, and meets each time's O_0(t) in batched
exact products, each amplitude part rounded once: those dots bit for bit
where O_0(t) is rounded, and the exact sums where it is held exactly.

The parity fold
---------------
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
A band folds the same way (:class:`~krylov_exact.band._BandSpace`), in
exact mode under the metric g below: H_ba g_a = H_ab g_b, so W = G^-1 L^k
eta has the parity W_ba = (-1)^k W_ab, checked exactly once per space.

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
from functools import cached_property
from itertools import chain

import numpy as np

from .band import (  # noqa: F401
    _Band, _bandwidth, _BandSpace, _bilinear, _held, _parts, conjugate, lay_out_matrix, max_abs, zeros,
)
from .catalog import SystemSpec, _polyval
from .errors import (
    BasisMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    MirrorAsymmetry,
    ModeError,
    NegativeUnderSquareRoot,
    NotFiniteSystem,
    TruncationTooSmall,
    ZeroEta,
)
from .numeric import Context, Mantissas, _is_mp, exact_sqrt, symmetric_eigen

POSITION = "position"
ENERGY = "energy"


@dataclass
class OperatorPair:
    """A Hamiltonian/eta pair in one basis, with optional rational metric.

    ``h`` is a 1-D array of eigenvalues (energy basis) or a 2-D matrix
    (position basis); ``rep`` is the matching representation of H, and
    :attr:`basis` names the basis, read off the same shape.
    ``metric`` is None for an orthonormal basis, or the diagonal g of the
    similarity that maps the stored matrices back to the honest symmetric
    representation.  Assigning ``h``, ``eta`` or ``metric`` after
    construction builds ``rep`` afresh, so no kept space or layout outlives
    the arrays it was built from.
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
            # class; otherwise arithmetic on them rounds at their own precision.
            # ctx.num returns the context's own values unchanged: skip them
            self.h, self.eta = np.array(self.h, dtype=object), np.array(self.eta, dtype=object)
            for m in (self.h, self.eta):
                foreign = np.frompyfunc(type, 1, 1)(m) != self.ctx.mp.mpf
                m[foreign] = np.array([self.ctx.num(v) for v in m[foreign]], dtype=object)
        self.rep = _Spectrum(self.h, self.ctx, self.eta) if self.h.ndim == 1 else _Banded(self.h, self.ctx, self.eta)

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name in ("h", "eta", "metric") and "rep" in vars(self):
            del self.rep  # __post_init__ assigns h and eta again
            self.__post_init__()

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


def liouville(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Commutator [H, V]; elementwise when H is a diagonal spectrum array,
    else the band kernel (:meth:`~krylov_exact.band._Band.commutator`) on
    every entry, on integers: rationals give ``h @ v - v @ h``, and where
    an entry is an mpmath number, each entry is the exact commutator
    rounded once, at the precision of the first such entry's context.
    Other entries, floats among them, raise
    :class:`~krylov_exact.errors.ModeError` unless an mpmath entry sets
    the context they convert in."""
    if h.ndim == 1:
        if v.shape != (h.shape[0], h.shape[0]):
            raise DimensionMismatch(f"spectrum dim {h.shape[0]} vs matrix {v.shape}")
        return np.subtract.outer(h, h) * v
    if h.shape != v.shape:
        raise DimensionMismatch(f"{h.shape} vs {v.shape}")
    n, mp = len(h), next((x.context for x in chain(h.flat, v.flat) if _is_mp(x)), None)
    if mp is None and not all(hasattr(x, "denominator") for x in chain(h.flat, v.flat)):
        raise ModeError("liouville takes rationals or mpmath numbers")
    h_parts, _ = lay_out_matrix(h, mp)
    lv = _bilinear(_Band(n, n - 1).commutator, h_parts, _parts(_held(v.ravel(), mp)), mp)
    return (lv.rationals(0 * h[0, 0] * v[0, 0]) if mp is None else lv.rounded()).reshape(n, n)


# ---------------------------------------------------------------------------
# The two representations of H
# ---------------------------------------------------------------------------


def _unchanged(v: np.ndarray) -> np.ndarray:
    return v


class _Spectrum:
    """H diagonal, stored as the 1-D array of its energies.

    An operator is the 1-D vector of its entries on the row-major entries
    of (eta != 0) plus the diagonal, found once.  L V, V f(H), V + f(H) and
    the phase twist act entry by entry and keep exact zeros zero, so the
    closure relation and exp(iHt) eta exp(-iHt) live on those entries.  A
    function f(H) is the 1-D array of its values on the spectrum.
    """

    def __init__(self, h: np.ndarray, ctx: Context, eta: np.ndarray):
        self.h, self.ctx, self.spaces = h, ctx, {}
        # truth is the zero test, without an mpmath comparison per entry
        entries = eta.astype(bool)
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

    fit = staticmethod(_unchanged)

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
        return _kept_space(self, pair, ip, lambda: SupportBasis(pair, ip))


class _Banded:
    """H as a symmetric banded matrix (tridiagonal in the position basis).

    An operator is a dense matrix; the chain, the oracle and the closure
    relation run on bands (:mod:`~krylov_exact.band`) of any width.  The
    eigenbasis H = Q diag(E) Q^T (:meth:`eigenbasis`), H laid out for the
    band kernel as integers (:attr:`bands`) and the operator spaces are
    built on first use and kept,
    so each pair runs :func:`eig_symmetric` at most once: implicit QL on H's
    diagonal and off-diagonal, with Q rotated on integer mantissas at 32
    guard bits (:func:`~krylov_exact.numeric.symmetric_eigen`).  It needs H
    tridiagonal, as every position H is; a wider H raises
    :class:`~krylov_exact.errors.BasisMismatch` there.
    """

    def __init__(self, h: np.ndarray, ctx: Context, eta: np.ndarray):
        self.h, self.ctx, self.eta = h, ctx, eta
        self._eigen, self.spaces = None, {}

    @cached_property
    def bands(self) -> tuple:
        """(h, w_H, w_eta): H by :func:`~krylov_exact.band.lay_out_matrix`, and eta's bandwidth."""
        return (*lay_out_matrix(self.h, None if self.ctx.is_exact else self.ctx.mp), _bandwidth(self.eta))

    gather = staticmethod(_unchanged)

    @staticmethod
    def scatter(x: Mantissas) -> np.ndarray:
        """The matrix of an exact product moved back from the eigenbasis, each entry rounded once."""
        return x.rounded()

    def holding(self, mat: np.ndarray) -> _Banded:
        return self

    def liouville(self, v: np.ndarray) -> np.ndarray:
        return liouville(self.h, v)

    def eigenbasis(self) -> tuple[_Eigenbasis, object, object]:
        """(eigenbasis, to, back): the eigenvalues E (:class:`_Eigenbasis`),
        V -> Q^T V Q into it, a three-factor
        :meth:`~krylov_exact.numeric.Context.matmul` rounded once per entry
        and held as exact :class:`~krylov_exact.numeric.Mantissas`, and
        X -> Q X Q^T back, the exact product (:meth:`Mantissas.product`),
        rounded by the caller.  Q and Q^T are converted to integer
        mantissas once per pair."""
        if self._eigen is None:
            energies, q = eig_symmetric(self.h, self.ctx)
            ctx = self.ctx
            q, qt = ctx.mantissas(q), ctx.mantissas(q.T)
            to, back = lambda v: ctx.mantissas(ctx.matmul(qt, v, q)), lambda x: q.product(x, qt)
            self._eigen = _Eigenbasis(energies, ctx), to, back
        return self._eigen

    def reach(self, steps: int | None) -> int:
        """The width STEPS commutators reach from eta: every entry for None."""
        _, w_h, w_eta = self.bands
        return len(self.h) - 1 if steps is None else min(w_eta + steps * w_h, len(self.h) - 1)

    def space(self, pair: OperatorPair, ip: InnerProduct, steps: int | None) -> _BandSpace:
        _check_dims(pair, ip)
        return _kept_space(self, pair, ip, lambda: _BandSpace(pair, ip, steps), self.reach(steps))


class _Eigenbasis:
    """The eigenbasis of a matrix H, the energies E (:attr:`h`), where an
    operator is an n x n :class:`~krylov_exact.numeric.Mantissas`, held
    exactly.  V f(H), V + f(H) and the phase twist are formed exactly from
    f(E) and the phases exp(iEt), each rounded once per eigenvalue."""

    def __init__(self, energies: np.ndarray, ctx: Context):
        self.h, self.ctx = energies, ctx

    def _row(self, values) -> Mantissas:
        return self.ctx.mantissas(np.asarray(values, dtype=object).reshape(1, -1))

    def right_mul(self, v: Mantissas, f) -> Mantissas:
        """V f(H): column b times f(E_b)."""
        return v * self._row(f)

    def add(self, v: Mantissas, f) -> Mantissas:
        """V + f(H): f(E) added on the diagonal."""
        re, im, exp = self._row(f).merged()
        return v + Mantissas._exact(np.diag(re[0]), None if im is None else np.diag(im[0]), exp, None, self.ctx.mp)

    def conjugate_exp(self, v: Mantissas, t) -> Mantissas:
        """exp(iHt) V exp(-iHt): (p_a conj(p_b)) V_ab with p = exp(iEt)."""
        phases = self._row([self.ctx.expj(e * t) for e in self.h])
        return phases.T * phases.conjugate() * v


def _kept_space(rep, pair: OperatorPair, ip: InnerProduct, build, *key):
    """BUILD() once per (PAIR, IP, *KEY), kept on REP with PAIR and IP so that
    their ids stay theirs.  A space never changes once built: sharing it changes no result."""
    key = (id(pair), id(ip), *key)
    if key not in rep.spaces:
        rep.spaces[key] = pair, ip, build()
    return rep.spaces[key][2]


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
    b, d = [spec.B(x) for x in range(n)], [spec.D(x) for x in range(n)]
    np.fill_diagonal(h, [u + w for u, w in zip(b, d)])
    metric = _off_diagonals(h, b[:-1], d[1:], -1, ctx, "B(x)*D(x+1)")
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

    H is returned as the 1-D spectrum array.  For finite systems n_max
    defaults to N and may not exceed it; only N = 1 has fewer than 3 levels.
    """
    ctx = spec.ctx
    if spec.is_finite:
        n_max = spec.N if n_max is None else n_max
        if n_max > spec.N:
            raise TruncationTooSmall(f"n_max {n_max} exceeds N={spec.N}")
    elif n_max is None:
        raise TruncationTooSmall("infinite system needs an explicit n_max")
    if n_max < 2 and n_max != spec.N:
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

    In bigreal mode the chain vectors are normalised and ``b`` holds
    b_1..; in exact mode they are the unnormalised rational chain vectors
    and only ``b_squared`` (with the squared norms ``norms_sq``) is
    stored, so that the stop test b_{k+1} = 0 stays literal.  The vectors
    stay in the form the chain's operator ``space`` holds them (folded on
    the eta support, or on a band, :class:`~krylov_exact.band._Scaled` in
    exact mode), where the profile reads them; :attr:`ops`, their dense
    matrices, is built on first read.
    """

    vectors: list = field(repr=False)
    space: SupportBasis | _BandSpace = field(repr=False)
    b_squared: list
    stopped: bool
    ctx: Context
    b: list | None = None
    norms_sq: list | None = field(default=None, repr=False)

    @cached_property
    def ops(self) -> list:
        """The chain vectors as dense matrices, scattered once."""
        return [self.space.scatter(v, k % 2) for k, v in enumerate(self.vectors)]

    @property
    def stop_index(self) -> int | None:
        """k such that b_{k+1} vanished, i.e. the chain ends at O_k."""
        return len(self.b_squared) if self.stopped else None


def _check_dims(pair: OperatorPair, ip: InnerProduct) -> None:
    if ip.dim != pair.dim:
        raise DimensionMismatch(f"inner product dim {ip.dim} vs pair dim {pair.dim}")


def _check_count(name: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise IndexOutOfRange(f"{name} = {value} is negative")


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
        self.pair, self.dim, self.ctx = pair, pair.dim, ctx
        nonzero = pair.rep.gather(eta) != 0  # the entry list less diagonal zeros
        rows, cols = pair.rep.rows[nonzero], pair.rep.cols[nonzero]
        self.size = len(rows)
        keep = (rows <= cols) | (eta[cols, rows] == 0)
        r, c = self.rows, self.cols = rows[keep], cols[keep]
        diag = r == c
        self.freq = pair.h[r] - pair.h[c]
        self.ratio = eta[c, r] / eta[r, c]
        # the weights of a representative entry and of its mirror; the
        # diagonal is its own mirror and counts once
        self.weight = ip.entries(r, c)
        mirror_sq = np.where(diag, ctx.zero, ip.entries(c, r)) * self.ratio * self.ratio
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

    def liouville(self, vec: np.ndarray, parity: int) -> np.ndarray:
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

    def overlaps(self, vectors: list):
        """t -> [(O_n, O_0(t))] for folded chain vectors O_n of parity n mod
        2.  An entry of frequency omega and its mirror add
        v_n v_0 (w+ cos(omega t) + i w- sin(omega t)) for even n, w+ and w-
        swapped for odd n.  The coefficients w+ v_n v_0 and w- v_n v_0 are
        formed once, for all times, and stacked as integer mantissas into
        one matrix against cos (w+ rows of even n, w- rows of odd n) and one
        against sin (the others); w- rows are left out where every w-
        vanishes, as for the bigreal pairs of :func:`energy_pair`.  Columns
        of equal frequency are summed there, exactly.  Each time is then one
        :meth:`~krylov_exact.numeric.Context.matmul` per matrix against the
        cos or sin of the distinct frequencies, each phase computed once.
        An amplitude part is still the fused dot over the folded entries,
        bit for bit: exact sums and exact zeros change nothing before its
        one rounding."""
        ctx, v0, count = self.ctx, vectors[0], len(vectors)
        position = {}  # mpf keys compare by exact value; entry s takes phase slot[s]
        slot = np.array([position.setdefault(f, len(position)) for f in self.freq], dtype=int)
        distinct, cross = list(position), any(self.wminus)
        stacks = ([], [])  # (n, coefficients) against cos, against sin
        for n, v in enumerate(vectors):
            stacks[n % 2].append((n, self.dual(v) * v0))
            if cross:
                stacks[1 - n % 2].append((n, self.wminus * v * v0))
        products = []  # (wave: 0 cos, 1 sin; amplitudes; coefficient matrix)
        for wave, stack in enumerate(stacks):
            if stack:
                ns, rows = zip(*stack)
                coeffs = ctx.mantissas(np.array(rows, dtype=object))
                products.append((wave, ns, coeffs.summed_columns(slot, len(distinct))))
        zero = ctx.zero._mpf_

        def at(t):
            phases = [ctx.expj(f * t) for f in distinct]
            waves = ([p.real for p in phases], [p.imag for p in phases])
            parts = ([zero] * count, [zero] * count)  # real parts, imaginary parts
            for wave, ns, coeffs in products:
                column = np.array(waves[wave], dtype=object).reshape(-1, 1)
                for n, x in zip(ns, ctx.matmul(coeffs, column).ravel()):
                    parts[wave][n] = x._mpf_
            return [ctx.mp.make_mpc(p) for p in zip(*parts)]

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
    :meth:`~krylov_exact.numeric.Context.is_zero`.  A bigreal W_k is
    reorthogonalised against the earlier vectors of its parity (all of them
    on a space that does not fold) by one
    :meth:`~krylov_exact.numeric.Context.gram_schmidt`.
    """
    _check_count("k_max", k_max)
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
    # each chain vector beside its covector, held exactly from first use
    basis = [(o_cur, space.dual(o_cur))]
    bs = []
    stopped = False
    while len(bs) < k_max:
        w = space.liouville(o_cur, (len(ops) - 1) % 2)
        if o_prev is not None:
            w = w - o_prev * bs[-1]
        # full reorthogonalisation: thermal weights make the inner
        # product extremely ill-conditioned, and the bare three-term
        # recurrence would drift into ghost directions near the end
        # of the chain.  W has the parity of O_{k+1}; on a folded
        # support the vectors of the other parity are orthogonal to it.
        first = len(ops) % stride
        w, basis[first::stride] = ctx.gram_schmidt(w, basis[first::stride])
        b2 = space.dot(w, w)
        b = ctx.sqrt(b2)
        if ctx.is_zero(b):
            stopped = True
            break
        o_prev, o_cur = o_cur, w / b
        ops.append(o_cur)
        basis.append((o_cur, space.dual(o_cur)))
        bs.append(b)
    return OperatorChain(
        vectors=ops,
        space=space,
        b_squared=[v * v for v in bs],
        stopped=stopped,
        ctx=ctx,
        b=bs,
    )


def _lanczos_exact(space, eta: np.ndarray, k_max: int, ctx: Context) -> OperatorChain:
    """Unnormalised three-term recurrence V_{k+1} = L V_k - b_k^2 V_{k-1}.

    With V_k = (b_1 ... b_k |eta|) O_k the squared norms nu_k satisfy
    b_k^2 = nu_k / nu_{k-1}, all rational, and the stop test is V = 0.  On
    a band, V_{k+1} is formed over one denominator and reduced once.
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
        w = space.liouville(v_cur, (len(ops) - 1) % 2)
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
        vectors=ops,
        space=space,
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
    matrix H moves V there, Q^T V Q rounded once per entry, twists it
    exactly from the rounded phases and moves it back exactly, Q (.) Q^T,
    each entry of the result rounded once (:meth:`_Banded.eigenbasis`),
    with the eigendecomposition the pair computes once; a spectrum twists
    V on V's own nonzero entries.
    """
    ctx = pair.ctx
    if ctx.is_exact:
        raise ModeError("Heisenberg evolution needs bigreal mode")
    rep = pair.rep.holding(v)
    eigen, to, back = rep.eigenbasis()
    return rep.scatter(back(eigen.conjugate_exp(to(rep.gather(v)), ctx.num(t))))


def eig_symmetric(h: np.ndarray, ctx: Context):
    """Eigendecomposition of a real symmetric tridiagonal matrix, sorted
    ascending.

    Returns (eigenvalues 1-D object array, orthogonal matrix Q) with
    h = Q diag(E) Q^T, at the context's precision.  The algorithm is
    implicit QL (EISPACK's ``imtql2``) on h's diagonal and off-diagonal,
    with Q's Givens rotations applied as Python-int fixed point at 32
    guard bits and each entry rounded once
    (:func:`~krylov_exact.numeric.symmetric_eigen`); mpmath's dense
    ``eigsy`` is its reference in the tests.  It never reads a closed-form
    energy.  :class:`~krylov_exact.errors.BasisMismatch` names the first
    entry (a, b) with |a - b| >= 2 that is nonzero, and the first
    off-diagonal entry (a, b) not ``ctx.close`` to (b, a), as in a
    rescaled pair.
    """
    if ctx.is_exact:
        raise ModeError("eigendecomposition needs bigreal mode")
    for a, b in np.argwhere((np.triu(h, 2) != 0) | (np.tril(h, -2) != 0))[:1]:
        raise BasisMismatch(f"H is not tridiagonal: entry ({a}, {b}) is {h[a, b]}")
    for a, (x, y) in enumerate(zip(h.diagonal(1), h.diagonal(-1))):
        if x != y and not ctx.close(x, y):  # ctx.close only where they differ
            raise BasisMismatch(f"H is not symmetric: entries ({a}, {a + 1}) and ({a + 1}, {a}) differ")
    return symmetric_eigen(h, ctx.mp)


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
    row, pivots = 0, []
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
    tol, recon_tol = rel_eps * scale, 4 * rel_eps * scale  # each formed once, not per row
    if any(abs(a[r, k]) > tol for r in range(row, mrows)):
        return None
    coeffs = [ctx.zero] * k
    for r, col in enumerate(pivots):
        coeffs[col] = a[r, k]
    # verify (the elimination above already guarantees pivot rows)
    recon = np.array([ctx.zero] * mrows, dtype=object)
    for j, c in enumerate(cols):
        recon = recon + c * coeffs[j]
    if any(abs(x - y) > recon_tol for x, y in zip(recon, rhs)):
        return None
    return coeffs

"""Operators of a matrix H on bands: one layout, one product kernel and
one exact vector type, for the chain, the oracle and the closure.

The position-basis H is tridiagonal (w_H = 1) and eta diagonal, so L^k
eta has bandwidth k and a function of H of degree d has bandwidth d w_H.
An operator is its row-major entries within W = min(w_eta + k w_H, n - 1)
of the diagonal, for the k commutators the caller applies
(:class:`_BandOperators`); the chain, the oracle and the profile add an
inner product (:class:`_BandSpace`), folded to the entries a <= b where
H and eta are mirror images under the metric.  One kernel forms every
product (:func:`_product`): each entry of XY sums X[a, k] Y[k, b] over
ascending k, as ``x @ y`` does, less exact-zero terms, so bigreal entries
equal the dense product bit for bit, and [H, V] = HV - VH costs
O(n w_H (w_H + w_V)) scalar products instead of O(n^3).  An exact vector
is a :class:`_Scaled`, integer numerators over one denominator, reduced
once per step, and H is cleared of denominators once per pair: the
kernel runs on integers, and exact numbers become rationals only in
:meth:`_BandOperators.scatter`, on the closure fit's rows, in
:func:`max_abs` and in dots.
"""

from __future__ import annotations

import math

import numpy as np

from .numeric import Context, rational


def zeros(n: int, ctx: Context) -> np.ndarray:
    return np.full((n, n), ctx.zero, dtype=object)


def conjugate(mat: np.ndarray) -> np.ndarray:
    flat = [v.conjugate() if hasattr(v, "_mpc_") else v for v in mat.ravel()]
    return np.array(flat, dtype=object).reshape(mat.shape)


def max_abs(vec):
    """The largest |entry| of an array, or of a :class:`_Scaled` as a rational."""
    if isinstance(vec, _Scaled):
        return rational(max(map(abs, vec.num.tolist())), vec.den)
    return max(abs(v) for v in np.asarray(vec, dtype=object).ravel())


def _bandwidth(m: np.ndarray) -> int:
    """Largest |a - b| over the nonzero entries of a square matrix (0 if none)."""
    rows, cols = np.nonzero(m)
    return int(np.abs(rows - cols).max()) if rows.size else 0


def _band(n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the entries of an n x n matrix with |a - b| <= width,
    in row-major order; width n - 1 gives every entry."""
    index = np.arange(n)
    return np.nonzero(np.abs(np.subtract.outer(index, index)) <= width)


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
    denominator.  ``u + v``, ``u - v`` and ``u * c`` for a rational c
    combine the vectors as formed (``raw``); the first read of ``num`` or
    ``den`` reduces the vector to lowest terms (den and the numerators
    share no factor) in place, with one gcd over it.  So a chain step
    W = L V_k - b_k^2 V_{k-1} and an oracle step L V_k reduce once each."""

    __slots__ = ("raw", "num", "den")

    def __init__(self, num: np.ndarray, den: int):
        self.raw = num, den

    def __getattr__(self, name: str):
        if name not in ("num", "den"):
            raise AttributeError(name)
        num, den = self.raw
        g = math.gcd(den, *num.tolist())
        self.raw = self.num, self.den = (num // g, den // g) if g > 1 else self.raw
        return getattr(self, name)

    def __add__(self, other: _Scaled, sign: int = 1) -> _Scaled:
        (u, du), (v, dv) = self.raw, other.raw
        den = math.lcm(du, dv)
        return _Scaled(u * (den // du) + v * (sign * (den // dv)), den)

    def __sub__(self, other: _Scaled) -> _Scaled:
        return self.__add__(other, -1)

    def __mul__(self, c) -> _Scaled:
        num, den = self.raw
        return _Scaled(num * int(c.numerator), den * int(c.denominator))

    def rationals(self, zero, at=slice(None)) -> np.ndarray:
        return np.array([rational(x, self.den) if x else zero for x in self.num[at]], dtype=object)


class _Band:
    """The row-major entries (``band`` = (rows, cols)) of an n x n matrix
    within ``width`` of its diagonal, and the kernel's products on them."""

    def __init__(self, n: int, width: int):
        self.n, self.width, self.folded = n, width, False
        rows, cols = self.rows, self.cols = self.band = _band(n, width)
        self.offsets = cols - rows
        self.mirror = np.searchsorted(rows * n + cols, cols * n + rows)  # where (b, a) sits
        self.at = rows * (2 * width + 1) + width + self.offsets
        self.at_t = self.at[self.mirror]

    def lay_out(self, vec: np.ndarray, zero) -> tuple:
        """(w, width, P): VEC's bandwidth read off its nonzero entries, and
        P[0][a, width + e] = V[a, a + e], P[1] the same for V^T."""
        p = np.full((2, self.n * (2 * self.width + 1)), zero, dtype=object)
        p[0, self.at], p[1, self.at_t] = vec, vec
        w = int(np.abs(self.offsets[np.flatnonzero(vec)]).max(initial=0))
        return w, self.width, p.reshape(2, self.n, -1)

    def commutator(self, h: tuple, vec: np.ndarray, zero, parity: int = 0) -> np.ndarray:
        """[H, V] = HV - VH for V on this band.  Folded, VEC is W = G^-1 V
        with W_ba = (-1)^parity W_ab, for H_ba g_a = H_ab g_b, so G^-1 [H, V]
        = H^T W - WH with (WH)_ab = +-(H^T W)_ba term for term: it is
        (H^T W)_ab -+ (H^T W)_ba on the entries ``reps`` alone."""
        v = self.lay_out(vec, zero)
        if not self.folded:
            return _product(h, v, self, zero) - _product(v, h, self, zero)
        w_h, width, p = h
        hv = _product((w_h, width, p[::-1]), v, self, zero)  # H^T laid out: its rows are H's columns
        reps, mirrors = self.reps
        return hv[reps] + hv[mirrors] if parity else hv[reps] - hv[mirrors]


def _product(x: tuple, y: tuple, band: _Band, zero) -> np.ndarray:
    """XY on BAND, which must hold it, for X and Y laid out by
    :meth:`_Band.lay_out`.  The loop runs over the diagonals j of X, or of
    Y^T through XY = (Y^T X^T)^T when Y is the narrower factor: row a gains
    X[a, a + j] Y[a + j, a + e] for |e - j| <= w_Y, so each entry sums over
    ascending k = a + j, less exact-zero terms, as ``x @ y`` does."""
    t = int(x[0] > y[0])
    (w_x, wx, px), (w_y, wy, py) = (y, x) if t else (x, y)
    px, py, n, width = px[t], py[t], px.shape[1], band.width
    out = np.full((n, 2 * width + 1), zero, dtype=object)
    for j in range(-w_x, w_x + 1):
        lo, hi = max(0, -j), min(n, n - j)
        e0, e1 = max(j - w_y, -width), min(j + w_y, width) + 1
        out[lo:hi, width + e0:width + e1] += px[lo:hi, wx + j, None] * py[lo + j:hi + j, wy + e0 - j:wy + e1 - j]
    return out.ravel()[band.at_t if t else band.at]


def lay_out_matrix(h: np.ndarray, zero, exact: bool = False) -> tuple:
    """(H laid out on its own band, d_H): if EXACT, as integer numerators
    over d_H (ZERO then is 0), else as it is, with d_H = 1."""
    band = _Band(len(h), _bandwidth(h))
    vec, d_h = _integer_numerators(h[band.band]) if exact else (h[band.band], 1)
    return band.lay_out(vec, 0 if exact else zero), d_h


class _BandOperators(_Band):
    """Operators of a matrix H on the band W = min(w_eta + steps w_H, n - 1):
    mpf vectors, or :class:`_Scaled` ones in exact mode, and H (:attr:`h`)
    laid out once per pair (:func:`lay_out_matrix`).  Functions of H of
    degree steps - 1 share the band, so the closure's R_0(H), R_1(H), M and
    fit columns I, H, H^2 fit on it, as does [H, M]."""

    g = None  # on a folded exact space, which holds W = G^-1 V: the metric, integer numerators over d_g

    def __init__(self, rep, steps: int | None):
        self.ctx, self.exact, self.steps = rep.ctx, rep.ctx.is_exact, steps
        self.h, self.d_h, self.w_eta = rep.bands
        self.zero, self.n, self.reach = 0 if self.exact else self.ctx.zero, len(rep.h), rep.reach
        super().__init__(self.n, self.reach(steps))

    def gather(self, mat: np.ndarray):
        vec = mat[self.rows, self.cols]
        if self.g is not None:
            nz = np.flatnonzero(vec)
            vec[nz] = vec[nz] * self.d_g / self.g[self.rows[nz]]
        return _Scaled(*_integer_numerators(vec)) if self.exact else vec

    def unfold(self, vec, parity: int):
        """VEC (bigreal, or exact numerators) of the given parity on the whole band."""
        if not self.folded:
            return vec
        full = vec[self.spread]
        if parity:
            full[self.lower] = -full[self.lower]
        return full

    def scatter(self, vec, parity: int = 0) -> np.ndarray:
        out = zeros(self.n, self.ctx)
        if self.exact:  # V = G W
            g, d_g = (1, 1) if self.g is None else (self.g[self.band[0]], self.d_g)
            vec = _Scaled(self.unfold(vec.num, parity) * g, vec.den * d_g).rationals(self.ctx.zero)
        out[self.band] = vec if self.exact else self.unfold(vec, parity)
        return out

    def liouville(self, vec, parity: int = 0):
        lv = self.commutator(self.h, self.unfold(vec.num if self.exact else vec, parity), self.zero, parity)
        return _Scaled(lv, vec.den * self.d_h) if self.exact else lv

    def mul(self, x, y):
        """XY for X and Y on this band, either of them H (:attr:`h`)."""
        dx, dy = (self.d_h if m is self.h else m.den if self.exact else 1 for m in (x, y))
        x, y = (m if m is self.h else self.lay_out(m.num if self.exact else m, self.zero) for m in (x, y))
        xy = _product(x, y, self, self.zero)
        return _Scaled(xy, dx * dy) if self.exact else xy

    right_mul = mul
    add = staticmethod(lambda v, f: v + f)

    def poly(self, coeffs):
        """f(H) by Horner's rule, acc = acc H + c."""
        unit, diag = _Scaled((self.offsets == 0).astype(object) * 1, 1), self.offsets == 0
        acc = unit * self.ctx.zero if self.exact else unit.num * self.ctx.zero
        for k, c in enumerate(reversed(coeffs)):
            acc = self.mul(acc, self.h) if k else acc
            if self.exact:
                acc = acc + unit * c
            else:
                acc[diag] = acc[diag] + c
        return acc

    def fit(self, f):
        """F on the rows of the closure fit, rationals in exact mode: the
        entries within the reach of steps - 1, in row-major order.  Each row
        left out is zero in M, I, H and H^2, so in
        :func:`~krylov_exact.operators.solve_consistent` it stays zero and
        wins no pivot.  Pivots swap into the first three rows, at first
        (0, 0), (0, 1) and (0, 2), which the closure keeps (it asks for
        steps >= 3, a reach of at least 2 on a matrix H with an off-diagonal,
        or the rows are every entry), so kept rows keep their order and ties
        break alike: pivots, eliminations and R_{-1} are those of the fit on
        all n^2 rows."""
        rows = np.flatnonzero(np.abs(self.offsets) <= self.reach(self.steps - 1))
        return f.rationals(self.ctx.zero, rows) if self.exact else f[rows]

    def as_function(self, m):
        return self.fit(m), self.ctx.zero


def _mirrored(m: np.ndarray, width: int, g: np.ndarray) -> bool:
    """Whether M_ab g_b == M_ba g_a for 0 < |a - b| <= WIDTH, M's bandwidth."""
    return all((m.diagonal(e) * g[e:] == m.diagonal(-e) * g[:-e]).all() for e in range(1, width + 1))


class _BandSpace(_BandOperators):
    """The operator space of a matrix H for the chain, the oracle and the
    profile, in both modes: the band of ``steps`` commutators
    (:class:`_BandOperators`) with an inner product.  A bigreal dot is one
    fused dot of the covector (:meth:`dual`) with V.  Where H, eta and the
    band weights are mirror images under the metric g (H_ba g_a = H_ab g_b,
    the same for eta, w_ab g_a^2 symmetric; g = 1 without a metric), as for
    every :func:`~krylov_exact.operators.position_pair`, the band is
    ``folded`` as :class:`~krylov_exact.operators.SupportBasis` folds with
    r = 1.  It holds W = G^-1 V (:meth:`gather` divides by g_a,
    :meth:`scatter` multiplies again), of exact parity W_ba = (-1)^k W_ab,
    on the entries a <= b, with w+ = 2 w_ab g_a^2 off the diagonal and
    w- = 0: odd oracle moments are exact zeros, the chain reorthogonalises
    with stride 2, and a commutator forms H^T W alone.  A bigreal band
    folds only without a metric, as dividing by g would round; every
    skipped term is then an exact zero, so results are the whole band's
    bit for bit.  An exact dot clears the weights of denominators once per
    space, w_num / d_w, and is one integer sum over d_w * den_u * den_v.
    Exact values equal those of rational arithmetic.  The profile evolves
    O_0 alone, in the eigenbasis of H (:meth:`overlaps`).
    """

    def __init__(self, pair, ip, steps: int | None):
        super().__init__(pair.rep, steps)
        self.pair, self.size = pair, self.n * self.n
        rows, cols = self.band
        weight, self.d_w = _integer_numerators(ip.entries(rows, cols)) if self.exact else (ip.entries(rows, cols), 1)
        g, d_g, weight_w = np.ones(self.n, dtype=object), 1, weight  # weight_w: the weights of W = G^-1 V
        if pair.metric is not None and self.exact:
            g, d_g = _integer_numerators(pair.metric)
            weight_w = weight * g[rows] ** 2
        self.folded = (pair.metric is None or self.exact) and (weight_w == weight_w[self.mirror]).all() and all(
            _mirrored(m, width, g) for m, width in ((pair.h, self.h[0]), (pair.eta, self.w_eta))
        )
        if not self.folded:
            self.weight = self.wplus = weight
            return
        self.g, self.d_g, self.d_w = None if pair.metric is None else g, d_g, self.d_w * d_g**2
        reps = np.flatnonzero(rows <= cols)
        self.rows, self.cols, self.weight = rows[reps], cols[reps], weight_w[reps]
        self.wplus = self.weight + np.where(self.rows == self.cols, self.zero, self.weight)  # w_ab + w_ba
        self.reps = reps, self.mirror[reps]
        # each band entry's representative, and the entries below the diagonal
        self.spread = (np.cumsum(rows <= cols) - 1)[np.minimum(np.arange(len(rows)), self.mirror)]
        self.lower = np.flatnonzero(rows > cols)

    def dual(self, u: np.ndarray) -> np.ndarray:
        """The covector of a bigreal U against vectors of its parity: w+
        times the conjugate of U."""
        return self.wplus * conjugate(u)

    def dot(self, u, v):
        if self.exact:
            return rational(self.ctx.dot(self.wplus * u.num, v.num), self.d_w * u.den * v.den)
        return self.ctx.dot(self.dual(u), v)

    def cross_dot(self, u, v):
        """(U, V) for U and V of opposite parity: an exact 0 when folded."""
        return self.ctx.zero if self.folded else self.dot(u, v)

    def lanczos_stride(self) -> int:
        return 2 if self.folded else 1

    def overlaps(self, vectors: list):
        """t -> [(O_n, O_0(t))] for bigreal chain vectors on this band,
        through the exponential-conjugation oracle.  O_0 moves into the
        eigenbasis of H once, and the chain's covectors on the whole band
        (each unfolded once: O(t) is Hermitian only up to rounding) are
        stacked once, for all times, as integer mantissas.  Each time then
        costs the phase twist of O_0 there, one move back, Q X Q^T, a
        three-factor :meth:`~krylov_exact.numeric.Context.matmul` rounded
        once per entry and read on the band, and one ``matmul`` of the
        covectors with it, rounded once per amplitude.  The chain vectors
        stay in the position basis: moving each would cost two products
        per vector, where a time costs one move back whatever the chain's
        length."""
        weight = self.unfold(self.weight, 0)
        duals = [weight * conjugate(self.unfold(v, n % 2)) for n, v in enumerate(vectors)]
        duals = self.ctx.mantissas(np.array(duals, dtype=object))
        eigen, to, back = self.pair.rep.eigenbasis()
        o0 = to(self.scatter(vectors[0]))

        def at(t):
            ot = back(eigen.conjugate_exp(o0, t))[self.band]
            return list(self.ctx.matmul(duals, ot.reshape(-1, 1)).ravel())

        return at

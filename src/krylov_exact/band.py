"""Operators of a matrix H on bands: one layout, one product kernel and
one exact vector type, for the exact chain and oracle and the closure.

The position-basis H is tridiagonal (w_H = 1) and eta diagonal, so L^k
eta has bandwidth k and a function of H of degree d has bandwidth d w_H.
An operator is its row-major entries within W = min(w_eta + k w_H, n - 1)
of the diagonal, for the k commutators the caller applies
(:class:`_BandOperators`), in both modes.  The exact chain and oracle add
an inner product (:class:`_BandSpace`), kept on the entries a <= b: H,
eta and the weights must be mirror images under the metric, which the
space checks once, when it is built.  A bigreal pair runs its
chain, oracle and profile in the eigenbasis of H
(:class:`~krylov_exact.operators.EigenSupport`) instead, so no bigreal
vector here has an inner product.
One kernel forms every product on Python ints (:func:`_product`): each
entry of XY sums X[a, k] Y[k, b] over the k where neither is an exact
zero, and [H, V] = HV - VH costs O(n w_H (w_H + w_V)) integer products
instead of O(n^3).
H is laid out once per pair as integers over one scale
(:func:`lay_out_matrix`).  An exact vector is a :class:`_Scaled`,
integer numerators over one denominator, reduced once per step, and
exact numbers become rationals only in :meth:`_BandOperators.scatter`,
on the closure fit's rows, in :func:`max_abs` and in dots.  A bigreal
vector enters the kernel as the integer mantissas of its real and
imaginary parts at one exponent
(:class:`~krylov_exact.numeric.Mantissas`): a commutator, a product
V f(H) and a function f(H) are the exact product rounded once per
entry, at the context's precision and rounding.  The closure check,
:func:`~krylov_exact.dynamics.apply_liouville_power` and the public
:func:`~krylov_exact.operators.liouville` stay on the band in bigreal
mode too: their bands hold O(n) entries and need no eigendecomposition.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MirrorAsymmetry
from .numeric import Context, Mantissas, _product as _complex, rational


def zeros(n: int, ctx: Context) -> np.ndarray:
    return np.full((n, n), ctx.zero, dtype=object)


def conjugate(mat: np.ndarray) -> np.ndarray:
    flat = [v.conjugate() if hasattr(v, "_mpc_") else v for v in mat.ravel()]
    return np.array(flat, dtype=object).reshape(mat.shape)


def max_abs(vec):
    """The largest |entry| of an array, of a :class:`_Scaled` as a rational,
    or of exact :class:`~krylov_exact.numeric.Mantissas` rounded once."""
    if isinstance(vec, _Scaled):
        return rational(max(map(abs, vec.num.tolist())), vec.den)
    if isinstance(vec, Mantissas):
        return vec.largest_abs()
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


def _held(values: np.ndarray, mp=None):
    """The 1-D VALUES exactly: rationals (MP None) as a :class:`_Scaled`,
    mpmath numbers as a 1-row :class:`~krylov_exact.numeric.Mantissas`."""
    if mp is None:
        return _Scaled(*_integer_numerators(values))
    return Mantissas.of(np.asarray(values, dtype=object).reshape(1, -1), mp)


def _parts(x) -> tuple:
    """(re, im, scale) of an exact vector X, 1-D integer parts (im None
    where X is real): a :class:`_Scaled`'s numerators over the denominator
    ``scale``, a Mantissas' mantissas at 2**scale."""
    re, im, scale = x.merged()
    return re.reshape(-1), None if im is None else im.reshape(-1), scale


def _bilinear(op, x: tuple, y: tuple, mp=None):
    """OP(X, Y), exactly, for X and Y given by :func:`_parts` and OP
    bilinear over the integers: a :class:`_Scaled` over the product of the
    denominators (MP None), or a 1-row Mantissas at the sum of the
    exponents."""
    (xr, xi, sx), (yr, yi, sy) = x, y
    re, im = _complex((xr, xi), (yr, yi), op)
    if mp is None:
        return _Scaled(re, sx * sy)
    return Mantissas._exact(re[None], None if im is None else im[None], sx + sy, None, mp)


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

    def merged(self) -> tuple:
        """(num, None, den) as formed, the layout of :meth:`Mantissas.merged`."""
        num, den = self.raw
        return num, None, den

    def rationals(self, zero, at=slice(None)) -> np.ndarray:
        return np.array([rational(x, self.den) if x else zero for x in self.num[at]], dtype=object)


class _Band:
    """The row-major entries (``band`` = (rows, cols)) of an n x n matrix
    within ``width`` of its diagonal, and the kernel's products on them."""

    def __init__(self, n: int, width: int):
        self.n, self.width = n, width
        rows, cols = self.rows, self.cols = self.band = _band(n, width)
        self.offsets = cols - rows
        self.mirror = np.searchsorted(rows * n + cols, cols * n + rows)  # where (b, a) sits
        self.at = rows * (2 * width + 1) + width + self.offsets
        self.at_t = self.at[self.mirror]

    def lay_out(self, vec: np.ndarray) -> tuple:
        """(w, width, P): the integer VEC's bandwidth read off its nonzero
        entries, and P[0][a, width + e] = V[a, a + e], P[1] the same for V^T."""
        p = np.zeros((2, self.n * (2 * self.width + 1)), dtype=object)
        p[0, self.at], p[1, self.at_t] = vec, vec
        w = int(np.abs(self.offsets[np.flatnonzero(vec)]).max(initial=0))
        return w, self.width, p.reshape(2, self.n, -1)

    def commutator(self, h: tuple, vec: np.ndarray) -> np.ndarray:
        """[H, V] = HV - VH for V on this band."""
        v = self.lay_out(vec)
        return _product(h, v, self) - _product(v, h, self)


def _product(x: tuple, y: tuple, band: _Band) -> np.ndarray:
    """XY on BAND, which must hold it, for integer X and Y laid out by
    :meth:`_Band.lay_out`, exactly.  The loop runs over the diagonals j of
    X, or of Y^T through XY = (Y^T X^T)^T when Y is the narrower factor:
    row a gains X[a, a + j] Y[a + j, a + e] for |e - j| <= w_Y."""
    t = int(x[0] > y[0])
    (w_x, wx, px), (w_y, wy, py) = (y, x) if t else (x, y)
    px, py, n, width = px[t], py[t], px.shape[1], band.width
    out = np.zeros((n, 2 * width + 1), dtype=object)
    for j in range(-w_x, w_x + 1):
        lo, hi = max(0, -j), min(n, n - j)
        e0, e1 = max(j - w_y, -width), min(j + w_y, width) + 1
        out[lo:hi, width + e0:width + e1] += px[lo:hi, wx + j, None] * py[lo + j:hi + j, wy + e0 - j:wy + e1 - j]
    return out.ravel()[band.at_t if t else band.at]


def lay_out_matrix(h: np.ndarray, mp=None) -> tuple:
    """(H, w_H): H's parts (re, im, scale) by :func:`_parts`, re and im each
    laid out on H's own band (im None where H is real), with H's
    bandwidth; the scale is an exact H's denominator, a bigreal H's
    exponent."""
    band = _Band(len(h), _bandwidth(h))
    re, im, scale = _parts(_held(h[band.band], mp))
    return (band.lay_out(re), None if im is None else band.lay_out(im), scale), band.width


class _BandOperators(_Band):
    """Operators of a matrix H on the band W = min(w_eta + steps w_H, n - 1):
    mpf vectors, or :class:`_Scaled` ones in exact mode, and H (:attr:`h`)
    laid out once per pair (:func:`lay_out_matrix`).  Every product runs
    on the integer parts of exact operands (:func:`_bilinear`): a
    :class:`_Scaled`, or a bigreal vector held as a 1-row
    :class:`~krylov_exact.numeric.Mantissas`, and the sums of Horner's rule
    are those types' own.  Exact results stay exact, bigreal ones are the
    exact result rounded once per entry (:meth:`_value`).  Functions of H
    of degree steps - 1 share the band,
    so the closure's R_0(H), R_1(H), M and fit columns I, H, H^2 fit on
    it, as does [H, M].  A vector holds V itself, with no inner product."""

    def __init__(self, rep, steps: int | None):
        self.ctx, self.exact, self.steps = rep.ctx, rep.ctx.is_exact, steps
        self.h, self.w_h, self.w_eta = rep.bands
        self.mp = None if self.exact else self.ctx.mp
        self.zero, self.n, self.reach = 0 if self.exact else self.ctx.zero, len(rep.h), rep.reach
        super().__init__(self.n, self.reach(steps))

    def gather(self, mat: np.ndarray):
        vec = mat[self.rows, self.cols]
        return _held(vec) if self.exact else vec

    def scatter(self, vec) -> np.ndarray:
        out = zeros(self.n, self.ctx)
        out[self.band] = vec.rationals(self.ctx.zero) if self.exact else vec
        return out

    def _times(self, x, y, op):
        """OP(X, Y), exactly (:func:`_bilinear`), for X and Y each H
        (:attr:`h`), an exact vector, or a bigreal vector on this band."""

        def parts(m):
            if m is self.h:
                return m
            return _parts(_held(m, self.mp) if isinstance(m, np.ndarray) else m)

        return _bilinear(op, parts(x), parts(y), self.mp)

    def _value(self, x):
        """An exact result as a vector: a :class:`_Scaled` as it is, bigreal
        entries each rounded once."""
        return x if self.exact else x.rounded()[0]

    def liouville(self, vec):
        return self._value(self._times(self.h, vec, self.commutator))

    def _product(self, x, y):
        def laid(p):  # H's parts are laid out once, a vector's here
            return p if isinstance(p, tuple) else self.lay_out(p)

        return self._times(x, y, lambda a, b: _product(laid(a), laid(b), self))

    def mul(self, x, y):
        """XY for X and Y on this band, either of them H (:attr:`h`)."""
        return self._value(self._product(x, y))

    right_mul = mul
    add = staticmethod(lambda v, f: v + f)

    def poly(self, coeffs):
        """f(H) by Horner's rule, acc = acc H + c, formed exactly: a
        bigreal f(H) is rounded once per entry."""
        diag, acc = self.offsets == 0, None
        for c in reversed(coeffs or (self.zero,)):
            term = _held(np.where(diag, c, self.zero).astype(object), self.mp)
            acc = term if acc is None else self._product(acc, self.h) + term
        return self._value(acc)

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
    """The exact operator space of a matrix H for the chain and the oracle:
    the band of ``steps`` commutators (:class:`_BandOperators`) with an
    inner product, kept on one entry per mirror pair under the metric g as
    :class:`~krylov_exact.operators.SupportBasis` folds with r = 1.  (A
    bigreal pair runs them in the eigenbasis of H,
    :class:`~krylov_exact.operators.EigenSupport`, and no profile reads an
    exact chain.)  H, eta and the band weights must be mirror images under
    g: H_ba g_a = H_ab g_b, the same for eta, and w_ab g_a^2 symmetric (g =
    1 without a metric), as for every exact
    :func:`~krylov_exact.operators.position_pair`.  The space checks that
    once, when it is built, and raises
    :class:`~krylov_exact.errors.MirrorAsymmetry` naming the first entry
    that breaks it.  It holds W = G^-1 V (:meth:`gather` divides by g_a,
    :meth:`scatter` multiplies again), of exact parity W_ba = (-1)^k W_ab,
    on the entries a <= b, with w+ = 2 w_ab g_a^2 off the diagonal: vectors
    of opposite parity are orthogonal, so odd oracle moments are exact
    zeros, and a commutator forms H^T W alone.  A dot clears the weights
    of denominators once per space, w_num / d_w, and is one integer sum
    over d_w * den_u * den_v; under the trace with the pair's own metric
    the weights w_ab g_a^2 of W are g_a g_b, formed directly as the
    integer products of the metric's numerators over d_g^2.  Values equal
    those of rational arithmetic on the whole band.
    """

    def __init__(self, pair, ip, steps: int | None):
        super().__init__(pair.rep, steps)
        self.pair, self.eta, self.size, self.dropped_mass = pair, pair.eta, self.n * self.n, self.ctx.zero
        rows, cols = self.band
        g, d_g = (np.ones(self.n, dtype=object), 1) if pair.metric is None else _integer_numerators(pair.metric)
        # the weights w_ab g_a^2 of W = G^-1 V; under the trace with the
        # pair's own metric w_ab = g_b / g_a, so they are the integers g_a g_b
        if ip.half is None and ip.metric is pair.metric:
            weight, d_w = g[rows] * g[cols], d_g**2
        else:
            weight, d_w = _integer_numerators(ip.entries(rows, cols))
            weight, d_w = weight * g[rows] ** 2, d_w * d_g**2
        if not ((weight == weight[self.mirror]).all() and all(
                _mirrored(m, width, g) for m, width in ((pair.h, self.w_h), (pair.eta, self.w_eta)))):
            # name the first entry: M_ab g_b = M_ba g_a, w_ab g_a^2 = w_ba g_b^2, on dense matrices here alone
            dense = np.zeros((self.n, self.n), dtype=object)
            dense[self.band] = weight
            name, m = next((name, m) for name, m in (("H", pair.h * g), ("eta", pair.eta * g), ("weight", dense))
                           if (m != m.T).any())
            a, b = np.argwhere(m != m.T)[0]
            raise MirrorAsymmetry(f"{name} entries ({a}, {b}) and ({b}, {a}) are not mirror images under the "
                                  "metric, so the chain would need a_n != 0")
        self.g, self.d_g, self.d_w = None if pair.metric is None else g, d_g, d_w
        reps = np.flatnonzero(rows <= cols)
        self.rows, self.cols = rows[reps], cols[reps]
        self.wplus = weight[reps] * np.where(self.rows == self.cols, 1, 2)  # w_ab + w_ba
        self.reps = reps, self.mirror[reps]
        # each band entry's representative, and the entries below the diagonal
        self.spread = (np.cumsum(rows <= cols) - 1)[np.minimum(np.arange(len(rows)), self.mirror)]
        self.lower = np.flatnonzero(rows > cols)

    def gather(self, mat: np.ndarray) -> _Scaled:
        vec = mat[self.rows, self.cols]
        if self.g is not None:
            nz = np.flatnonzero(vec)
            vec[nz] = vec[nz] * self.d_g / self.g[self.rows[nz]]
        return _held(vec)

    def unfold(self, vec: np.ndarray, parity: int) -> np.ndarray:
        """The integers VEC of the given parity on the whole band."""
        full = vec[self.spread]
        if parity:
            full[self.lower] = -full[self.lower]
        return full

    def scatter(self, vec: _Scaled, parity: int = 0) -> np.ndarray:
        """V = G W on the whole band, for W of the given parity."""
        g, d_g = (1, 1) if self.g is None else (self.g[self.band[0]], self.d_g)
        out = zeros(self.n, self.ctx)
        out[self.band] = _Scaled(self.unfold(vec.num, parity) * g, vec.den * d_g).rationals(self.ctx.zero)
        return out

    def liouville(self, vec: _Scaled, parity: int) -> _Scaled:
        """G^-1 [H, V] for W = G^-1 V of the given parity: W_ba = (-1)^parity
        W_ab and H_ba g_a = H_ab g_b, so G^-1 [H, V] = H^T W - WH with (WH)_ab
        = +-(H^T W)_ba term for term: it is (H^T W)_ab -+ (H^T W)_ba on the
        entries a <= b alone."""
        reps, mirrors = self.reps

        def commutator(h, w):
            w_h, width, p = h
            hw = _product((w_h, width, p[::-1]), self.lay_out(self.unfold(w, parity)), self)  # H^T: H's columns
            return hw[reps] + hw[mirrors] if parity else hw[reps] - hw[mirrors]

        return _bilinear(commutator, self.h, _parts(vec))

    def dot(self, u: _Scaled, v: _Scaled):
        return rational(self.ctx.dot(self.wplus * u.num, v.num), self.d_w * u.den * v.den)

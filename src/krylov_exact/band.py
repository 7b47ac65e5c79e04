"""Operators of a matrix H on bands: one layout, one product kernel and
one exact vector type, for the chain, the oracle and the closure.

The position-basis H is tridiagonal (w_H = 1) and eta diagonal, so L^k
eta has bandwidth k and a function of H of degree d has bandwidth d w_H.
An operator is its row-major entries within W = min(w_eta + k w_H, n - 1)
of the diagonal, for the k commutators the caller applies
(:class:`_BandOperators`); the chain, the oracle and the profile add an
inner product (:class:`_BandSpace`), folded to the entries a <= b where
H and eta are mirror images under the metric.  One kernel forms every
product on Python ints (:func:`_product`): each entry of XY sums
X[a, k] Y[k, b] over the k where neither is an exact zero, and [H, V] =
HV - VH costs O(n w_H (w_H + w_V)) integer products instead of O(n^3).
H is laid out once per pair as integers over one scale
(:func:`lay_out_matrix`).  An exact vector is a :class:`_Scaled`,
integer numerators over one denominator, reduced once per step, and
exact numbers become rationals only in :meth:`_BandOperators.scatter`,
on the closure fit's rows, in :func:`max_abs` and in dots.  A bigreal
vector enters the kernel as the integer mantissas of its real and
imaginary parts at one exponent
(:class:`~krylov_exact.numeric.Mantissas`): a commutator, a product
V f(H) and a function f(H) are the exact product rounded once per
entry, at the context's precision and rounding.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath.libmp import fzero, mpf_neg

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
        self.n, self.width, self.folded = n, width, False
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

    def commutator(self, h: tuple, vec: np.ndarray, parity: int = 0) -> np.ndarray:
        """[H, V] = HV - VH for V on this band.  Folded, VEC is W = G^-1 V
        with W_ba = (-1)^parity W_ab, for H_ba g_a = H_ab g_b, so G^-1 [H, V]
        = H^T W - WH with (WH)_ab = +-(H^T W)_ba term for term: it is
        (H^T W)_ab -+ (H^T W)_ba on the entries ``reps`` alone."""
        v = self.lay_out(vec)
        if not self.folded:
            return _product(h, v, self) - _product(v, h, self)
        w_h, width, p = h
        hv = _product((w_h, width, p[::-1]), v, self)  # H^T laid out: its rows are H's columns
        reps, mirrors = self.reps
        return hv[reps] + hv[mirrors] if parity else hv[reps] - hv[mirrors]


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
    it, as does [H, M]."""

    g = None  # on a folded exact space, which holds W = G^-1 V: the metric, integer numerators over d_g

    def __init__(self, rep, steps: int | None):
        self.ctx, self.exact, self.steps = rep.ctx, rep.ctx.is_exact, steps
        self.h, self.w_h, self.w_eta = rep.bands
        self.mp = None if self.exact else self.ctx.mp
        self.zero, self.n, self.reach = 0 if self.exact else self.ctx.zero, len(rep.h), rep.reach
        super().__init__(self.n, self.reach(steps))

    def gather(self, mat: np.ndarray):
        vec = mat[self.rows, self.cols]
        if self.g is not None:
            nz = np.flatnonzero(vec)
            vec[nz] = vec[nz] * self.d_g / self.g[self.rows[nz]]
        return _held(vec) if self.exact else vec

    def unfold(self, vec, parity: int):
        """VEC (bigreal, or integers) of the given parity on the whole band."""
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

    def liouville(self, vec, parity: int = 0):
        return self._value(self._times(self.h, vec, lambda h, v: self.commutator(h, self.unfold(v, parity), parity)))

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
            _mirrored(m, width, g) for m, width in ((pair.h, self.w_h), (pair.eta, self.w_eta))
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
        """2 on a folded band, else 1.  The chain takes a_n = 0 and L
        self-adjoint, so on a band that does not fold H, eta and the band
        weights must still be mirror images under the metric g, each pair
        :meth:`~krylov_exact.numeric.Context.close` (equal in exact mode):
        :class:`~krylov_exact.errors.MirrorAsymmetry` names the first
        entry that is not."""
        if self.folded:
            return 2
        pair, (rows, cols), mirror = self.pair, self.band, self.mirror
        g = np.full(self.n, self.ctx.one, dtype=object) if pair.metric is None else pair.metric
        for name, m in (("H", pair.h[rows, cols] * g[cols]), ("eta", pair.eta[rows, cols] * g[cols]),
                        ("weight", self.weight * g[rows] ** 2)):  # M_ab g_b = M_ba g_a, w_ab g_a^2 = w_ba g_b^2
            for s in np.flatnonzero(m != m[mirror]):
                if not self.ctx.close(m[s], m[mirror[s]]):
                    raise MirrorAsymmetry(f"{name} entries ({rows[s]}, {cols[s]}) and ({cols[s]}, {rows[s]}) are "
                                          "not mirror images under the metric, so the chain would need a_n != 0")
        return 1

    def overlaps(self, vectors: list):
        """t -> [(O_n, O_0(t))] for bigreal chain vectors on this band,
        through the exponential-conjugation oracle.  O_0 moves into the
        eigenbasis of H once, rounded once per entry; each time then twists
        it exactly and moves it back, Q X Q^T, in one exact product
        (:meth:`~krylov_exact.operators._Banded.eigenbasis`), and meets the
        chain's covectors, stacked once for all times as integer mantissas,
        in one more, each amplitude part rounded once.  On a folded band,
        for a real O_0 and odd vectors that vanish on the diagonal, as the
        chain's do, the read is folded too: the moved real part is exactly
        symmetric and the imaginary part exactly antisymmetric, so an even
        O_n meets the real part and an odd one i times the imaginary part,
        on the entries a <= b with w+, and the other part of each
        amplitude is an exact 0, as it is on the whole band.  Elsewhere the
        covectors are those of the whole band."""
        ctx, count = self.ctx, len(vectors)
        eigen, to, back = self.pair.rep.eigenbasis()
        o0 = to(self.scatter(vectors[0]))
        diagonal = np.flatnonzero(self.rows == self.cols)
        if self.folded and o0.merged()[1] is None and not any(v[diagonal].any() for v in vectors[1::2]):
            (rows, cols), parity = (self.rows, self.cols), (0, 1)
            stacks = [(ns, [self.dual(vectors[n]) for n in ns]) for ns in (range(0, count, 2), range(1, count, 2))]
        else:
            (rows, cols), parity, weight = self.band, (None,), self.unfold(self.weight, 0)
            stacks = [(range(count), [weight * conjugate(self.unfold(v, n % 2)) for n, v in enumerate(vectors)])]
        stacks = [(ns, ctx.mantissas(np.array(duals, dtype=object)), part)
                  for (ns, duals), part in zip(stacks, parity) if ns]

        def at(t):
            re, im, exp = back(eigen.conjugate_exp(o0, t)).merged()
            read = [None if p is None else p[rows, cols].reshape(-1, 1) for p in (re, im)]
            out = [None] * count
            for ns, duals, part in stacks:
                column = Mantissas._exact(*((read[part], None) if part is not None else read), exp, None, ctx.mp)
                for n, z in zip(ns, duals.product(column).rounded().ravel()):
                    z = z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, fzero)
                    out[n] = ctx.mp.make_mpc((mpf_neg(z[1]), z[0]) if part == 1 else z)  # i z for odd n
            return out

        return at

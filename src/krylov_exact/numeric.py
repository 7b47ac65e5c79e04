"""Scalar modes, tolerance policy, and elementary special values.

Two numeric modes cover everything in the package:

* ``exact``   -- rational arithmetic (gmpy2.mpq when available, otherwise
  fractions.Fraction).  Closed under field operations with no rounding.
* ``bigreal`` -- arbitrary-precision floating point via mpmath, correctly
  rounded at the configured number of decimal digits (at least 30).

Both modes compare by one rule, with the thresholds of the context's
:class:`Tolerance`: x is zero when |x| <= zero_eps, and x is close to y
when |x - y| <= rel_eps * max(|x|, |y|, 1).  Both thresholds are 0 in
exact mode, so there the rule is literal equality; in bigreal mode they
are 10**(10 - digits).

A :class:`Context` fixes the mode once; every public operation receives
values created through its context.  Values of foreign modes raise
:class:`~krylov_exact.errors.ModeError` instead of being promoted
silently (a machine float is always foreign).

Precision belongs to the context, not to global mpmath state: a bigreal
context creates its values in a private ``mpmath.MPContext`` (one per
precision), so arithmetic on them rounds at that precision whatever the
global one is, and no result depends on contexts created earlier.
:meth:`Context.num` converts foreign mpmath numbers into those classes.

Sums of products round once.  :meth:`Context.dot` is mpmath's ``fdot``.
:meth:`Context.matmul` holds its operands as exact integer mantissas
(:class:`Mantissas`), multiplies them with numpy's object ``@`` and
rounds each entry once: for two factors that is ``fdot`` of each row and
column, bit for bit, from integer arithmetic, and a chain of more
factors is multiplied exactly from left to right before its one
rounding.  An operand used in many products is converted once
(:meth:`Context.mantissas`).  :meth:`Context.gram_schmidt` reorthogonalises
on the same integers, rounding each coefficient and each entry once.
Mantissas also add, subtract and multiply entry by entry, exactly, and
give their largest |entry| with one rounding: the eigenbasis operators
of a matrix H are formed that way before one exact move back.
"""

from __future__ import annotations

import copyreg
import math
import numbers
import operator
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, reduce

import mpmath
import numpy as np
from mpmath.libmp import (
    fone, from_man_exp, fzero, mpf_abs, mpf_add, mpf_div, mpf_hypot, mpf_le, mpf_mul, mpf_sqrt, mpf_sub, to_fixed,
)

from .errors import DimensionMismatch, EigenNotConverged, ModeError, NonFiniteValue

try:
    from gmpy2 import mpq as _rational

    RATIONAL_BACKEND = "gmpy2"
except ImportError:  # gmpy2 is the optional "fast" extra; Fraction is the fallback
    _rational = Fraction
    RATIONAL_BACKEND = "Fraction"

EXACT = "exact"
BIGREAL = "bigreal"

#: Default number of decimal digits for bigreal contexts.  The q-system
#: moments reach dynamic ranges near 1e30 at desk scale, so 50 digits
#: keeps at least 20 guard digits.
DEFAULT_PRECISION = 50


def rational(p, q=1):
    """Exact rational from integers, a Fraction, or a 'p/q'/decimal string."""
    if isinstance(p, str):
        p = Fraction(p)
    if isinstance(p, Fraction):
        return _rational(p.numerator, p.denominator) * _rational(1, q)
    return _rational(p, q)


def exact_sqrt(x):
    """Rational square root of ``x`` if one exists, else None.

    Negative input raises ValueError; callers decide which domain error
    that maps to.
    """
    if x < 0:
        raise ValueError("square root of negative value")
    r = rational(x)
    num, den = int(r.numerator), int(r.denominator)
    sn = math.isqrt(num)
    sd = math.isqrt(den)
    if sn * sn == num and sd * sd == den:
        return rational(sn, sd)
    return None


@cache
def _mp_context(dps: int) -> mpmath.MPContext:
    """The private mpmath context working at ``dps`` decimal digits."""
    context = mpmath.MPContext()
    context.dps = dps
    # values pickle as (dps, digits) and unpickle into this context again
    copyreg.pickle(context.mpf, lambda x: (_unpickle, (dps, x._mpf_)))
    copyreg.pickle(context.mpc, lambda z: (_unpickle, (dps, z._mpc_)))
    return context


def _unpickle(dps: int, state: tuple):
    context = _mp_context(dps)
    return context.make_mpc(state) if isinstance(state[0], tuple) else context.make_mpf(state)


def _is_mp(x) -> bool:
    """True for an mpmath real or complex of any mpmath context."""
    return hasattr(x, "_mpf_") or hasattr(x, "_mpc_")


@dataclass(frozen=True)
class Tolerance:
    """The two thresholds of the comparison rule (:meth:`Context.is_zero`,
    :meth:`Context.close`).

    Both are exactly 0 in exact mode, where the rule is equality.  In
    bigreal mode both are ``10**(10 - precision)``: the absolute
    ``zero_eps`` feeds zero tests such as chain stops, the relative
    ``rel_eps`` feeds value comparisons.
    """

    zero_eps: object
    rel_eps: object

    @classmethod
    @cache
    def for_mode(cls, mode: str, precision: int = DEFAULT_PRECISION) -> "Tolerance":
        if mode == EXACT:
            return cls(0, 0)
        # rounded at `precision` digits, held at the context's guard digits
        eps = _mp_context(precision + 5).convert(_mp_context(precision).mpf(10) ** (-precision + 10))
        return cls(eps, eps)


@dataclass(frozen=True)
class Context:
    """Fixes the numeric mode (and precision) for one computation."""

    mode: str = EXACT
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.mode not in (EXACT, BIGREAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == BIGREAL:
            if self.precision < 30:
                raise ValueError("bigreal precision must be at least 30 digits")

    # -- construction -------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.mode == EXACT

    @property
    def mp(self) -> mpmath.MPContext:
        """The private mpmath context of this precision.  Its five guard
        digits give every value of the context one uniform precision and a
        lossless decimal round trip."""
        return _mp_context(self.precision + 5)

    def work(self):
        """A scope for caller code that mixes global ``mpmath`` functions
        with this context's values: it sets ``mpmath.mp`` to the context's
        working precision until exit.  A no-op in exact mode."""
        if self.is_exact:
            return nullcontext()
        return mpmath.mp.workdps(self.precision + 5)

    def num(self, v):
        """Coerce an int, rational, string or mpmath number to this context's scalar type."""
        if isinstance(v, bool):
            raise ModeError("booleans are not scalars")
        if isinstance(v, float):
            raise ModeError(
                "machine floats are rejected; pass a string or rational instead"
            )
        if self.is_exact:
            if _is_mp(v):
                raise ModeError("bigreal value in exact context")
            if isinstance(v, str):
                return rational(v)
            # plain ints are normalised to the rational type so that
            # int/int can never fall back to float division
            if isinstance(v, (int, numbers.Rational)):
                return rational(v.numerator, v.denominator)
            raise ModeError(f"cannot interpret {type(v).__name__} as exact rational")
        mp = self.mp
        if _is_mp(v):
            # a value of another mpmath context keeps its digits but
            # takes this context's class, and so its precision
            return mp.convert(v)
        if isinstance(v, str):
            p, slash, q = v.strip().partition("/")
            return mp.mpf(int(p)) / mp.mpf(int(q)) if slash else mp.mpf(p)
        if isinstance(v, int):
            return mp.mpf(v)
        if isinstance(v, numbers.Rational):
            return mp.mpf(v.numerator) / mp.mpf(v.denominator)
        raise ModeError(f"cannot interpret {type(v).__name__} as bigreal")

    def frac(self, p, q=1):
        """Literal fraction p/q in this context's type."""
        if self.is_exact:
            return rational(p, q)
        return self.mp.mpf(p) / self.mp.mpf(q)

    @property
    def zero(self):
        return self.num(0)

    @property
    def one(self):
        return self.num(1)

    def fmt(self, x) -> str:
        """Print a scalar so that re-parsing recovers the value exactly."""
        if self.is_exact:
            r = rational(x)
            if r.denominator == 1:
                return str(r.numerator)
            return f"{r.numerator}/{r.denominator}"
        mp = self.mp
        if hasattr(x, "_mpc_"):
            return f"({self.fmt(x.real)} {self.fmt(x.imag)}j)"
        # repr_dps digits guarantee a lossless decimal round trip
        return mp.nstr(mp.mpf(x), mpmath.libmp.repr_dps(mp.prec))

    # -- arithmetic ----------------------------------------------------

    def dot(self, u, v):
        """sum_k u_k v_k over two equally long 1-D object arrays.

        Exact mode sums the products literally, rational or integer
        (the exact operator space dots integer numerators).  Bigreal mode
        is mpmath's ``fdot``: it forms every product exactly and rounds
        the sum once, at this context's precision, instead of once per
        product and per partial sum; real and complex entries mix freely.
        """
        if len(u) != len(v):
            raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
        if self.is_exact:
            return (u * v).sum()
        return self.mp.fdot(u, v)

    def mantissas(self, a) -> Mantissas:
        """A 2-D bigreal object array as a :class:`Mantissas` operand of
        :meth:`matmul` (returned unchanged if it is one already).  An
        operand used in many products is converted once this way."""
        if self.is_exact:
            raise ModeError("integer mantissas hold bigreal matrices only")
        return a if isinstance(a, Mantissas) else Mantissas.of(a, self.mp)

    def matmul(self, *factors):
        """The product f_1 @ f_2 @ ... of two or more 2-D object arrays,
        taken from left to right (in bigreal mode any factor may be a
        :class:`Mantissas`).

        Exact mode gives that product in type and value.  Bigreal mode
        multiplies the factors' integer mantissas exactly and rounds each
        entry of the result once (:meth:`Mantissas.product`), complex where
        the row of the first factor, any middle factor, or the column of
        the last holds a complex entry.  With two factors every entry is
        :meth:`dot` of a row of ``a`` and a column of ``b``, ``fdot`` in
        type and value.  The one exception is an entry whose terms lie
        more than 2 * prec bits apart in exponent, where ``fdot``'s
        accumulator may drop a term; the product still rounds the exact
        sum.
        """
        if len(factors) < 2:
            raise DimensionMismatch("matmul needs at least two factors")
        for a, b in zip(factors, factors[1:]):
            if a.shape[1] != b.shape[0]:
                raise DimensionMismatch(f"matmul of shapes {a.shape} and {b.shape}")
        if self.is_exact:
            return reduce(operator.matmul, factors)
        first, *rest = (self.mantissas(f) for f in factors)
        return first.product(*rest).rounded()

    def gram_schmidt(self, w, basis: list) -> tuple:
        """(W', basis'): the 1-D array W less its components along the pairs
        (O_j, D_j) of a vector and its covector in BASIS, by modified
        Gram-Schmidt on integer mantissas, one exponent per entry.  In turn
        c_j = sum_k D_j[k] W[k] is summed exactly and rounded once, and
        W - O_j c_j is formed exactly where c_j != 0.  Each entry of W is
        then rounded once, complex where W or a term O_j c_j has an
        imaginary part; where every c_j is 0, W comes back as given.  basis'
        holds the pairs exactly, for later calls: each operand converts
        once, on first use."""
        if self.is_exact:
            raise ModeError("the exact accumulator holds bigreal vectors only")
        mp, (prec, rnd) = self.mp, self.mp._prec_rounding

        def exact(v):  # (re, im), each (mantissas, exponents), im None where no entry is complex
            if isinstance(v, tuple):
                return v
            parts = _entries(v, mp)[0]
            man = np.array([-m if s else m for s, m, _, _ in parts], dtype=object).reshape(-1, len(v))
            return (*zip(man, np.array([e if m else _FAR for _, m, e, _ in parts]).reshape(man.shape)), None)[:2]

        basis = [tuple(map(exact, pair)) for pair in basis]
        acc, moved = exact(w) if basis else None, False
        for o, d in basis:
            c = [_dot(products, prec, rnd) for products in _products(d, acc)]
            if any(c):
                acc, moved = tuple(_less(p, products) for p, products in zip(acc, _products(o, c))), True
        if not moved:
            return w, basis
        re, im = ([from_man_exp(m, e, prec, rnd) for m, e in zip(p[0].tolist(), p[1].tolist())] if p else None for p in acc)
        out = [mp.make_mpf(x) for x in re] if im is None else [mp.make_mpc(z) for z in zip(re, im)]
        return np.array(out, dtype=object), basis

    # -- elementary functions -----------------------------------------

    def exp(self, x):
        """e**x; in exact mode only x = 0 is representable."""
        if self.is_exact:
            if x == 0:
                return self.one
            raise ModeError("exp of a nonzero argument is irrational; use bigreal")
        return self.mp.exp(x)

    def sqrt(self, x):
        if self.is_exact:
            root = exact_sqrt(x)
            if root is None:
                raise ModeError(f"sqrt({x}) is irrational; use bigreal")
            return root
        return self.mp.sqrt(x)

    def expj(self, x):
        """e**(i*x) as a complex value (bigreal only)."""
        if self.is_exact:
            raise ModeError("complex exponentials require bigreal mode")
        return self.mp.expj(x)

    # -- comparisons ---------------------------------------------------

    def default_tolerance(self) -> Tolerance:
        return Tolerance.for_mode(self.mode, self.precision)

    def is_zero(self, x) -> bool:
        """|x| <= zero_eps: literal x == 0 in exact mode."""
        return abs(x) <= self.default_tolerance().zero_eps

    def close(self, x, y) -> bool:
        """|x - y| <= rel_eps * max(|x|, |y|, 1): literal x == y in exact mode."""
        scale = max(abs(x), abs(y), self.one)
        return abs(x - y) <= self.default_tolerance().rel_eps * scale


class Mantissas:
    """A bigreal matrix held exactly as Python-int mantissas in exponent
    slabs.

    Every mpf is sign * man * 2**e, so shifting a mantissa onto a lower
    exponent loses nothing.  A slab (part, base, cols, ints) holds the
    real (part 0) or imaginary (part 1) parts whose exponent lies in
    [base, base + width), width = 8 * prec bits, on the columns ``cols``
    where it has any: its share of entry (i, cols[j]) is
    ints[i, j] * 2**base, and every nonzero part lies in one slab
    (:meth:`of`).  A product (:meth:`product`) multiplies each slab of the
    left operand with the rows ``cols`` of the next factor, held at one
    exponent (:meth:`merged`), with numpy's object ``@``, sums the slabs'
    exact partial products at one exponent, and multiplies that exactly
    with each further factor.  Nothing is rounded until :meth:`rounded`
    rounds each entry once with ``from_man_exp`` at the context's
    precision and rounding: the long-accumulator dot product of Kulisch &
    Miranker (*SIAM Rev.* 28 (1986) 1), over a whole product chain.  The
    slabs keep the integers short where the entries span thousands of
    bits, as the Boltzmann weights of a long thermal chain do: one
    exponent for all would make every product that wide.  ``complex``
    flags the entries that are mpc (one with a zero imaginary part
    included); an entry of a product is complex where the row of the left
    factor or the column of the right one holds a complex entry, as in
    ``fdot``.
    """

    __slots__ = ("slabs", "shape", "complex", "mp", "_merged")

    def __init__(self, slabs, shape, complex, mp, merged=None):
        self.slabs, self.shape, self.complex, self.mp, self._merged = slabs, shape, complex, mp, merged

    @classmethod
    def of(cls, a: np.ndarray, mp: mpmath.MPContext) -> Mantissas:
        """The exact mantissas of a 2-D array of mpmath numbers
        (:func:`_entries`)."""
        parts, is_complex = _entries(a, mp)
        shape = (len(parts) // a.size, *a.shape)
        exps = [e for _, m, e, _ in parts if m]
        low, width = min(exps, default=0), 8 * mp.prec
        if max(exps, default=low) - low < width:  # one slab per part, on every column
            ints = [(-m if s else m) << (e - low) if m else 0 for s, m, e, _ in parts]
            ints = np.array(ints, dtype=object).reshape(shape)
            return cls._exact(ints[0], ints[1] if shape[0] == 2 else None, low, is_complex, mp)
        man = np.array([-m if s else m for s, m, _, _ in parts], dtype=object).reshape(shape)
        exp = np.array([e for _, _, e, _ in parts], dtype=np.int64).reshape(shape)
        band = np.where(man != 0, (exp - low) // width, -1)
        slabs = []
        for part in range(shape[0]):
            for k in sorted(set(band[part][band[part] >= 0].tolist())):
                here = band[part] == k
                cols = np.flatnonzero(here.any(axis=0))
                base = low + k * width
                shift = np.where(here[:, cols], exp[part][:, cols] - base, 0).astype(object)
                slabs.append((part, base, cols, np.where(here[:, cols], man[part][:, cols] << shift, 0)))
        return cls(slabs, a.shape, is_complex, mp)

    @classmethod
    def _exact(cls, re, im, exp, is_complex, mp) -> Mantissas:
        """(re + i im) * 2**exp in one slab per part; im None is zero.
        IS_COMPLEX None flags every entry complex where im is given."""
        is_complex = np.full(re.shape, im is not None) if is_complex is None else is_complex
        every = np.arange(re.shape[1])
        slabs = [(part, exp, every, x) for part, x in enumerate((re, im)) if x is not None]
        return cls(slabs, re.shape, is_complex, mp, (re, im, exp))

    def merged(self) -> tuple[np.ndarray, np.ndarray | None, int]:
        """(re, im, exp): the whole matrix at one exponent, entry (i, j)
        (re[i, j] + i im[i, j]) * 2**exp; im is None when no entry is
        complex.  Formed once, for use as a right operand."""
        if self._merged is None:
            low = min((base for _, base, _, _ in self.slabs), default=0)
            re, im = (np.zeros(self.shape, dtype=object) for _ in range(2))
            for part, base, cols, ints in self.slabs:
                (re, im)[part][:, cols] += ints << (base - low)
            self._merged = re, (im if self.complex.any() else None), low
        return self._merged

    def summed_columns(self, groups: np.ndarray, count: int) -> Mantissas:
        """The matrix whose column g is the exact sum of the columns j with
        groups[j] == g, for groups that each hold a column: a product with
        it equals, bit for bit, the product of self with the rows of the
        other operand expanded by ``groups``."""
        slabs = []
        for part, base, cols, ints in self.slabs:
            summed, where = np.unique(groups[cols], return_inverse=True)
            out = np.zeros((self.shape[0], len(summed)), dtype=object)
            np.add.at(out, (slice(None), where), ints)
            slabs.append((part, base, summed, out))
        is_complex = np.zeros((self.shape[0], count), dtype=bool)
        np.logical_or.at(is_complex, (slice(None), groups), self.complex)
        return Mantissas(slabs, (self.shape[0], count), is_complex, self.mp)

    def product(self, *others: Mantissas) -> Mantissas:
        """self @ others[0] @ ..., from left to right, exactly: nothing is
        rounded."""
        re_o, im_o, exp = others[0].merged()
        low = min((base for _, base, _, _ in self.slabs), default=0)
        acc = None, None  # the exact product so far, (re, im) at 2**exp; None is zero
        for part, base, cols, ints in self.slabs:
            right = re_o[cols], None if im_o is None else im_o[cols]
            partial = _product((None, ints) if part else (ints, None), right)
            acc = tuple(_sum(a, p if p is None or base == low else p << (base - low)) for a, p in zip(acc, partial))
        exp += low
        for other in others[1:]:
            re_o, im_o, step = other.merged()
            acc, exp = _product(acc, (re_o, im_o)), exp + step
        is_complex = self.complex
        for other in others:
            is_complex = is_complex.any(axis=1)[:, None] | other.complex.any(axis=0)[None, :]
        re, im = acc  # re is None only where every nonzero entry of self is imaginary and others real
        return Mantissas._exact(np.zeros(im.shape, dtype=object) if re is None else re, im, exp, is_complex, self.mp)

    def __add__(self, other: Mantissas, sign: int = 1) -> Mantissas:
        """The entrywise sum (numpy broadcasting), exactly: both held at
        the lower of their exponents."""
        (r1, i1, e1), (r2, i2, e2) = self.merged(), other.merged()
        low = min(e1, e2)
        x, y = ([None if p is None else p << (e - low) if e > low else p for p in parts]
                for parts, e in (((r1, i1), e1), ((r2, i2), e2)))
        y = [None if p is None else -p for p in y] if sign < 0 else y
        return Mantissas._exact(*(_sum(a, b) for a, b in zip(x, y)), low, self.complex | other.complex, self.mp)

    def __sub__(self, other: Mantissas) -> Mantissas:
        return self.__add__(other, -1)

    def __mul__(self, other: Mantissas) -> Mantissas:
        """The entrywise product (numpy broadcasting), exactly."""
        (r1, i1, e1), (r2, i2, e2) = self.merged(), other.merged()
        re, im = _product((r1, i1), (r2, i2), operator.mul)
        return Mantissas._exact(re, im, e1 + e2, self.complex | other.complex, self.mp)

    def conjugate(self) -> Mantissas:
        re, im, exp = self.merged()
        return Mantissas._exact(re, None if im is None else -im, exp, self.complex, self.mp)

    @property
    def T(self) -> Mantissas:
        re, im, exp = self.merged()
        return Mantissas._exact(re.T, None if im is None else im.T, exp, self.complex.T, self.mp)

    def largest_abs(self):
        """max |entry| as an mpf: the largest exact square re^2 + im^2,
        its square root rounded once."""
        re, im, exp = self.merged()
        squares = re * re if im is None else re * re + im * im
        prec, rnd = self.mp._prec_rounding
        return self.mp.make_mpf(mpf_sqrt(from_man_exp(max(squares.flat, default=0), 2 * exp), prec, rnd))

    def rounded(self) -> np.ndarray:
        """Each entry rounded once with ``from_man_exp`` at the context's
        precision and rounding: an mpf, or an mpc where it is complex."""
        re, im, exp = self.merged()
        mp, (prec, rnd) = self.mp, self.mp._prec_rounding
        out = np.array([mp.make_mpf(from_man_exp(m, exp, prec, rnd)) for m in re.flat], dtype=object)
        where = np.flatnonzero(self.complex)
        ims = [fzero] * where.size if im is None else [from_man_exp(im.flat[k], exp, prec, rnd) for k in where]
        out[where] = [mp.make_mpc((out[k]._mpf_, x)) for k, x in zip(where, ims)]
        return out.reshape(self.shape)


#: The exponent of a zero in :meth:`Context.gram_schmidt`: it lowers no minimum.
_FAR = 1 << 40


def _entries(a: np.ndarray, mp: mpmath.MPContext) -> tuple:
    """(parts, complex) of an array of mpmath numbers (other scalars are
    converted as ``fdot`` converts them): the raw mpf values of the real
    parts of its entries, then of the imaginary parts if any entry is
    complex, and the flags of the complex entries.  An infinite or NaN entry
    raises :class:`~krylov_exact.errors.NonFiniteValue`."""
    flat = a.ravel().tolist()
    parts, is_complex = [getattr(x, "_mpf_", None) for x in flat], np.zeros(a.shape, dtype=bool)
    if None in parts:  # an mpc, or a scalar to convert
        flat = [x if _is_mp(x) else mp.convert(x) for x in flat]
        is_complex = np.array([hasattr(x, "_mpc_") for x in flat], dtype=bool).reshape(a.shape)
        parts = [x._mpc_[0] if hasattr(x, "_mpc_") else x._mpf_ for x in flat]
        if is_complex.any():
            parts += [x._mpc_[1] if hasattr(x, "_mpc_") else fzero for x in flat]
    for k, (_, m, e, _) in enumerate(parts):
        if not m and e:
            raise NonFiniteValue(f"entry {tuple(map(int, np.unravel_index(k % a.size, a.shape)))} is {flat[k % a.size]}")
    return parts, is_complex


def _products(x: tuple, y: tuple) -> tuple:
    """The nonzero products (mantissas, exponents) in the real and in the
    imaginary part of x y, for x and y held as (re, im)."""
    (xr, xi), (yr, yi) = x, y
    return tuple([(a[0] * b[0] if sign > 0 else -(a[0] * b[0]), a[1] + b[1]) for sign, a, b in terms if a and b]
                 for terms in (((1, xr, yr), (-1, xi, yi)), ((1, xr, yi), (1, xi, yr))))


def _dot(products: list, prec: int, rnd) -> tuple | None:
    """The exact sum of PRODUCTS rounded once, (mantissa, exponent); None is 0."""
    low = min((int(e.min()) for _, e in products), default=0)
    s, m, e, _ = from_man_exp(sum(int((m << (e - low)).sum()) for m, e in products), low, prec, rnd)
    return (-m if s else m, e) if m else None


def _less(part: tuple | None, products: list) -> tuple | None:
    """PART (None is zero) less PRODUCTS, entry by entry, exactly."""
    if part is None and not products:
        return None
    man, exp = part or (np.zeros(1, dtype=object), _FAR)
    low = reduce(np.minimum, [exp, *(e for _, e in products)])
    return reduce(operator.sub, (m << (e - low) for m, e in products), man << (exp - low)), low


def _sum(*terms):
    """The sum of the integer arrays among TERMS, None (zero) if there is none."""
    terms = [t for t in terms if t is not None]
    return sum(terms[1:], terms[0]) if terms else None


def _product(x: tuple, y: tuple, op=operator.matmul) -> tuple:
    """The exact product op(x, y), x @ y by default, of complex integer
    arrays held as (re, im), None for a part that is zero, for any OP
    bilinear over the integers."""
    (xr, xi), (yr, yi) = x, y

    def mul(u, v):
        return None if u is None or v is None else op(u, v)

    ii = mul(xi, yi)
    return _sum(mul(xr, yr), None if ii is None else -ii), _sum(mul(xr, yi), mul(xi, yr))


def symmetric_eigen(h: np.ndarray, mp: mpmath.MPContext) -> tuple[np.ndarray, np.ndarray]:
    """(E, Q): the eigenvalues of a real symmetric tridiagonal matrix in
    ascending order and the orthogonal Q with h = Q diag(E) Q^T, both at
    the precision and rounding of ``mp``.

    Only h's diagonal d and superdiagonal e are read: every other entry
    counts as zero (:func:`~krylov_exact.operators.eig_symmetric` checks
    that it is).  The eigenvalues come from implicit QL with Wilkinson's
    shift: EISPACK's ``imtql2`` (Martin & Wilkinson, *Numer. Math.* 12
    (1968) 377; Dubrulle, *Numer. Math.* 15 (1970) 450), the routine
    mpmath's ``eigsy`` runs after its Householder reduction, here on d and
    e as raw mpf values rounded at ``mp``'s precision and rounding.  An
    mpf cannot overflow, so each rotation takes r = hypot(f, g) directly.
    Q starts as the identity, its columns held as Python-int fixed point
    with 32 guard bits, at 2**-(prec + 32), far below the 2**-prec
    rounding of c and s; each Givens rotation (c, s) acts on two of them,
    and each entry of Q is rounded once at the end (``mp.ldexp`` of its
    integer, which is ``from_man_exp`` at ``mp``'s precision and
    rounding).  An eigenvalue still coupled after 2 * dps sweeps raises
    :class:`~krylov_exact.errors.EigenNotConverged`.
    """
    n, (prec, rnd), bits = len(h), mp._prec_rounding, mp.prec + 32
    add, sub, mul, div, hypot = (
        partial(f, prec=prec, rnd=rnd) for f in (mpf_add, mpf_sub, mpf_mul, mpf_div, mpf_hypot))
    d, e = ([mp.convert(x)._mpf_ for x in v] for v in (h.diagonal(), [*h.diagonal(1), 0]))
    cols = [[1 << bits if i == k else 0 for i in range(n)] for k in range(n)]
    eps, sweeps = mp.eps._mpf_, 2 * mp.dps
    for l in range(n):
        for sweep in range(sweeps + 1):
            m = l
            # the splitting test, exact: e[m] is negligible next to d[m] and d[m + 1]
            while m + 1 < n and not mpf_le(mpf_abs(e[m]), mpf_mul(eps, mpf_add(mpf_abs(d[m]), mpf_abs(d[m + 1])))):
                m += 1
            if m == l:
                break
            if sweep == sweeps:
                raise EigenNotConverged(f"implicit QL: eigenvalue {l} still coupled after {sweeps} sweeps")
            g = div(sub(d[l + 1], d[l]), add(e[l], e[l]))
            g = add(sub(d[m], d[l]), div(e[l], (sub if g[0] else add)(g, hypot(g, fone))))
            s = c = fone
            p = fzero
            for i in range(m - 1, l - 1, -1):
                f, b = mul(s, e[i]), mul(c, e[i])
                e[i + 1] = r = hypot(f, g)
                s, c = div(f, r), div(g, r)
                g = sub(d[i + 1], p)
                r = add(mul(sub(d[i], g), s), mul(add(c, c), b))
                p = mul(s, r)
                d[i + 1], g = add(g, p), sub(mul(c, r), b)
                ci, si = to_fixed(c, bits), to_fixed(s, bits)
                cols[i : i + 2] = zip(
                    *[((ci * u - si * v) >> bits, (si * u + ci * v) >> bits) for u, v in zip(*cols[i : i + 2])])
            d[l] = sub(d[l], p)
            e[l], e[m] = g, fzero
    d = np.array([mp.make_mpf(x) for x in d], dtype=object)
    order = np.argsort(d)
    return d[order], np.array([[mp.ldexp(x, -bits) for x in cols[k]] for k in order], dtype=object).T

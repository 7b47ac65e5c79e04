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
"""

from __future__ import annotations

import copyreg
import math
import numbers
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import mpmath
import numpy as np

from .errors import DimensionMismatch, ModeError

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
        forms every product exactly and rounds the sum once, at this
        context's precision, instead of once per product and per partial
        sum; real and complex entries mix freely.
        """
        if len(u) != len(v):
            raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
        if self.is_exact:
            return (u * v).sum()
        return self.mp.fdot(u, v)

    def matmul(self, a, b):
        """The matrix product a @ b of two 2-D object arrays, each entry
        one :meth:`dot` of a row of ``a`` and a column of ``b``.

        Exact mode gives ``a @ b`` in type and value.  Bigreal mode rounds
        each entry once, real and complex entries mixed.
        """
        if a.shape[1] != b.shape[0]:
            raise DimensionMismatch(f"matmul of shapes {a.shape} and {b.shape}")
        out = np.empty((a.shape[0], b.shape[1]), dtype=object)
        cols = list(b.T)
        for i, row in enumerate(a):
            out[i] = [self.dot(row, col) for col in cols]
        return out

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

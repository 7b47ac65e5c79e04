"""The sixteen solvable systems and their defining data.

Each system supplies, as plain functions of the level/lattice index:

* ``B(x)``, ``D(x)``           hopping data of the tridiagonal Hamiltonian,
* ``eta(x)``                   the sinusoidal coordinate (diagonal operator),
* ``energy(n)``                the spectrum, with ``energy(0) = 0``,
* ``A(n)``, ``C(n)``           three-term recurrence coefficients,
* ``eta_diag(n)``              the level-diagonal matrix element of eta,
* ``alpha_plus/minus(n)``      the two Heisenberg frequencies at level n,
* ``r0/r1`` coefficient tuples the closure polynomials (degree <= 2 and 1).

The ten finite families have dimension N+1 and admit purely rational
evaluation; the six thermal families (Meixner, Charlier, Hermite,
Laguerre, Gegenbauer, Jacobi) have unbounded spectra and are summed with
Boltzmann weights elsewhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .errors import (
    IndexOutOfRange,
    MissingParameter,
    ParameterOutOfRange,
    PositivityViolation,
)
from .numeric import BIGREAL, EXACT, Context


class SystemKind(Enum):
    KRAWTCHOUK = "krawtchouk"
    HAHN = "hahn"
    DUAL_HAHN = "dual-hahn"
    RACAH = "racah"
    QUANTUM_Q_KRAWTCHOUK = "quantum-q-krawtchouk"
    Q_KRAWTCHOUK = "q-krawtchouk"
    AFFINE_Q_KRAWTCHOUK = "affine-q-krawtchouk"
    Q_HAHN = "q-hahn"
    DUAL_Q_HAHN = "dual-q-hahn"
    Q_RACAH = "q-racah"
    MEIXNER = "meixner"
    CHARLIER = "charlier"
    HERMITE = "hermite"
    LAGUERRE = "laguerre"
    GEGENBAUER = "gegenbauer"
    JACOBI = "jacobi"

    @property
    def is_finite(self) -> bool:
        return self in _FINITE


_FINITE = {
    SystemKind.KRAWTCHOUK,
    SystemKind.HAHN,
    SystemKind.DUAL_HAHN,
    SystemKind.RACAH,
    SystemKind.QUANTUM_Q_KRAWTCHOUK,
    SystemKind.Q_KRAWTCHOUK,
    SystemKind.AFFINE_Q_KRAWTCHOUK,
    SystemKind.Q_HAHN,
    SystemKind.DUAL_Q_HAHN,
    SystemKind.Q_RACAH,
}

#: Required parameter names per system.
REQUIRED_PARAMS = {
    SystemKind.KRAWTCHOUK: ("p",),
    SystemKind.HAHN: ("a", "b"),
    SystemKind.DUAL_HAHN: ("a", "b"),
    SystemKind.RACAH: ("a", "b", "d"),
    SystemKind.QUANTUM_Q_KRAWTCHOUK: ("p", "q"),
    SystemKind.Q_KRAWTCHOUK: ("p", "q"),
    SystemKind.AFFINE_Q_KRAWTCHOUK: ("p", "q"),
    SystemKind.Q_HAHN: ("a", "b", "q"),
    SystemKind.DUAL_Q_HAHN: ("a", "b", "q"),
    SystemKind.Q_RACAH: ("a", "b", "d", "q"),
    SystemKind.MEIXNER: ("b", "c"),
    SystemKind.CHARLIER: ("a",),
    SystemKind.HERMITE: (),
    SystemKind.LAGUERRE: ("g",),
    SystemKind.GEGENBAUER: ("g",),
    SystemKind.JACOBI: ("g", "h"),
}

#: Built-in parameter samples used by `verify --all`, the demos, and the
#: default chain classification.  All values are exact-friendly strings.
DEFAULT_PARAMS = {
    SystemKind.KRAWTCHOUK: (6, {"p": "1/3"}),
    SystemKind.HAHN: (6, {"a": "1", "b": "3/2"}),
    SystemKind.DUAL_HAHN: (6, {"a": "1", "b": "2"}),
    SystemKind.RACAH: (6, {"d": "1", "a": "8", "b": "3/2"}),
    SystemKind.QUANTUM_Q_KRAWTCHOUK: (6, {"q": "1/2", "p": "100"}),
    SystemKind.Q_KRAWTCHOUK: (6, {"q": "1/2", "p": "2/3"}),
    SystemKind.AFFINE_Q_KRAWTCHOUK: (6, {"q": "1/2", "p": "3/2"}),
    SystemKind.Q_HAHN: (6, {"q": "1/2", "a": "1/2", "b": "1/3"}),
    SystemKind.DUAL_Q_HAHN: (6, {"q": "1/2", "a": "1/2", "b": "1/2"}),
    SystemKind.Q_RACAH: (6, {"q": "1/2", "d": "1/2", "a": "1/256", "b": "3/4"}),
    SystemKind.MEIXNER: (None, {"c": "1/2", "b": "1"}),
    SystemKind.CHARLIER: (None, {"a": "1"}),
    SystemKind.HERMITE: (None, {}),
    SystemKind.LAGUERRE: (None, {"g": "3/2"}),
    SystemKind.GEGENBAUER: (None, {"g": "2"}),
    SystemKind.JACOBI: (None, {"g": "2", "h": "3"}),
}


@dataclass(frozen=True)
class SystemSpec:
    """A validated system with all of its data functions bound."""

    kind: SystemKind
    N: int | None
    params: dict
    ctx: Context
    _fns: dict = field(repr=False)

    @property
    def is_finite(self) -> bool:
        return self.kind.is_finite

    @property
    def dim(self) -> int:
        if not self.is_finite:
            raise IndexOutOfRange(f"{self.kind.value} has no finite dimension")
        return self.N + 1

    def B(self, x):
        return self._fns["B"](x)

    def D(self, x):
        return self._fns["D"](x)

    def eta(self, x):
        return self._fns["eta"](x)

    def energy(self, n):
        return self._fns["energy"](n)

    def A(self, n):
        return self._fns["A"](n)

    def C(self, n):
        return self._fns["C"](n)

    def eta_diag(self, n):
        """Level-diagonal matrix element <n|eta|n>."""
        return self._fns["eta_diag"](n)

    def ac_product(self, n):
        """A(n) * C(n+1), the squared off-diagonal element of eta."""
        return self.A(n) * self.C(n + 1)

    def alpha_plus(self, n):
        return self._fns["alpha_plus"](n)

    def alpha_minus(self, n):
        return self._fns["alpha_minus"](n)

    @property
    def r0_coeffs(self) -> tuple:
        """Ascending coefficients of R_0 as a polynomial of the Hamiltonian."""
        return self._fns["r0"]

    @property
    def r1_coeffs(self) -> tuple:
        return self._fns["r1"]

    def r0_at(self, e):
        return _polyval(self.r0_coeffs, e)

    def r1_at(self, e):
        return _polyval(self.r1_coeffs, e)

    def norm_eta_sq(self):
        """Sum of eta(x)^2 over the lattice (finite systems only)."""
        if not self.is_finite:
            raise IndexOutOfRange("norm_eta_sq is a finite-system quantity")
        total = self.ctx.zero
        for x in range(self.N + 1):
            total = total + self.eta(x) ** 2
        return total

    def check_level(self, n: int, upper: int | None = None):
        hi = upper if upper is not None else (self.N if self.is_finite else None)
        if n < 0 or (hi is not None and n > hi):
            raise IndexOutOfRange(f"level {n} outside 0..{hi}")


def _polyval(coeffs, e):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * e + c
    return acc


# ---------------------------------------------------------------------------
# Per-system data builders.  Each returns the function table given the
# context, N, and the validated parameter dict.  `w2` below is the
# ubiquitous q-shift constant (q**-1/2 - q**1/2)**2 = 1/q - 2 + q, which
# is rational and keeps every formula square-root free.
# ---------------------------------------------------------------------------


def _krawtchouk(ctx, N, P):
    p = P["p"]
    one = ctx.one
    return {
        "B": lambda x: p * (N - x),
        "D": lambda x: (1 - p) * x,
        "eta": lambda x: ctx.num(x),
        "energy": lambda n: ctx.num(n),
        "A": lambda n: -p * (N - n),
        "C": lambda n: -(1 - p) * n,
        "alpha_plus": lambda n: one,
        "alpha_minus": lambda n: -one,
        "r0": (ctx.one,),
        "r1": (ctx.zero,),
    }


def _hahn(ctx, N, P):
    a, b = P["a"], P["b"]
    s = a + b
    return {
        "B": lambda x: (x + a) * (N - x),
        "D": lambda x: x * (b + N - x),
        "eta": lambda x: ctx.num(x),
        "energy": lambda n: n * (n + s - 1),
        "A": lambda n: -(n + a) * (n + s - 1) * (N - n) / ((2 * n - 1 + s) * (2 * n + s)),
        "C": lambda n: -n * (n + b - 1) * (n + s + N - 1) / ((2 * n - 2 + s) * (2 * n - 1 + s)),
        "alpha_plus": lambda n: 2 * n + s,
        "alpha_minus": lambda n: -(2 * n + s - 2),
        "r0": ((s - 2) * s, ctx.num(4)),
        "r1": (ctx.num(2),),
    }


def _dual_hahn(ctx, N, P):
    a, b = P["a"], P["b"]
    s = a + b
    one = ctx.one
    return {
        "B": lambda x: (x + a) * (x + s - 1) * (N - x) / ((2 * x - 1 + s) * (2 * x + s)),
        "D": lambda x: x * (x + b - 1) * (x + s + N - 1) / ((2 * x - 2 + s) * (2 * x - 1 + s)),
        "eta": lambda x: x * (x + s - 1),
        "energy": lambda n: ctx.num(n),
        "A": lambda n: -(n + a) * (N - n),
        "C": lambda n: -n * (b + N - n),
        "alpha_plus": lambda n: one,
        "alpha_minus": lambda n: -one,
        "r0": (ctx.one,),
        "r1": (ctx.zero,),
    }


def _racah(ctx, N, P):
    a, b, d = P["a"], P["b"], P["d"]
    dt = a + b - N - d - 1
    return {
        "B": lambda x: -(x + a) * (x + b) * (x - N) * (x + d) / ((2 * x + d) * (2 * x + d + 1)),
        "D": lambda x: -(x + d - a) * (x + d - b) * (x + d + N) * x / ((2 * x + d - 1) * (2 * x + d)),
        "eta": lambda x: x * (x + d),
        "energy": lambda n: n * (n + dt),
        "A": lambda n: (n + a) * (n + b) * (n - N) * (n + dt) / ((2 * n + dt) * (2 * n + dt + 1)),
        "C": lambda n: (n + dt - a) * (n + dt - b) * (n + dt + N) * n / ((2 * n + dt - 1) * (2 * n + dt)),
        "alpha_plus": lambda n: 2 * n + dt + 1,
        "alpha_minus": lambda n: -(2 * n + dt - 1),
        "r0": (dt * dt - 1, ctx.num(4)),
        "r1": (ctx.num(2),),
    }


def _quantum_q_krawtchouk(ctx, N, P):
    p, q = P["p"], P["q"]
    w2 = 1 / q - 2 + q
    return {
        "B": lambda x: q**x * (q ** (x - N) - 1) / p,
        "D": lambda x: (1 - q**x) * (1 - q ** (x - N - 1) / p),
        "eta": lambda x: q**-x - 1,
        "energy": lambda n: 1 - q**n,
        "A": lambda n: -(q ** (-n - N - 1)) * (1 - q ** (N - n)) / p,
        "C": lambda n: -(q**-n - 1) * (1 - q**-n / p),
        "alpha_plus": lambda n: (1 - q) * q**n,
        "alpha_minus": lambda n: -(1 / q - 1) * q**n,
        # R_0 = w2*(H-1)^2, R_1 = w2*(H-1)
        "r0": (w2, -2 * w2, w2),
        "r1": (-w2, w2),
    }


def _q_krawtchouk(ctx, N, P):
    p, q = P["p"], P["q"]
    w2 = 1 / q - 2 + q
    u = 1 - p
    return {
        "B": lambda x: q ** (x - N) - 1,
        "D": lambda x: p * (1 - q**x),
        "eta": lambda x: q**-x - 1,
        "energy": lambda n: (q**-n - 1) * (1 + p * q**n),
        "A": lambda n: -(q ** (n - N) - 1) * (1 + p * q**n)
        / ((1 + p * q ** (2 * n)) * (1 + p * q ** (2 * n + 1))),
        "C": lambda n: -p * q ** (2 * n - N - 1) * (1 - q**n) * (1 + p * q ** (n + N))
        / ((1 + p * q ** (2 * n - 1)) * (1 + p * q ** (2 * n))),
        "alpha_plus": lambda n: (1 / q - 1) * (q**-n + p * q ** (n + 1)),
        "alpha_minus": lambda n: -(1 - q) * (q**-n + p * q ** (n - 1)),
        # R_0 = w2*((H+1-p)^2 + p*(1/q + 2 + q)), R_1 = w2*(H+1-p)
        "r0": (w2 * (u * u + p * (1 / q + 2 + q)), 2 * w2 * u, w2),
        "r1": (w2 * u, w2),
    }


def _affine_q_krawtchouk(ctx, N, P):
    p, q = P["p"], P["q"]
    w2 = 1 / q - 2 + q
    return {
        "B": lambda x: (q ** (x - N) - 1) * (1 - p * q ** (x + 1)),
        "D": lambda x: p * q ** (x - N) * (1 - q**x),
        "eta": lambda x: q**-x - 1,
        "energy": lambda n: q**-n - 1,
        "A": lambda n: -(q ** (n - N) - 1) * (1 - p * q ** (n + 1)),
        "C": lambda n: -p * q ** (n - N) * (1 - q**n),
        "alpha_plus": lambda n: (1 / q - 1) * q**-n,
        "alpha_minus": lambda n: (q - 1) * q**-n,
        # R_0 = w2*(H+1)^2, R_1 = w2*(H+1)
        "r0": (w2, 2 * w2, w2),
        "r1": (w2, w2),
    }


def _q_hahn(ctx, N, P):
    a, b, q = P["a"], P["b"], P["q"]
    w2 = 1 / q - 2 + q
    ab = a * b
    s = 1 + ab / q
    return {
        "B": lambda x: (1 - a * q**x) * (q ** (x - N) - 1),
        "D": lambda x: a / q * (1 - q**x) * (q ** (x - N) - b),
        "eta": lambda x: q**-x - 1,
        "energy": lambda n: (q**-n - 1) * (1 - ab * q ** (n - 1)),
        "A": lambda n: -(q ** (n - N) - 1) * (1 - a * q**n) * (1 - ab * q ** (n - 1))
        / ((1 - ab * q ** (2 * n - 1)) * (1 - ab * q ** (2 * n))),
        "C": lambda n: -a * q ** (n - N - 1) * (1 - q**n) * (1 - ab * q ** (n + N - 1)) * (1 - b * q ** (n - 1))
        / ((1 - ab * q ** (2 * n - 2)) * (1 - ab * q ** (2 * n - 1))),
        "alpha_plus": lambda n: (1 / q - 1) * (q**-n - ab * q**n),
        "alpha_minus": lambda n: -(1 - q) * (q**-n - ab * q ** (n - 2)),
        # R_0 = w2*((H+s)^2 - ab*(1 + 1/q)^2), R_1 = w2*(H+s)
        "r0": (w2 * (s * s - ab * (1 + 1 / q) ** 2), 2 * w2 * s, w2),
        "r1": (w2 * s, w2),
    }


def _dual_q_hahn(ctx, N, P):
    a, b, q = P["a"], P["b"], P["q"]
    w2 = 1 / q - 2 + q
    ab = a * b
    return {
        "B": lambda x: (q ** (x - N) - 1) * (1 - a * q**x) * (1 - ab * q ** (x - 1))
        / ((1 - ab * q ** (2 * x - 1)) * (1 - ab * q ** (2 * x))),
        "D": lambda x: a * q ** (x - N - 1) * (1 - q**x) * (1 - ab * q ** (x + N - 1)) * (1 - b * q ** (x - 1))
        / ((1 - ab * q ** (2 * x - 2)) * (1 - ab * q ** (2 * x - 1))),
        "eta": lambda x: (q**-x - 1) * (1 - ab * q ** (x - 1)),
        "energy": lambda n: q**-n - 1,
        "A": lambda n: -(1 - a * q**n) * (q ** (n - N) - 1),
        "C": lambda n: -a / q * (1 - q**n) * (q ** (n - N) - b),
        "alpha_plus": lambda n: (1 / q - 1) * q**-n,
        "alpha_minus": lambda n: (q - 1) * q**-n,
        "r0": (w2, 2 * w2, w2),
        "r1": (w2, w2),
    }


def _q_racah(ctx, N, P):
    a, b, d, q = P["a"], P["b"], P["d"], P["q"]
    w2 = 1 / q - 2 + q
    dt = a * b / d * q ** (-N - 1)
    s = 1 + dt
    return {
        "B": lambda x: -(1 - a * q**x) * (1 - b * q**x) * (1 - q ** (x - N)) * (1 - d * q**x)
        / ((1 - d * q ** (2 * x)) * (1 - d * q ** (2 * x + 1))),
        "D": lambda x: -dt * (1 - d * q**x / a) * (1 - d * q**x / b) * (1 - d * q ** (N + x)) * (1 - q**x)
        / ((1 - d * q ** (2 * x - 1)) * (1 - d * q ** (2 * x))),
        "eta": lambda x: (q**-x - 1) * (1 - d * q**x),
        "energy": lambda n: (q**-n - 1) * (1 - dt * q**n),
        "A": lambda n: (1 - a * q**n) * (1 - b * q**n) * (1 - q ** (n - N)) * (1 - dt * q**n)
        / ((1 - dt * q ** (2 * n)) * (1 - dt * q ** (2 * n + 1))),
        "C": lambda n: d * (1 - dt * q**n / a) * (1 - dt * q**n / b) * (1 - dt * q ** (n + N)) * (1 - q**n)
        / ((1 - dt * q ** (2 * n - 1)) * (1 - dt * q ** (2 * n))),
        "alpha_plus": lambda n: (1 / q - 1) * (q**-n - dt * q ** (n + 1)),
        "alpha_minus": lambda n: -(1 - q) * (q**-n - dt * q ** (n - 1)),
        # R_0 = w2*((H+1+dt)^2 - (1/q + 2 + q)*dt), R_1 = w2*(H+1+dt)
        "r0": (w2 * (s * s - (1 / q + 2 + q) * dt), 2 * w2 * s, w2),
        "r1": (w2 * s, w2),
    }


def _meixner(ctx, N, P):
    b, c = P["b"], P["c"]
    one = ctx.one
    return {
        "B": lambda x: c / (1 - c) * (x + b),
        "D": lambda x: x / (1 - c),
        "eta": lambda x: ctx.num(x),
        "energy": lambda n: ctx.num(n),
        "A": lambda n: -c / (1 - c) * (n + b),
        "C": lambda n: -n / (1 - c),
        "alpha_plus": lambda n: one,
        "alpha_minus": lambda n: -one,
        "r0": (ctx.one,),
        "r1": (ctx.zero,),
    }


def _charlier(ctx, N, P):
    a = P["a"]
    one = ctx.one
    return {
        "B": lambda x: a,
        "D": lambda x: ctx.num(x),
        "eta": lambda x: ctx.num(x),
        "energy": lambda n: ctx.num(n),
        "A": lambda n: -a,
        "C": lambda n: -ctx.num(n),
        "alpha_plus": lambda n: one,
        "alpha_minus": lambda n: -one,
        "r0": (ctx.one,),
        "r1": (ctx.zero,),
    }


def _hermite(ctx, N, P):
    half = ctx.frac(1, 2)
    two = ctx.num(2)
    return {
        "B": None,
        "D": None,
        "eta": None,
        "energy": lambda n: ctx.num(2 * n),
        "A": lambda n: half,
        "C": lambda n: ctx.num(n),
        "eta_diag": lambda n: ctx.zero,
        "alpha_plus": lambda n: two,
        "alpha_minus": lambda n: -two,
        "r0": (ctx.num(4),),
        "r1": (ctx.zero,),
    }


def _laguerre(ctx, N, P):
    g = P["g"]
    half = ctx.frac(1, 2)
    four = ctx.num(4)
    return {
        "B": None,
        "D": None,
        "eta": None,
        "energy": lambda n: ctx.num(4 * n),
        "A": lambda n: -(ctx.num(n) + 1),
        "C": lambda n: -(n + g - half),
        "eta_diag": lambda n: 2 * n + g + half,
        "alpha_plus": lambda n: four,
        "alpha_minus": lambda n: -four,
        "r0": (ctx.num(16),),
        "r1": (ctx.zero,),
    }


def _gegenbauer(ctx, N, P):
    g = P["g"]
    return {
        "B": None,
        "D": None,
        "eta": None,
        "energy": lambda n: n * (n + 2 * g),
        "A": lambda n: (n + 1) / (2 * (n + g)),
        "C": lambda n: (n + 2 * g - 1) / (2 * (n + g)),
        "eta_diag": lambda n: ctx.zero,
        "alpha_plus": lambda n: 2 * (n + g) + 1,
        "alpha_minus": lambda n: -(2 * n + 2 * g - 1),
        # R_0 = 4*(H + g^2) - 1, R_1 = 2
        "r0": (4 * g * g - 1, ctx.num(4)),
        "r1": (ctx.num(2),),
    }


def _jacobi(ctx, N, P):
    g, h = P["g"], P["h"]
    s = g + h
    half = ctx.frac(1, 2)
    return {
        "B": None,
        "D": None,
        "eta": None,
        "energy": lambda n: 4 * n * (n + s),
        "A": lambda n: 2 * (n + 1) * (n + s) / ((2 * n + s) * (2 * n + s + 1)),
        "C": lambda n: 2 * (n + g - half) * (n + h - half) / ((2 * n + s - 1) * (2 * n + s)),
        "eta_diag": lambda n: (h - g) * (s - 1) / ((2 * n + s - 1) * (2 * n + s + 1)),
        "alpha_plus": lambda n: 4 * (2 * n + s + 1),
        "alpha_minus": lambda n: -4 * (2 * n + s - 1),
        # R_0 = 16*(H + (g+h)^2 - 1), R_1 = 8
        "r0": (16 * (s * s - 1), ctx.num(16)),
        "r1": (ctx.num(8),),
    }


_BUILDERS: dict[SystemKind, Callable] = {
    SystemKind.KRAWTCHOUK: _krawtchouk,
    SystemKind.HAHN: _hahn,
    SystemKind.DUAL_HAHN: _dual_hahn,
    SystemKind.RACAH: _racah,
    SystemKind.QUANTUM_Q_KRAWTCHOUK: _quantum_q_krawtchouk,
    SystemKind.Q_KRAWTCHOUK: _q_krawtchouk,
    SystemKind.AFFINE_Q_KRAWTCHOUK: _affine_q_krawtchouk,
    SystemKind.Q_HAHN: _q_hahn,
    SystemKind.DUAL_Q_HAHN: _dual_q_hahn,
    SystemKind.Q_RACAH: _q_racah,
    SystemKind.MEIXNER: _meixner,
    SystemKind.CHARLIER: _charlier,
    SystemKind.HERMITE: _hermite,
    SystemKind.LAGUERRE: _laguerre,
    SystemKind.GEGENBAUER: _gegenbauer,
    SystemKind.JACOBI: _jacobi,
}

# Parameter range constraints: (name of inequality, predicate on params).
# `N` and derived quantities are available through the closure arguments.


def _range_checks(kind: SystemKind, N, P, ctx):
    def fail(desc):
        raise ParameterOutOfRange(f"{kind.value}: requires {desc}")

    if kind is SystemKind.KRAWTCHOUK:
        if not (0 < P["p"] < 1):
            fail("0 < p < 1")
    elif kind in (SystemKind.HAHN, SystemKind.DUAL_HAHN):
        if not (P["a"] > 0 and P["b"] > 0):
            fail("a, b > 0")
    elif kind is SystemKind.RACAH:
        if not P["d"] > 0:
            fail("d > 0")
        if not P["a"] > N + P["d"]:
            fail("a > N + d")
        if not (0 < P["b"] < 1 + P["d"]):
            fail("0 < b < 1 + d")
    elif kind is SystemKind.QUANTUM_Q_KRAWTCHOUK:
        _check_q(P, fail)
        if not P["p"] > P["q"] ** (-N):
            fail("p > q**-N")
    elif kind is SystemKind.Q_KRAWTCHOUK:
        _check_q(P, fail)
        if not P["p"] > 0:
            fail("p > 0")
    elif kind is SystemKind.AFFINE_Q_KRAWTCHOUK:
        _check_q(P, fail)
        if not (0 < P["p"] < 1 / P["q"]):
            fail("0 < p < 1/q")
    elif kind in (SystemKind.Q_HAHN, SystemKind.DUAL_Q_HAHN):
        _check_q(P, fail)
        if not (0 < P["a"] < 1 and 0 < P["b"] < 1):
            fail("0 < a, b < 1")
    elif kind is SystemKind.Q_RACAH:
        _check_q(P, fail)
        if not (0 < P["d"] < 1):
            fail("0 < d < 1")
        if not (0 < P["a"] < P["q"] ** N * P["d"]):
            fail("0 < a < d*q**N")
        if not (P["q"] * P["d"] < P["b"] < 1):
            fail("d*q < b < 1")
    elif kind is SystemKind.MEIXNER:
        if not (0 < P["c"] < 1):
            fail("0 < c < 1")
        if not P["b"] > 0:
            fail("b > 0")
    elif kind is SystemKind.CHARLIER:
        if not P["a"] > 0:
            fail("a > 0")
    elif kind in (SystemKind.LAGUERRE, SystemKind.GEGENBAUER):
        if not P["g"] > 1:
            fail("g > 1")
    elif kind is SystemKind.JACOBI:
        if not (P["g"] > 1 and P["h"] > 1):
            fail("g > 1 and h > 1")


def _check_q(P, fail):
    if not (0 < P["q"] < 1):
        fail("0 < q < 1")


#: Probe levels used to validate the positivity data of the thermal
#: systems; a dense low range plus a sparse tail up to 10_000.
_PROBE_LEVELS = (*range(257), 1000, 2000, 5000, 10_000)


def make_system(
    kind: SystemKind | str,
    N: int | None = None,
    params: dict | None = None,
    ctx: Context | None = None,
) -> SystemSpec:
    """Build and validate a system specification.

    Finite systems are scanned exhaustively over x, n in 0..N; thermal
    systems are probed on 0..256 plus a sparse tail to 10_000.
    Violations raise with the offending index in the message.
    """
    if isinstance(kind, str):
        kind = SystemKind(kind)
    ctx = ctx or Context()
    params = dict(params or {})

    required = REQUIRED_PARAMS[kind]
    for name in required:
        if name not in params:
            raise MissingParameter(f"{kind.value}: missing parameter {name!r}")
    extra = set(params) - set(required)
    if extra:
        raise MissingParameter(f"{kind.value}: unknown parameter(s) {sorted(extra)}")

    if kind.is_finite:
        if N is None or N < 1:
            raise ParameterOutOfRange(f"{kind.value}: N must be a positive integer")
    elif N is not None:
        raise ParameterOutOfRange(f"{kind.value} is infinite; N does not apply")

    typed = {}
    for name, v in params.items():
        try:
            typed[name] = ctx.num(v)
        except (ValueError, ZeroDivisionError):
            raise ParameterOutOfRange(f"{kind.value}: {name}={v!r} is not a number") from None
    _range_checks(kind, N, typed, ctx)

    fns = _BUILDERS[kind](ctx, N, typed)
    if kind.is_finite:
        # The boundary values B(N), D(0), A(N), C(0) are zero by the
        # structure of the theory; for some parameter points the raw
        # formulas hit removable 0/0 there (e.g. Racah with d = 1), so
        # they are pinned explicitly.
        zero = ctx.zero
        b_raw, d_raw, a_raw, c_raw = fns["B"], fns["D"], fns["A"], fns["C"]
        fns["B"] = lambda x, _f=b_raw: zero if x == N else _f(x)
        fns["D"] = lambda x, _f=d_raw: zero if x == 0 else _f(x)
        fns["A"] = lambda n, _f=a_raw: zero if n == N else _f(n)
        fns["C"] = lambda n, _f=c_raw: zero if n == 0 else _f(n)
    if "eta_diag" not in fns:
        # The ten finite families plus Meixner/Charlier keep the
        # normalisation with diagonal element -(A_n + C_n).
        fns["eta_diag"] = lambda n: -(fns["A"](n) + fns["C"](n))

    spec = SystemSpec(kind=kind, N=N, params=typed, ctx=ctx, _fns=fns)
    _validate_positivity(spec)
    return spec


def _validate_positivity(spec: SystemSpec):
    kind = spec.kind.value
    try:
        if spec.is_finite:
            N = spec.N
            if spec.eta(0) != 0:
                raise PositivityViolation(f"{kind}: eta(0) must vanish")
            if spec.energy(0) != 0:
                raise PositivityViolation(f"{kind}: energy(0) must vanish")
            if spec.D(0) != 0 or spec.B(N) != 0:
                raise PositivityViolation(f"{kind}: boundary B(N)=D(0)=0 violated")
            if spec.C(0) != 0 or spec.A(N) != 0:
                raise PositivityViolation(f"{kind}: boundary A(N)=C(0)=0 violated")
            for x in range(N + 1):
                if x < N and not spec.B(x) > 0:
                    raise PositivityViolation(f"{kind}: B({x}) <= 0")
                if x > 0 and not spec.D(x) > 0:
                    raise PositivityViolation(f"{kind}: D({x}) <= 0")
            for n in range(N + 1):
                if n < N and not spec.A(n) < 0:
                    raise PositivityViolation(f"{kind}: A({n}) >= 0")
                if n > 0 and not spec.C(n) < 0:
                    raise PositivityViolation(f"{kind}: C({n}) >= 0")
                if n < N and not spec.ac_product(n) > 0:
                    raise PositivityViolation(f"{kind}: A({n})*C({n+1}) <= 0")
                if n < N and not spec.energy(n + 1) > spec.energy(n):
                    raise PositivityViolation(f"{kind}: energy not increasing at n={n}")
        else:
            if spec.energy(0) != 0:
                raise PositivityViolation(f"{kind}: energy(0) must vanish")
            for n in _PROBE_LEVELS:
                if not spec.ac_product(n) > 0:
                    raise PositivityViolation(f"{kind}: A({n})*C({n+1}) <= 0")
            for n in _PROBE_LEVELS[:64]:
                if not spec.energy(n + 1) > spec.energy(n):
                    raise PositivityViolation(f"{kind}: energy not increasing at n={n}")
    except ZeroDivisionError as exc:
        raise ParameterOutOfRange(
            f"{kind}: degenerate parameters (vanishing denominator in data functions)"
        ) from exc


def alpha_pm(spec: SystemSpec, n: int):
    """The pair (alpha_plus, alpha_minus) evaluated at level n."""
    spec.check_level(n)
    return spec.alpha_plus(n), spec.alpha_minus(n)


def spectrum_shift_relations(spec: SystemSpec, n: int) -> bool:
    """Check the six shift identities linking the spectrum and frequencies.

    Valid for 1 <= n <= N-1 (finite) or any n >= 1 (thermal); the core
    relation is energy(n+1) - energy(n) = alpha_plus(energy(n)), plus
    its three index shifts and the two reflection identities.
    """
    if n < 1 or (spec.is_finite and n > spec.N - 1):
        raise IndexOutOfRange(f"need 1 <= n <= {spec.N - 1 if spec.is_finite else 'inf'}")
    ctx = spec.ctx
    e = spec.energy
    ap, am = spec.alpha_plus, spec.alpha_minus
    checks = [
        (e(n + 1) - e(n), ap(n)),
        (e(n - 1) - e(n), am(n)),
        (e(n) - e(n - 1), ap(n - 1)),
        (e(n) - e(n + 1), am(n + 1)),
        (ap(n - 1), -am(n)),
        (am(n + 1), -ap(n)),
    ]
    return all(ctx.close(lhs, rhs) for lhs, rhs in checks)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def system_to_json(spec: SystemSpec) -> str:
    """Serialize a system definition (not its derived data) to JSON."""
    doc = {
        "kind": spec.kind.value,
        "N": spec.N,
        "params": {k: spec.ctx.fmt(v) for k, v in sorted(spec.params.items())},
        "mode": spec.ctx.mode,
        "precision": spec.ctx.precision,
    }
    return json.dumps(doc, sort_keys=True)


def system_from_json(doc: str | dict) -> SystemSpec:
    """Rebuild a system from the JSON definition schema."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    mode = doc.get("mode", EXACT)
    if mode not in (EXACT, BIGREAL):
        raise ParameterOutOfRange(f"unknown mode {mode!r}")
    ctx = Context(mode, int(doc.get("precision", 50)))
    return make_system(doc["kind"], doc.get("N"), doc.get("params", {}), ctx)


def default_system(kind: SystemKind | str, ctx: Context | None = None) -> SystemSpec:
    """The built-in parameter sample for a system."""
    if isinstance(kind, str):
        kind = SystemKind(kind)
    N, params = DEFAULT_PARAMS[kind]
    return make_system(kind, N, params, ctx)

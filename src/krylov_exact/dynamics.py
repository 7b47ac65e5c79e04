"""Closed-form Heisenberg dynamics and the Krylov complexity profile.

Everything here rests on the closure relation

    [H, [H, eta]] = eta R_0(H) + [H, eta] R_1(H) + R_{-1}(H)

with polynomial R_i of degree at most 2, 1, 2.  The catalog supplies
R_0 and R_1; R_{-1} is never tabulated and is reconstructed from the
matrix residual, then cross-checked against the diagonal identity
R_0(E(n)) <n|eta|n> + R_{-1}(E(n)) = 0.  Nothing here divides by R_0
or by alpha_+ - alpha_-.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .catalog import SystemSpec, _polyval
from .errors import ClosureViolated, ComplexAmplitude, DegenerateFrequencies, ModeError
from .numeric import Context
from .operators import (
    InnerProduct,
    OperatorChain,
    OperatorPair,
    max_abs,
    solve_consistent,
)

#: Times at which the closed-form Heisenberg operator is checked by default.
HEISENBERG_TIMES = ("1/10", "7/10", "157/50", "10")


@dataclass
class ClosureData:
    """Closure polynomials: R_0 and R_1 of the system, and the
    reconstructed R_{-1}."""

    r0: tuple
    r1: tuple
    rm1: tuple
    residual: object

    def r0_at(self, e):
        return _polyval(self.r0, e)

    def r1_at(self, e):
        return _polyval(self.r1, e)

    def rm1_at(self, e):
        return _polyval(self.rm1, e)


def verify_closure(pair: OperatorPair) -> ClosureData:
    """Reconstruct R_{-1} from the double-commutator residual.

    Computes M = L^2 eta - eta R_0(H) - (L eta) R_1(H), demands that it
    commute with H, and fits it as a polynomial R_{-1} of H of degree at
    most 2.  R_0 and R_1 are those of ``pair.spec``.  A defect beyond
    10 rel_eps max(|M|, 1), which is 0 in exact mode, raises :class:`~krylov_exact.errors.ClosureViolated`, as
    does a pair without a system.  A spectrum pair works on the eta
    support plus the diagonal only.
    """
    spec = pair.spec
    if spec is None:
        raise ClosureViolated("closure data needs the system's R_0, R_1")
    ctx = pair.ctx
    rep = pair.rep
    r0, r1 = tuple(spec.r0_coeffs), tuple(spec.r1_coeffs)
    eta = rep.gather(pair.eta)
    l1 = rep.liouville(eta)
    l2 = rep.liouville(l1)
    m = l2 - rep.right_mul(eta, rep.poly(r0)) - rep.right_mul(l1, rep.poly(r1))
    bound = ctx.default_tolerance().rel_eps * max(max_abs(m), ctx.one) * 10
    worst = max_abs(rep.liouville(m))
    if worst > bound:
        raise ClosureViolated(f"residual does not commute with H (defect {ctx.fmt(worst)})")
    m_of_h, off = rep.as_function(m)
    if off > bound:
        raise ClosureViolated(f"residual off-diagonal {ctx.fmt(off)}")

    # fit M = c0 + c1 H + c2 H^2
    one, zero = ctx.one, ctx.zero
    cols = [rep.poly(c) for c in ((one,), (zero, one), (zero, zero, one))]
    coeffs = solve_consistent(cols, m_of_h, ctx)
    if coeffs is None:
        raise ClosureViolated("residual is not a degree-<=2 polynomial of H")
    return ClosureData(r0=r0, r1=r1, rm1=tuple(coeffs), residual=worst)


def closure_diagonal_identity(closure: ClosureData, spec: SystemSpec, n: int, ctx: Context) -> bool:
    """Check R_0(E(n)) <n|eta|n> + R_{-1}(E(n)) = 0, the energy-basis
    diagonal of the closure relation (L eta and L^2 eta vanish there)."""
    e = spec.energy(n)
    return ctx.close(closure.r0_at(e) * spec.eta_diag(n), -closure.rm1_at(e))


def _closure_combination(rep, eta: np.ndarray, l1: np.ndarray, a, b, c) -> np.ndarray:
    """eta a(H) + (L eta) b(H) + c(H) for functions a, b, c of H in the
    representation ``rep``, with ``l1`` = L eta."""
    return rep.add(rep.right_mul(eta, a) + rep.right_mul(l1, b), c)


def apply_liouville_power(pair: OperatorPair, closure: ClosureData, m: int) -> np.ndarray:
    """L^m eta through the closure coefficients, no commutators.

    Iterating the closure relation gives
    L^m eta = eta A_m(H) + (L eta) B_m(H) + C_m(H), with the division-free
    recurrence A_{k+1} = R_0 B_k, B_{k+1} = A_k + R_1 B_k,
    C_{k+1} = R_{-1} B_k from A_0 = 1, B_0 = C_0 = 0, evaluated as
    functions of H in the pair's representation.
    """
    ctx = pair.ctx
    rep = pair.rep
    r0, r1, rm1 = (rep.poly(c) for c in (closure.r0, closure.r1, closure.rm1))
    a_k, b_k, c_k = rep.poly((ctx.one,)), rep.poly((ctx.zero,)), rep.poly((ctx.zero,))
    for _ in range(m):
        a_k, b_k, c_k = rep.mul(r0, b_k), a_k + rep.mul(r1, b_k), rep.mul(rm1, b_k)
    eta = rep.gather(pair.eta)
    return rep.scatter(_closure_combination(rep, eta, rep.liouville(eta), a_k, b_k, c_k))


def _exp_difference(ctx: Context, t, x, y):
    """e[x, y] for e(x) = exp(i x t), also where y = x (then e'(x))."""
    return ctx.mp.mpc(0, t) * ctx.expj((x + y) * t / 2) * ctx.mp.sinc((x - y) * t / 2)


def _exp_second_difference(ctx: Context, t, x, y):
    """e[x, y, 0], dividing across the widest pair of the three points;
    if all three meet, e''(0) / 2."""
    lo, mid, hi = sorted((x, y, ctx.zero))
    if hi == lo:
        return -t * t / 2
    return (_exp_difference(ctx, t, hi, mid) - _exp_difference(ctx, t, mid, lo)) / (hi - lo)


def heisenberg_closed_form(pair: OperatorPair, closure: ClosureData, t) -> np.ndarray:
    """The exact Heisenberg operator exp(iHt) eta exp(-iHt), closed form.

    Summing the series of :func:`apply_liouville_power` gives, with
    every function of H acting from the right,

        exp(iLt) eta = eta A(H) + (L eta) B(H) + C(H),
        B = e[a+, a-],   A = e(a-) - a- B,   C = R_{-1} e[a+, a-, 0],

    where e(x) = exp(ixt), a+- = alpha_+-(H) are the roots of
    a^2 = R_1 a + R_0, and [.] are divided differences.  These stay
    finite where R_0 = 0 or a+ = a-; a negative discriminant raises
    :class:`~krylov_exact.errors.DegenerateFrequencies`.  The sum is
    formed in the eigenbasis of H and moved back.  Bigreal only.
    """
    closed_form, _, back = _heisenberg_evaluator(pair, closure)
    return pair.rep.scatter(back(closed_form(pair.ctx.num(t))))


def _heisenberg_evaluator(pair: OperatorPair, closure: ClosureData):
    """(closed_form, oracle, back) for one pair, all in the eigenbasis of H.

    ``closed_form(t)`` is :func:`heisenberg_closed_form` and ``oracle(t)``
    the phase twist exp(i(E_a - E_b)t) of eta, both before ``back`` moves
    them to the pair's representation.  Neither depends on the other: the
    oracle uses only the energies, never alpha_+-.  What does not depend
    on t is computed once, here: L eta (one commutator, in the pair's
    basis), the eigenbasis images of eta and L eta, and (a+, a-, R_{-1})
    at each eigenvalue.  A spectrum is its own eigenbasis, both moves are
    the identity, and everything stays on the eta support.
    """
    ctx = pair.ctx
    if ctx.is_exact:
        raise ModeError("Heisenberg evolution needs bigreal mode")
    rep = pair.rep
    eigen, to, back = rep.eigenbasis()
    eta = rep.gather(pair.eta)
    eta, l1 = to(eta), to(rep.liouville(eta))
    points = []
    for i, e in enumerate(eigen.h):
        r1 = closure.r1_at(e)
        disc = r1 * r1 + 4 * closure.r0_at(e)
        if disc < 0:
            raise DegenerateFrequencies(f"negative frequency discriminant at spectral point {i}")
        root = ctx.sqrt(disc)
        points.append(((r1 + root) / 2, (r1 - root) / 2, closure.rm1_at(e)))

    def closed_form(t):
        avals, bvals, cvals = [], [], []
        for ap, am, rm1 in points:
            b = _exp_difference(ctx, t, ap, am)
            avals.append(ctx.expj(am * t) - am * b)
            bvals.append(b)
            cvals.append(rm1 * _exp_second_difference(ctx, t, ap, am))
        return _closure_combination(eigen, eta, l1, *(np.array(v, dtype=object) for v in (avals, bvals, cvals)))

    return closed_form, lambda t: eigen.conjugate_exp(eta, t), back


def heisenberg_check(pair: OperatorPair, closure: ClosureData, times) -> tuple[list, bool]:
    """Closed form against :func:`matrix_exponential_conjugate` at each time.

    Both sides are formed in the eigenbasis of H from operators moved
    there once (:func:`_heisenberg_evaluator`), then each is moved back on
    its own and compared in the pair's basis, as the two public functions
    would be.  A spectrum pair compares them on the eta support plus the
    diagonal; off it both are exact zeros.  Returns the max-abs deviation
    per time and whether every one is within 1000 rel_eps max(|eta|, 1).
    """
    ctx = pair.ctx
    closed_form, oracle, back = _heisenberg_evaluator(pair, closure)
    devs = [max_abs(back(closed_form(t)) - back(oracle(t))) for t in map(ctx.num, times)]
    bound = ctx.default_tolerance().rel_eps * max(max_abs(pair.rep.gather(pair.eta)), ctx.one) * 1000
    return devs, max(devs, default=ctx.zero) <= bound


@dataclass
class KrylovProfile:
    """Amplitudes phi_n(t) on a time grid and the complexity K(t)."""

    times: list
    phi: list  # phi[i][n] at times[i]
    complexity: list
    ctx: Context
    meta: dict | None = None

    def sum_rule_defect(self, i: int):
        """|sum_n phi_n(t_i)^2 - 1|."""
        return abs(sum((v * v for v in self.phi[i]), self.ctx.zero) - 1)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        k = len(self.phi[0]) if self.phi else 0
        w.writerow(["t", "K"] + [f"phi_{n}" for n in range(k)])
        for t, ph, c in zip(self.times, self.phi, self.complexity):
            w.writerow(
                [self.ctx.fmt(t), self.ctx.fmt(c)] + [self.ctx.fmt(v) for v in ph]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "meta": self.meta or {},
            "times": [self.ctx.fmt(t) for t in self.times],
            "complexity": [self.ctx.fmt(c) for c in self.complexity],
            "phi": [[self.ctx.fmt(v) for v in row] for row in self.phi],
        }


def krylov_profile(
    chain: OperatorChain,
    pair: OperatorPair,
    ip: InnerProduct,
    times,
    meta: dict | None = None,
) -> KrylovProfile:
    """Amplitudes phi_n(t) = (i^n O_n, O(t)) and K(t) = sum n phi_n^2.

    O(t) is the exponential-conjugation oracle applied to O_0: a phase
    twist on the folded eta support of a spectrum, and for a matrix H a
    twist of O_0 moved into the eigenbasis once, brought back at each
    time (``overlaps`` of the pair's operator space).  The chain's
    covectors are formed once for all times.  Each
    amplitude must be real up to tolerance; a larger imaginary residue
    signals a chain/inner-product mismatch and raises
    :class:`~krylov_exact.errors.ComplexAmplitude`.
    """
    ctx = pair.ctx
    if ctx.is_exact:
        raise ModeError("profiles need bigreal mode")
    tol = ctx.default_tolerance()
    # (-i)**n cycles with period four and is exact
    one, mpc = ctx.one, ctx.mp.mpc
    phases = [mpc(one, 0), mpc(0, -one), mpc(-one, 0), mpc(0, one)]
    times = [ctx.num(t) for t in times]
    amplitudes = pair.rep.space(pair, ip, len(chain.ops) - 1).overlaps(chain.ops)
    phi_rows = []
    complexity = []
    for t in times:
        raw = amplitudes(t)
        row = []
        k_t = ctx.zero
        for n, val in enumerate(raw):
            val = val * phases[n % 4]
            if abs(val.imag) > tol.rel_eps * max(1, abs(val)) * 100:
                raise ComplexAmplitude(
                    f"phi_{n} imaginary part {ctx.fmt(val.imag)}"
                )
            phi = val.real
            row.append(phi)
            if n >= 1:
                k_t = k_t + n * phi * phi
        phi_rows.append(row)
        complexity.append(k_t)
    return KrylovProfile(times=times, phi=phi_rows, complexity=complexity, ctx=ctx, meta=meta)

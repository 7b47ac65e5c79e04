"""Moment tables: closed forms and the brute-force matrix oracle.

Three independent routes produce the moments mu_m = (O_0, L^m O_0):

* :func:`moments_closed_finite` evaluates the finite-system closed form
  ``mu_2m = 2 sum_n A_n C_{n+1} alpha_plus(E(n))**2m / |eta|^2`` in
  exact rational arithmetic when the context allows;
* :func:`moments_closed_thermal` evaluates the Boltzmann-weighted series
  for the six unbounded systems with a certified geometric tail bound;
* :func:`moments_oracle` applies the Liouville commutator literally
  (K times for mu_0 .. mu_2K) in the pair's operator space -- the eta
  support for a diagonal H, banded matrices for the position basis --
  and takes inner products, with no closed forms anywhere.

Cross-checking the closed forms against the oracle is the package's
central acceptance gate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .catalog import SystemKind, SystemSpec
from .errors import (
    IndexOutOfRange,
    ModeError,
    NotFiniteSystem,
    NotInfiniteSystem,
    TailNotConvergent,
)
from .numeric import Context
from .operators import InnerProduct, OperatorPair, _check_count, _seed, trace_inner

CLOSED_FORM = "closed-form"
ORACLE = "oracle"


@dataclass(frozen=True)
class Truncation:
    """Where a thermal series was cut and the certified relative tail."""

    n_max: int
    tail_bound: object


@dataclass
class MomentTable:
    """Moments mu_0 .. mu_{2K} with provenance metadata."""

    values: list
    provenance: str
    ctx: Context
    kind: SystemKind | None = None
    beta: object | None = None
    truncation: Truncation | None = None

    @property
    def order(self) -> int:
        """Largest stored moment index (2K)."""
        return len(self.values) - 1

    def mu(self, m: int):
        if m < 0 or m >= len(self.values):
            raise IndexOutOfRange(f"moment index {m} outside 0..{self.order}")
        return self.values[m]

    def even(self) -> list:
        """mu_0, mu_2, ..., mu_2K."""
        return self.values[::2]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["m", "mu_m", "provenance", "tail_bound"])
        tail = self.ctx.fmt(self.truncation.tail_bound) if self.truncation else ""
        for m, v in enumerate(self.values):
            w.writerow([m, self.ctx.fmt(v), self.provenance, tail])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "system": self.kind.value if self.kind else None,
            "provenance": self.provenance,
            "beta": self.ctx.fmt(self.beta) if self.beta is not None else None,
            "mu": [self.ctx.fmt(v) for v in self.values],
            "truncation": None
            if self.truncation is None
            else {
                "n_max": self.truncation.n_max,
                "tail_bound": self.ctx.fmt(self.truncation.tail_bound),
            },
        }


def moments_closed_finite(spec: SystemSpec, K: int = 6) -> MomentTable:
    """Closed-form moments for the ten finite systems (exact-friendly)."""
    if not spec.is_finite:
        raise NotFiniteSystem(f"{spec.kind.value} needs the thermal closed form")
    ctx = spec.ctx
    norm = spec.norm_eta_sq()
    ac = [spec.ac_product(n) for n in range(spec.N)]
    ap2 = [spec.alpha_plus(n) ** 2 for n in range(spec.N)]
    values = [ctx.one]
    powers = [ctx.one] * spec.N
    for _ in range(1, K + 1):
        powers = [p * a2 for p, a2 in zip(powers, ap2)]
        s = ctx.zero
        for w, p in zip(ac, powers):
            s = s + w * p
        values.append(ctx.zero)  # odd moment
        values.append(2 * s / norm)
    return MomentTable(values=values, provenance=CLOSED_FORM, ctx=ctx, kind=spec.kind)


#: Number of series terms past which :func:`moments_closed_thermal` stops
#: trying to certify the tail and raises ``TailNotConvergent``.
N_CAP = 100_000


def moments_closed_thermal(spec: SystemSpec, K: int = 6, beta=None, tail_tol=None) -> MomentTable:
    """Boltzmann-weighted closed-form moments for the six thermal systems.

    The numerator series for each even moment and the normalisation
    series are summed together until the largest term ratio r is below 1
    and the geometric majorant, the current term times r/(1 - r), bounds
    every relative tail by ``tail_tol``.  The majorant takes the later
    ratios to stay at most r.
    """
    if spec.is_finite:
        raise NotInfiniteSystem(f"{spec.kind.value} has the finite closed form")
    ctx = spec.ctx
    if ctx.is_exact:
        raise ModeError("thermal sums need Boltzmann factors; use bigreal mode")
    beta = ctx.num(beta if beta is not None else 1)
    if not beta > 0:
        raise TailNotConvergent("beta must be positive")
    tail_tol = ctx.num(tail_tol) if tail_tol is not None else ctx.default_tolerance().rel_eps

    numer = [ctx.zero] * K  # series for mu_2, mu_4, ..., mu_2K
    denom = ctx.zero  # Z * |eta|_beta^2
    prev_terms = None
    n = 0
    while n <= N_CAP:
        e_n = spec.energy(n)
        e_n1 = spec.energy(n + 1)
        link = ctx.exp(-beta * (e_n + e_n1) / 2) * spec.ac_product(n)
        diag = spec.eta_diag(n)
        denom_term = ctx.exp(-beta * e_n) * diag * diag + 2 * link
        denom = denom + denom_term
        ap2 = spec.alpha_plus(n) ** 2
        terms = []
        power = ctx.one
        for m in range(K):
            power = power * ap2
            t = 2 * link * power
            numer[m] = numer[m] + t
            terms.append(t)
        terms.append(denom_term)
        if prev_terms is not None and n >= 4:
            ratios = [
                t / p for t, p in zip(terms, prev_terms) if p > 0 and t > 0
            ]
            if ratios and max(ratios) < 1:
                r = max(ratios)
                # tail of each series bounded by current term * r/(1-r)
                bound = ctx.zero
                for t, total in zip(terms, numer + [denom]):
                    if total > 0:
                        rel = (t * r / (1 - r)) / total
                        bound = max(bound, rel)
                if bound < tail_tol:
                    trunc = Truncation(n_max=n, tail_bound=bound)
                    values = [ctx.one]
                    for m in range(K):
                        values.append(ctx.zero)
                        values.append(numer[m] / denom)
                    return MomentTable(
                        values=values,
                        provenance=CLOSED_FORM,
                        ctx=ctx,
                        kind=spec.kind,
                        beta=beta,
                        truncation=trunc,
                    )
        prev_terms = terms
        n += 1
    raise TailNotConvergent(
        f"tail bound {ctx.fmt(tail_tol)} not certified within {N_CAP} terms"
    )


def moments_closed(spec: SystemSpec, K: int = 6, beta=None, tail_tol=None) -> MomentTable:
    """Dispatch to the finite or thermal closed form."""
    if spec.is_finite:
        return moments_closed_finite(spec, K)
    return moments_closed_thermal(spec, K, beta=beta, tail_tol=tail_tol)


def closed_form_stop(spec: SystemSpec, table: MomentTable) -> int | None:
    """Index k of the closed form's last chain element O_k, or None.

    Its measure has points at +-alpha_plus(E(n)) over the sum's levels and
    at 0 if some <n|eta|n> != 0; S points end the chain at O_{S-1}.  A
    thermal sum whose last level still adds a point never ends: None."""
    levels = range(spec.N if spec.is_finite else table.truncation.n_max + 1)
    squares = [spec.alpha_plus(n) ** 2 for n in levels]
    if not spec.is_finite and squares[-1] not in squares[:-1]:
        return None
    diagonal = range(spec.N + 1) if spec.is_finite else levels
    centre = any(not spec.ctx.is_zero(spec.eta_diag(n)) for n in diagonal)
    return 2 * len(set(squares)) + centre - 1


def moments_oracle(pair: OperatorPair, ip: InnerProduct | None = None, K: int = 6) -> MomentTable:
    """Brute-force moments from K literal commutators and inner products.

    With v_k = L^k eta, mu_2k = (v_k, v_k) / |eta|^2 and
    mu_2k+1 = (v_k, v_k+1) / |eta|^2, because L is self-adjoint under
    the (metric) trace and the Wightman inner products.  The iterates
    live in the operator space of :func:`operator_lanczos`: the eta
    support folded to one entry per mirror pair for a diagonal H, where
    [H, V]_ab = (E_a - E_b) V_ab, else the band that K commutators
    reach.  v_k and v_k+1 have opposite parity, so the odd moments take
    the space's cross-parity dot; no symmetry of eta is assumed, and on a
    folded band, whose mirror symmetry is checked exactly, they are exact
    zeros.  The chain shares the space and the seed: a zero eta raises
    :class:`~krylov_exact.errors.ZeroEta`.  No closed form enters.
    """
    _check_count("K", K)
    ctx = pair.ctx
    ip = ip or trace_inner(pair)
    space = pair.rep.space(pair, ip, K)
    v, norm = _seed(pair, space)
    values = [ctx.one]
    for k in range(K):
        v_next = space.liouville(v, k % 2)
        values.append(space.cross_dot(v, v_next) / norm)
        values.append(space.dot(v_next, v_next) / norm)
        v = v_next
    return MomentTable(
        values=values,
        provenance=ORACLE,
        ctx=ctx,
        kind=pair.spec.kind if pair.spec else None,
        beta=ip.beta,
    )


def scale_table(table: MomentTable, lam) -> MomentTable:
    """Moments of the system with Hamiltonian scaled by lambda."""
    ctx = table.ctx
    lam = ctx.num(lam)
    values = []
    power = ctx.one
    for v in table.values:
        values.append(v * power)
        power = power * lam
    return MomentTable(
        values=values,
        provenance=table.provenance,
        ctx=ctx,
        kind=table.kind,
        beta=table.beta,
        truncation=table.truncation,
    )

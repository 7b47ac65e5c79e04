"""Moment tables: closed forms and the brute-force matrix oracle.

Three independent routes produce the moments mu_m = (O_0, L^m O_0):

* :func:`moments_closed_finite` evaluates the finite-system closed form
  ``mu_2m = 2 sum_n A_n C_{n+1} alpha_plus(E(n))**2m / |eta|^2`` in
  exact rational arithmetic when the context allows;
* :func:`moments_closed_thermal` evaluates the Boltzmann-weighted series
  for the six unbounded systems with a certified geometric tail bound;
* :func:`moments_oracle` applies the Liouville commutator literally to
  matrices (K times for mu_0 .. mu_2K) and takes inner products, with no
  closed forms anywhere.

Cross-checking the closed forms against the oracle is the package's
central acceptance gate.
"""

from __future__ import annotations

import csv
import io
import json
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
from .operators import InnerProduct, OperatorPair, inner, liouville, norm_sq

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


def moments_closed_thermal(
    spec: SystemSpec,
    K: int = 6,
    beta=None,
    tail_tol=None,
    n_cap: int = 100_000,
) -> MomentTable:
    """Boltzmann-weighted closed-form moments for the six thermal systems.

    The numerator series for each even moment and the normalisation
    series are summed together until the term ratio falls below 1/2 and
    the geometric majorant bounds every relative tail by ``tail_tol``.
    """
    if spec.is_finite:
        raise NotInfiniteSystem(f"{spec.kind.value} has the finite closed form")
    ctx = spec.ctx
    if ctx.is_exact:
        raise ModeError("thermal sums need Boltzmann factors; use bigreal mode")
    with ctx.work():
        beta = ctx.num(beta if beta is not None else 1)
        if not beta > 0:
            raise TailNotConvergent("beta must be positive")
        tol = ctx.default_tolerance()
        tail_tol = ctx.num(tail_tol) if tail_tol is not None else tol.rel_eps

        numer = [ctx.zero] * K  # series for mu_2, mu_4, ..., mu_2K
        denom = ctx.zero  # Z * |eta|_beta^2
        prev_terms = None
        n = 0
        while n <= n_cap:
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
                if ratios and max(ratios) < ctx.frac(1, 2):
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
        f"tail bound {ctx.fmt(tail_tol)} not certified within {n_cap} terms"
    )


def moments_closed(spec: SystemSpec, K: int = 6, beta=None, tail_tol=None) -> MomentTable:
    """Dispatch to the finite or thermal closed form."""
    if spec.is_finite:
        return moments_closed_finite(spec, K)
    return moments_closed_thermal(spec, K, beta=beta, tail_tol=tail_tol)


def moments_oracle(pair: OperatorPair, ip: InnerProduct | None = None, K: int = 6) -> MomentTable:
    """Brute-force moments from K literal commutators and inner products.

    With v_k = L^k eta, mu_2k = (v_k, v_k) / |eta|^2 and
    mu_2k+1 = (v_k, v_k+1) / |eta|^2, because L is self-adjoint under
    the (metric) trace and the Wightman inner products.  No closed form
    enters: every value is an inner product of commutator iterates.
    """
    from .operators import trace_inner

    ctx = pair.ctx
    ip = ip or trace_inner(pair)
    with ctx.work():
        norm = norm_sq(ip, pair.eta)
        values = [ctx.one]
        v = pair.eta
        for _ in range(K):
            v_next = liouville(pair.h, v)
            values.append(inner(ip, v, v_next) / norm)
            values.append(norm_sq(ip, v_next) / norm)
            v = v_next
    return MomentTable(
        values=values,
        provenance=ORACLE,
        ctx=ctx,
        kind=pair.spec.kind if pair.spec else None,
        beta=ip.beta,
    )


def diagonal_eta_identity(spec: SystemSpec, n: int, n_max: int | None = None) -> bool:
    """Check <n|eta|n> against the recurrence data.

    For finite systems in bigreal mode the left side is computed from
    the position-basis eigenvectors, making this a genuine cross-basis
    verification; otherwise it reduces to the catalog's own consistency
    (finite families use -(A_n + C_n), the thermal ones their diagonal
    recurrence coefficient).
    """
    spec.check_level(n, upper=spec.N if spec.is_finite else n_max)
    ctx = spec.ctx
    expected = spec.eta_diag(n)
    if spec.is_finite and not ctx.is_exact:
        from .operators import eig_symmetric, position_pair

        pair = position_pair(spec)
        with ctx.work():
            _, q = eig_symmetric(pair.h, ctx)
            got = ctx.zero
            for x in range(spec.dim):
                got = got + q[x, n] * q[x, n] * spec.eta(x)
            return ctx.close(got, expected)
    if spec.is_finite or spec.kind in (SystemKind.MEIXNER, SystemKind.CHARLIER):
        return ctx.close(expected, -(spec.A(n) + spec.C(n)))
    return True  # thermal families with explicit diagonal data


def dual_hahn_mu2_closed(N: int, a, b, ctx: Context):
    """Independently derived rational closed form of the dual Hahn mu_2.

    Equal to 2*sum A_n C_{n+1} / |eta|^2 for every (N, a, b); the
    numerator and denominator below were obtained by summing that lattice
    expression symbolically and are verified against it in the tests.
    """
    with ctx.work():
        a = ctx.num(a)
        b = ctx.num(b)
        s = a + b
        numer = (N + 2) * (2 * N * N + 5 * s * N - 6 * N + 10 * a * b - 5 * s + 4)
        denom = (
            6 * N**3
            + 15 * s * N**2
            - 6 * N**2
            + 10 * s * s * N
            - 5 * s * N
            - 4 * N
            + 5 * s * s
            - 10 * s
            + 4
        )
        return numer / denom


def affine_qk_norm_closed(N: int, q, ctx: Context):
    """Closed form of sum_x (q^-x - 1)^2 for x = 0..N.

    Derived independently as N + q^{-2N} (1-q^N)(1-q^N(1+2q)) / (1-q^2)
    and verified against the direct sum in the tests.
    """
    with ctx.work():
        q = ctx.num(q)
        return N + q ** (-2 * N) * (1 - q**N) * (1 - q**N * (1 + 2 * q)) / (1 - q * q)


def scale_table(table: MomentTable, lam) -> MomentTable:
    """Moments of the system with Hamiltonian scaled by lambda."""
    ctx = table.ctx
    with ctx.work():
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


def tables_equal(t1: MomentTable, t2: MomentTable, ctx: Context | None = None) -> bool:
    ctx = ctx or t1.ctx
    if t1.order != t2.order:
        return False
    return all(ctx.close(x, y) for x, y in zip(t1.values, t2.values))


def table_to_json(table: MomentTable) -> str:
    return json.dumps(table.to_json_dict(), sort_keys=True)

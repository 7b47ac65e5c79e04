"""Conversions between moment tables and Lanczos coefficients.

The forward map is Chebyshev's algorithm (Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, 2004, §2.1.7; Wheeler,
*Rocky Mountain J. Math.* 4 (1974) 287).  The monic orthogonal
polynomials of the moment functional obey p_{k+1} = x p_k - b_k^2 p_{k-1}
when the functional is symmetric (every odd moment zero, so every
diagonal coefficient a_k vanishes).  The mixed moments
sigma_{k,l} = L(p_k x^l) then satisfy sigma_{k,l} = sigma_{k-1,l+1} -
b_{k-1}^2 sigma_{k-2,l} with sigma_{0,l} = mu_l, and b_k^2 =
sigma_{k,k} / sigma_{k-1,k-1}.  Only l = k, k+2, ..., 2K-k is needed, so
K coefficients cost O(K^2) operations.  An asymmetric table is refused
before the recursion runs.  The map is anchored to the explicit rational
b_1..b_3 formulas and to the operator-space chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import SystemSpec
from .errors import (
    AsymmetricMoments,
    DegenerateChain,
    IndexOutOfRange,
    NegativeBSquared,
    NonUnitMuZero,
)
from .moments import CLOSED_FORM, MomentTable, closed_form_stop, moments_closed
from .numeric import Context
from .operators import determinant


@dataclass
class LanczosCoefficients:
    """Squared Lanczos coefficients with an optional termination index.

    ``stop_index = k`` means b_{k+1} was declared zero, i.e. the chain
    ends at O_k; every stored b_squared entry is positive.
    """

    b_squared: list
    stop_index: int | None
    ctx: Context

    def __len__(self) -> int:
        return len(self.b_squared)

    def b2(self, k: int):
        """b_k^2 (1-based); zero beyond the stop index."""
        if k < 1:
            raise IndexOutOfRange("Lanczos coefficients are 1-based")
        if k <= len(self.b_squared):
            return self.b_squared[k - 1]
        if self.stop_index is not None:
            return self.ctx.zero
        raise IndexOutOfRange(f"b_{k} not computed and chain not terminated")

    def to_json_dict(self) -> dict:
        return {
            "b_squared": [self.ctx.fmt(v) for v in self.b_squared],
            "stop_index": self.stop_index,
        }


def moments_to_lanczos(table: MomentTable) -> LanczosCoefficients:
    """Recover b_1^2 .. b_K^2 from mu_0 .. mu_2K by Chebyshev's algorithm.

    The odd moments are checked first: each must satisfy |mu_2j+1| <=
    rel_eps * sqrt(mu_2j mu_2j+2), the Cauchy-Schwarz scale, which is
    mu_2j+1 = 0 in exact mode; otherwise
    :class:`~krylov_exact.errors.AsymmetricMoments` names the moment.
    Row k of the sigma table keeps sigma_{k,l} for l = k, k+2, ..., 2K-k,
    so the K rows take O(K^2) operations, one code path in both modes.
    A b_k^2 = sigma_{k,k} / sigma_{k-1,k-1} that
    :meth:`~krylov_exact.numeric.Context.is_zero` terminates the chain; a
    negative one raises :class:`~krylov_exact.errors.NegativeBSquared`
    because the sequence is then not a moment sequence.
    """
    mus, ctx = table.values, table.ctx
    if not mus or mus[0] != 1:
        raise NonUnitMuZero("moment tables must start with mu_0 = 1")
    K = (len(mus) - 1) // 2
    rel_eps = ctx.default_tolerance().rel_eps
    for m in range(1, 2 * K, 2):
        if mus[m] * mus[m] > rel_eps * rel_eps * abs(mus[m - 1] * mus[m + 1]):
            raise AsymmetricMoments(
                f"mu_{m} = {ctx.fmt(mus[m])} exceeds rel_eps * sqrt(mu_{m - 1} mu_{m + 1}): "
                "the moment functional is not symmetric"
            )
    # sigma_{k-2, .} and sigma_{k-1, .}, starting from sigma_{-1} = 0 and sigma_0 = mu
    before, row = [ctx.zero] * (K + 1), mus[0 : 2 * K + 1 : 2]
    b2 = ctx.zero
    b2s = []
    stop = None
    for k in range(1, K + 1):
        before, row = row, [s - b2 * r for s, r in zip(row[1:], before[1:])]
        b2 = row[0] / before[0]
        if ctx.is_zero(b2):
            stop = k - 1
            break
        if b2 < 0:
            raise NegativeBSquared(f"b_{k}^2 = {ctx.fmt(b2)} < 0")
        b2s.append(b2)
    return LanczosCoefficients(b_squared=b2s, stop_index=stop, ctx=ctx)


def lanczos_to_moments(coeffs: LanczosCoefficients | list, K: int, ctx: Context | None = None) -> MomentTable:
    """Moments mu_m = (e_0, J^m e_0) of the zero-diagonal Jacobi matrix.

    Works entirely with b^2 entries: the similar matrix with
    J[i, i+1] = b_{i+1}^2, J[i+1, i] = 1 has identical (0,0) matrix
    powers, so no square root ever enters.
    """
    if isinstance(coeffs, LanczosCoefficients):
        b2 = list(coeffs.b_squared)
        ctx = ctx or coeffs.ctx
    else:
        if ctx is None:
            raise ValueError("a context is required with a bare coefficient list")
        b2 = [ctx.num(v) for v in coeffs]
    size = len(b2) + 1
    v = [ctx.one] + [ctx.zero] * (size - 1)
    values = [ctx.one]
    for _ in range(2 * K):
        nxt = [ctx.zero] * size
        for i in range(size):
            if v[i] == 0:
                continue
            # row action of the rescaled Jacobi matrix
            if i > 0:
                nxt[i - 1] = nxt[i - 1] + b2[i - 1] * v[i]
            if i < size - 1:
                nxt[i + 1] = nxt[i + 1] + v[i]
        v = nxt
        values.append(v[0])
    return MomentTable(values=values, provenance=CLOSED_FORM, ctx=ctx)


def b123_closed_forms(table: MomentTable):
    """The explicit rational b_1^2, b_2^2, b_3^2 in terms of mu_2..mu_6."""
    ctx = table.ctx
    mu2, mu4, mu6 = table.mu(2), table.mu(4), table.mu(6)
    b1 = mu2
    b2 = mu4 / mu2 - mu2
    gap = mu4 - mu2 * mu2
    if ctx.is_zero(gap):
        raise DegenerateChain("mu_4 = mu_2^2: chain stops at b_2, b_3 undefined")
    b3 = mu2 * (mu6 - 2 * mu2 * mu4 + mu2**3) / (mu2 * gap) - mu4 / mu2 + mu2
    return b1, b2, b3


def hankel_check(table: MomentTable, coeffs: LanczosCoefficients, n: int):
    """Hankel determinant of moments versus the Lanczos product.

    Returns (lhs, rhs, naive_formula_fails) where lhs is
    det(mu_{i+j}) for 0 <= i, j <= n, rhs is the scaling-consistent
    product prod_k b_k^{2(n+1-k)}, and the flag reports whether the
    naive product prod_k b_k^2 disagrees with the determinant.
    """
    ctx = table.ctx
    if table.order < 2 * n:
        raise IndexOutOfRange(f"need moments through mu_{2*n}")
    m = np.empty((n + 1, n + 1), dtype=object)
    for i in range(n + 1):
        for j in range(n + 1):
            m[i, j] = table.mu(i + j)
    lhs = determinant(m, ctx)
    rhs = ctx.one
    naive = ctx.one
    for k in range(1, n + 1):
        b2k = coeffs.b2(k)
        rhs = rhs * b2k ** (n + 1 - k)
        naive = naive * b2k
    naive_fails = not ctx.close(lhs, naive)
    return lhs, rhs, naive_fails


@dataclass(frozen=True)
class ChainClassification:
    stop_index: int | None
    label: str


def classify_stop(coeffs: LanczosCoefficients | int | None, K: int) -> ChainClassification:
    """``StopsAtO{k}`` for a stop index k < K, read off ``coeffs`` or given, else ``NoEarlyStop(K)``."""
    stop = coeffs.stop_index if isinstance(coeffs, LanczosCoefficients) else coeffs
    if stop is None or stop >= K:
        return ChainClassification(None, f"NoEarlyStop({K})")
    return ChainClassification(stop, f"StopsAtO{stop}")


def detect_noncomplexity(
    spec: SystemSpec, beta=None, K: int = 6, tail_tol=None
) -> ChainClassification:
    """Classify the stop of the closed form's measure (:func:`closed_form_stop`).

    The six linear-spectrum families terminate early (the Hermite chain
    already at O_1: its measure has the two points +-2 and no point at 0).
    """
    table = moments_closed(spec, K=K, beta=beta, tail_tol=tail_tol)
    return classify_stop(closed_form_stop(spec, table), K)


#: Order n of the Hankel determinant a chain report checks.
HANKEL_N = 2


def chain_report(spec: SystemSpec, beta=None, K: int = 6, tail_tol=None) -> dict:
    """JSON-ready chain report for one system."""
    ctx = spec.ctx
    table = moments_closed(spec, K=K, beta=beta, tail_tol=tail_tol)
    coeffs = moments_to_lanczos(table)
    cls = classify_stop(coeffs, K)
    doc = coeffs.to_json_dict()
    doc["classification"] = cls.label
    if table.order >= 2 * HANKEL_N:
        lhs, rhs, naive_fails = hankel_check(table, coeffs, HANKEL_N)
        doc["hankel"] = {
            "n": HANKEL_N,
            "lhs": ctx.fmt(lhs),
            "rhs": ctx.fmt(rhs),
            "naive_formula_fails": naive_fails,
        }
    return doc

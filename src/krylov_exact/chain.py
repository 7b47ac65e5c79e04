"""Conversions between moment tables and Lanczos coefficients.

The forward map uses the classic orthogonal-polynomial recursion: with a
symmetric moment functional (odd moments zero) the monic polynomials
obey p_{k+1} = x p_k - b_k^2 p_{k-1}, where b_k^2 = h_k / h_{k-1} and
h_k is the squared norm of p_k under the functional.  This is equivalent
to the standard moment-recursion tables and is anchored here to the
explicit rational b_1..b_3 formulas and to the operator-space chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import SystemSpec
from .errors import (
    DegenerateChain,
    IndexOutOfRange,
    NegativeBSquared,
    NonUnitMuZero,
)
from .numeric import Context
from .moments import MomentTable, moments_closed


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
    """Recover b_1^2 .. b_K^2 from mu_0 .. mu_2K.

    Each step forms b_k^2 = h_k / h_{k-1}, where h_{k-1} > 0.  A b_k^2
    that :meth:`~krylov_exact.numeric.Context.is_zero` terminates the
    chain; a negative one raises
    :class:`~krylov_exact.errors.NegativeBSquared` because the sequence
    is then not a moment sequence.
    """
    mus, ctx = table.values, table.ctx
    if not mus or mus[0] != 1:
        raise NonUnitMuZero("moment tables must start with mu_0 = 1")
    K = (len(mus) - 1) // 2

    def dot(p, q):
        s = ctx.zero
        for i, ci in enumerate(p):
            if ci == 0:
                continue
            for j, cj in enumerate(q):
                if cj == 0:
                    continue
                s = s + ci * cj * mus[i + j]
        return s

    p_prev = [ctx.one]
    h_prev = ctx.one  # = mu_0
    p_cur = [ctx.zero, ctx.one]  # the monomial x
    b2s = []
    stop = None
    for k in range(1, K + 1):
        h_cur = dot(p_cur, p_cur)
        b2 = h_cur / h_prev
        if ctx.is_zero(b2):
            stop = k - 1
            break
        if b2 < 0:
            raise NegativeBSquared(f"b_{k}^2 = {ctx.fmt(b2)} < 0")
        b2s.append(b2)
        # p_{k+1} = x*p_k - b_k^2 * p_{k-1}
        nxt = [ctx.zero] + list(p_cur)
        for i, c in enumerate(p_prev):
            nxt[i] = nxt[i] - b2 * c
        p_prev, p_cur = p_cur, nxt
        h_prev = h_cur
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
    from .moments import CLOSED_FORM

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
    from .operators import determinant
    import numpy as np

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


def classify_stop(coeffs: LanczosCoefficients, K: int) -> ChainClassification:
    stop = coeffs.stop_index
    if stop is None:
        return ChainClassification(None, f"NoEarlyStop({K})")
    return ChainClassification(stop, f"StopsAtO{stop}")


def detect_noncomplexity(
    spec: SystemSpec, beta=None, K: int = 6, tail_tol=None
) -> ChainClassification:
    """Compute closed-form moments, convert, and classify the stop.

    The six linear-spectrum families terminate early (the Hermite chain
    already at O_1 since its moments are the pure geometric sequence
    with ratio equal to mu_2); the measured index is reported without
    forcing any expected count.
    """
    table = moments_closed(spec, K=K, beta=beta, tail_tol=tail_tol)
    coeffs = moments_to_lanczos(table)
    return classify_stop(coeffs, K)


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

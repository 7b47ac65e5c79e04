"""Per-system verification suites behind the ``verify`` CLI command.

Each check produces a row (name, expected, got, status) so the CLI can
print a table and exit nonzero when anything fails.  The checks mirror
the package's cross-validation strategy: closed forms against matrix
oracles, chain conversions against operator-space orthonormalisation,
and the closed-form Heisenberg solution against the exponential oracle.
A value of :class:`SystemChecks` that raises fails exactly the rows that read it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .catalog import SystemSpec, spectrum_shift_relations
from .chain import b123_closed_forms, classify_stop, hankel_check, lanczos_to_moments, moments_to_lanczos
from .dynamics import HEISENBERG_TIMES, closure_diagonal_identity, heisenberg_check, krylov_profile, verify_closure
from .errors import DegenerateChain, KrylovExactError
from .moments import closed_form_stop, moments_closed, moments_oracle, scale_table
from .numeric import exact_sqrt
from .operators import energy_pair, operator_lanczos, position_pair, trace_inner, wightman_inner

#: Order n of the Hankel identity that ``lanczos`` reports and ``verify`` checks.
HANKEL_N = 2


@dataclass
class CheckResult:
    name: str
    expected: str
    got: str
    passed: bool

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


def _row(name: str, expected: str, check) -> CheckResult:
    """The row of ``check() -> (got, passed)``; a typed error fails it, and
    ``passed`` None marks a check that does not apply (expected ``-``)."""
    try:
        got, passed = check()
    except KrylovExactError as exc:
        got, passed = f"error: {exc}", False
    if passed is None:
        expected, passed = "-", True
    return CheckResult(name, expected, str(got), bool(passed))


class SystemChecks:
    """The values one system's checks and reports read, each built on first
    read (again after a raise), and the checks, which return (got, passed).  A finite
    system's checks run on its K-moment closed form and its position pair
    under the trace; a thermal system's on its K-moment closed form at
    ``beta`` (default 1) and its energy pair on levels 0..cut under the
    Wightman product, cut being the closed form's truncation, at least 8.
    """

    def __init__(self, spec: SystemSpec, beta=None, K: int = 6, tail_tol=None):
        self.spec, self.ctx, self.K, self.tail_tol = spec, spec.ctx, K, tail_tol
        self.beta, self.rel_eps = 1 if beta is None else beta, self.ctx.default_tolerance().rel_eps

    @cached_property
    def table(self):
        return moments_closed(self.spec, self.K, beta=self.beta, tail_tol=self.tail_tol)

    @cached_property
    def stop(self):
        """The closed form's stop (:func:`~krylov_exact.moments.closed_form_stop`)."""
        return closed_form_stop(self.spec, self.table)

    @cached_property
    def pair(self):
        """(pair, inner product) of the checks."""
        if self.spec.is_finite:
            pair = position_pair(self.spec)
            return pair, trace_inner(pair)
        return self.levels(max(self.table.truncation.n_max, 8))

    def levels(self, n_max=None):
        """(energy pair on levels 0..n_max, inner product); finite n_max defaults to N."""
        pair = energy_pair(self.spec, n_max=n_max)
        return pair, trace_inner(pair) if self.spec.is_finite else wightman_inner(pair, self.beta)

    @cached_property
    def oracle_pair(self):
        """The thermal closed form's last term links levels cut and cut + 1,
        beyond the pair, and weighs about the tolerance.  The oracle rows run
        K levels further, where the oracle's own cut lies far below the
        certified tail; the other rows stay at the cut, which is cheaper."""
        return self.pair if self.spec.is_finite else self.levels(self.pair[0].dim - 1 + self.K)

    @cached_property
    def oracle(self):
        return moments_oracle(*self.oracle_pair, K=self.K)

    @cached_property
    def coeffs(self):
        return moments_to_lanczos(self.table)

    @cached_property
    def hankel_values(self):
        """(det, product, naive product fails) of :func:`~krylov_exact.chain.hankel_check` at HANKEL_N."""
        return hankel_check(self.table, self.coeffs, HANKEL_N)

    def classification(self) -> str:
        """The label (:func:`~krylov_exact.chain.classify_stop`) of the recursion's stop."""
        return classify_stop(self.coeffs.stop_index, self.K)

    def lanczos_report(self) -> dict:
        """The ``lanczos`` document: b^2, stop index and classification, and
        the Hankel identity where the moments reach mu_2n."""
        doc = {**self.coeffs.to_json_dict(), "classification": self.classification()}
        if self.table.order >= 2 * HANKEL_N:
            lhs, rhs, naive = self.hankel_values
            doc["hankel"] = {"n": HANKEL_N, "lhs": self.ctx.fmt(lhs), "rhs": self.ctx.fmt(rhs), "naive_formula_fails": naive}
        return doc

    @cached_property
    def chain(self):
        # the bigreal profile row needs the full chain; its first K
        # coefficients are those of the k_max=K chain, so one chain serves both
        return operator_lanczos(*self.pair, k_max=self.K if self.ctx.is_exact else None)

    @cached_property
    def closure(self):
        return verify_closure(self.pair[0])

    def shift_relations(self):
        hi = self.spec.N - 1 if self.spec.is_finite else 8
        ok = all(spectrum_shift_relations(self.spec, n) for n in range(1, hi + 1))
        return ("all hold" if ok else "violated"), ok

    def discriminant_square(self):
        spec, ctx = self.spec, self.ctx
        for n in range(spec.N + 1) if spec.is_finite else range(12):
            e = spec.energy(n)
            disc = spec.r1_at(e) ** 2 + 4 * spec.r0_at(e)
            gap = spec.alpha_plus(n) - spec.alpha_minus(n)
            if not ctx.close(disc, gap * gap):
                return f"mismatch at n={n}", False
            if ctx.is_exact and exact_sqrt(disc) is None:
                return f"not a perfect square at n={n}", False
        return "complete square", True

    def closed_vs_oracle(self):
        values = self.table.values
        dev = max(abs(a - b) for a, b in zip(values, self.oracle.values))
        return self.ctx.fmt(dev), dev <= self.rel_eps * max(abs(v) for v in values) * 1000

    def odd_moments(self):
        # the oracle's space checks the mirror when it is built, so these are
        # exact zeros; a pair off the mirror fails the row as MirrorAsymmetry
        ok = all(self.ctx.is_zero(v) for v in self.oracle.values[1::2])
        return ("0" if ok else "nonzero"), ok

    def even_moments(self):
        ok = all(v > 0 for v in self.table.even()[1:])
        return ("ok" if ok else "violation"), ok

    def recursion_vs_chain(self):
        # the moment route inverts a Hankel structure whose conditioning grows
        # exponentially with K, so in bigreal mode the recovered b^2 carry far
        # fewer digits than the working precision; the comparison budget
        # reflects that information loss, not a defect of either route
        ctx, both = self.ctx, list(zip(self.coeffs.b_squared, self.chain.b_squared))
        dev = max((abs(x - y) / max(abs(x), abs(y)) for x, y in both), default=0)
        return ctx.fmt(dev), dev == 0 if ctx.is_exact else dev <= ctx.num("1e-12")

    def b123(self):
        if self.table.order < 6:
            return "not applicable (needs K >= 3)", None
        try:
            b123 = b123_closed_forms(self.table)
        except DegenerateChain:
            return "degenerate (chain stopped at b_2)", None
        ok = all(self.ctx.close(x, self.coeffs.b2(k)) for k, x in enumerate(b123, 1))
        return ("match" if ok else "mismatch"), ok

    def roundtrip(self):
        back = lanczos_to_moments(self.coeffs, self.K)
        ok = all(self.ctx.close(x, y) for x, y in zip(back.values, self.table.values))
        return ("ok" if ok else "broken"), ok

    def stops_at(self):
        if self.stop >= self.K:
            # b_{k+1} = 0 is visible only when the moments reach b_{k+1}
            return f"not applicable (needs K >= {self.stop + 1})", None
        return self.classification(), self.coeffs.stop_index == self.stop

    def hankel(self):
        lhs, rhs, _ = self.hankel_values
        ok = self.ctx.close(lhs, rhs)
        return ("ok" if ok else f"{self.ctx.fmt(lhs)} != {self.ctx.fmt(rhs)}"), ok

    def scaling(self):
        ctx, (pair, ip), lam = self.ctx, self.oracle_pair, self.ctx.frac(2)
        expect = scale_table(self.oracle, lam).values[:5]
        scaled = moments_oracle(replace(pair, h=pair.h * lam), ip, K=2).values[:5]
        dev = max(abs(a - b) for a, b in zip(scaled, expect))
        return ctx.fmt(dev), dev <= self.rel_eps * max(abs(v) for v in expect) * 100

    def closure_identity(self):
        spec, closure, (pair, _) = self.spec, self.closure, self.pair
        levels = range(spec.N + 1) if spec.is_finite else range(min(pair.dim, 12))
        ok = all(closure_diagonal_identity(closure, spec, n, self.ctx) for n in levels)
        return "residual polynomial, diagonal matches", ok

    def heisenberg(self):
        devs, ok = heisenberg_check(self.pair[0], self.closure, HEISENBERG_TIMES)
        return self.ctx.fmt(max(devs)), ok

    def sum_rule(self):
        ctx = self.ctx
        times = [ctx.num(k) / 4 + ctx.frac(1, 10) for k in range(8)]
        prof = krylov_profile(self.chain, *self.pair, times)
        worst = max(prof.sum_rule_defect(i) for i in range(len(times)))
        return ctx.fmt(worst), worst <= ctx.num("1e-30")


def run_system_checks(spec: SystemSpec, beta=None, K: int = 6, tail_tol=None) -> list[CheckResult]:
    """The full invariant suite for one system in its context's mode.

    An error in the closed form or the pair is the whole system's.  The
    stop row expects the closed form's stop s where s is at most 2 (the
    paper's non-complex systems, b_m = 0 for m >= 3) or the K moments
    reach b_{s+1}, as a small finite system's chain does; otherwise it
    reports the classification."""
    c = SystemChecks(spec, beta, K, tail_tol)
    table, _, stop = c.table, c.pair, c.stop
    if stop is not None and (stop <= 2 or stop < K):
        stop_row = (f"b{stop + 1}_is_zero", f"stop at O_{stop}", c.stops_at)
    else:
        stop_row = ("chain_classification", "reported", lambda: (c.classification(), True))
    rows = [
        ("spectrum_shift_relations", "all hold", c.shift_relations),
        ("frequency_discriminant_square", "complete square", c.discriminant_square),
        ("moments_closed_vs_oracle", "0" if c.ctx.is_exact else "within tolerance", c.closed_vs_oracle),
        ("odd_moments_vanish", "0", c.odd_moments),
        ("even_moments_positive", "> 0", c.even_moments),
        ("lanczos_recursion_vs_operator_chain", "agree", c.recursion_vs_chain),
        ("b123_closed_forms", "match recursion", c.b123),
        ("chain_roundtrip", "identity", c.roundtrip),
        stop_row,
        *([(f"hankel_identity_n{HANKEL_N}", "det == product", c.hankel)] if table.order >= 2 * HANKEL_N else []),
        ("scaling_covariance", "mu_2m -> lam^2m mu_2m", c.scaling),
        ("closure_and_diagonal_identity", "holds", c.closure_identity),
    ]
    if not c.ctx.is_exact:
        rows.append(("heisenberg_closed_form_vs_oracle", "within tolerance", c.heisenberg))
        rows.append(("profile_sum_rule", "sum phi^2 = 1", c.sum_rule))
    return [_row(*row) for row in rows]


def detect_noncomplexity(spec: SystemSpec, beta=None, K: int = 6, tail_tol=None) -> str:
    """The label, ``StopsAtO{k}`` or ``NoEarlyStop(K)``, of the stop of the
    closed form's measure (:attr:`SystemChecks.stop`, :func:`classify_stop`).
    The six linear-spectrum families terminate early (the Hermite chain
    already at O_1: its measure has the two points +-2 and no point at 0)."""
    return classify_stop(SystemChecks(spec, beta, K, tail_tol).stop, K)

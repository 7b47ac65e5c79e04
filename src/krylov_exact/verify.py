"""Per-system verification suites behind the ``verify`` CLI command.

Each check produces a row (name, expected, got, status) so the CLI can
print a table and exit nonzero when anything fails.  The checks mirror
the package's cross-validation strategy: closed forms against matrix
oracles, chain conversions against operator-space orthonormalisation,
and the closed-form Heisenberg solution against the exponential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .catalog import SystemKind, SystemSpec, spectrum_shift_relations
from .chain import HANKEL_N, b123_closed_forms, classify_stop, hankel_check, lanczos_to_moments, moments_to_lanczos
from .dynamics import HEISENBERG_TIMES, closure_diagonal_identity, heisenberg_check, krylov_profile, verify_closure
from .errors import DegenerateChain, KrylovExactError
from .moments import moments_closed_finite, moments_closed_thermal, moments_oracle, scale_table
from .numeric import exact_sqrt
from .operators import (
    energy_pair,
    operator_lanczos,
    position_pair,
    trace_inner,
    wightman_inner,
)

#: Expected early chain termination per system: index k such that
#: b_{k+1} = 0.  The four constant-moment families stop at O_2; the
#: Hermite moments are the geometric sequence whose ratio equals mu_2,
#: which terminates the chain one step earlier, at O_1; Laguerre is
#: geometric with ratio 16 > mu_2 and stops at O_2.
EXPECTED_STOP = {
    SystemKind.KRAWTCHOUK: 2,
    SystemKind.DUAL_HAHN: 2,
    SystemKind.MEIXNER: 2,
    SystemKind.CHARLIER: 2,
    SystemKind.HERMITE: 1,
    SystemKind.LAGUERRE: 2,
}


@dataclass
class CheckResult:
    name: str
    expected: str
    got: str
    passed: bool

    @property
    def status(self) -> str:
        return "pass" if self.passed else "FAIL"


def run_system_checks(spec: SystemSpec, beta=None, K: int = 6, tail_tol=None) -> list[CheckResult]:
    """The full invariant suite for one system in its context's mode."""
    checks: list[CheckResult] = []
    ctx = spec.ctx

    def add(name, expected, got, passed):
        checks.append(CheckResult(name, str(expected), str(got), bool(passed)))

    def guarded(name, expected, fn):
        try:
            got, passed = fn()
        except KrylovExactError as exc:
            add(name, expected, f"error: {exc}", False)
        else:
            add(name, expected, got, passed)

    # spectrum / frequency identities
    hi = spec.N - 1 if spec.is_finite else 8
    guarded(
        "spectrum_shift_relations",
        "all hold",
        lambda: ("all hold", True)
        if all(spectrum_shift_relations(spec, n) for n in range(1, hi + 1))
        else ("violated", False),
    )

    def _square_check():
        rng = range(spec.N + 1) if spec.is_finite else range(12)
        for n in rng:
            e = spec.energy(n)
            disc = spec.r1_at(e) ** 2 + 4 * spec.r0_at(e)
            gap = spec.alpha_plus(n) - spec.alpha_minus(n)
            if not ctx.close(disc, gap * gap):
                return (f"mismatch at n={n}", False)
            if ctx.is_exact and exact_sqrt(disc) is None:
                return (f"not a perfect square at n={n}", False)
        return ("complete square", True)

    guarded("frequency_discriminant_square", "complete square", _square_check)

    # moments: closed form vs oracle
    if spec.is_finite:
        table = moments_closed_finite(spec, K)
        pair = oracle_pair = position_pair(spec)
        ip = oracle_ip = trace_inner(pair)
    else:
        table = moments_closed_thermal(spec, K, beta=beta, tail_tol=tail_tol)
        beta = ctx.num(beta if beta is not None else 1)
        cut = max(table.truncation.n_max, 8)
        pair = energy_pair(spec, n_max=cut)
        ip = wightman_inner(pair, beta)
        # The closed form's last term links levels cut and cut + 1, beyond a
        # pair on levels 0..cut, and weighs about the tolerance.  The oracle
        # rows run K levels further, where the oracle's own cut lies far below
        # the certified tail; the other rows stay at the cut, which is cheaper.
        oracle_pair = energy_pair(spec, n_max=cut + K)
        oracle_ip = wightman_inner(oracle_pair, beta)
    oracle = moments_oracle(oracle_pair, oracle_ip, K=K)
    dev = max(abs(a - b) for a, b in zip(table.values, oracle.values))
    scale = max(abs(v) for v in table.values)
    rel_eps = ctx.default_tolerance().rel_eps
    ok = dev <= rel_eps * scale * 1000
    add("moments_closed_vs_oracle", "0" if ctx.is_exact else "within tolerance", ctx.fmt(dev), ok)

    odd_ok = all(ctx.is_zero(oracle.values[m]) for m in range(1, len(oracle.values), 2))
    add("odd_moments_vanish", "0", "0" if odd_ok else "nonzero", odd_ok)

    pos_ok = all(v > 0 for v in table.even()[1:])
    add("even_moments_positive", "> 0", "ok" if pos_ok else "violation", pos_ok)

    # chain: moment recursion vs operator orthonormalisation.  The
    # moment route inverts a Hankel structure whose conditioning grows
    # exponentially with K, so in bigreal mode the recovered b^2 carry
    # far fewer digits than the working precision; the comparison budget
    # reflects that information loss, not a defect of either route.  In
    # bigreal mode the profile check below needs the full chain; its first
    # K coefficients are those of the k_max=K chain, so one chain serves both.
    coeffs = moments_to_lanczos(table)
    chain = operator_lanczos(pair, ip, k_max=K if ctx.is_exact else None)
    m = min(len(coeffs.b_squared), len(chain.b_squared))
    if m:
        cdev = max(
            abs(x - y) / max(abs(x), abs(y))
            for x, y in zip(coeffs.b_squared[:m], chain.b_squared[:m])
        )
        cok = cdev == 0 if ctx.is_exact else cdev <= ctx.num("1e-12")
    else:
        cdev, cok = 0, True
    add("lanczos_recursion_vs_operator_chain", "agree", ctx.fmt(cdev), cok)

    if table.order < 6:
        add("b123_closed_forms", "-", "not applicable (needs K >= 3)", True)
    else:
        try:
            b1, b2, b3 = b123_closed_forms(table)
            ok3 = all(
                ctx.close(x, y)
                for x, y in zip((b1, b2, b3), [coeffs.b2(k) for k in (1, 2, 3)])
            )
            add("b123_closed_forms", "match recursion", "match" if ok3 else "mismatch", ok3)
        except DegenerateChain:
            add("b123_closed_forms", "-", "degenerate (chain stopped at b_2)", True)

    back = lanczos_to_moments(coeffs, K)
    rt_ok = all(ctx.close(x, y) for x, y in zip(back.values, table.values))
    add("chain_roundtrip", "identity", "ok" if rt_ok else "broken", rt_ok)

    expected_stop = EXPECTED_STOP.get(spec.kind)
    cls = classify_stop(coeffs, K)
    if expected_stop is not None and expected_stop >= K:
        # b_{k+1} = 0 is visible only when the moments reach b_{k+1}
        add(f"b{expected_stop + 1}_is_zero", "-", f"not applicable (needs K >= {expected_stop + 1})", True)
    elif expected_stop is not None:
        add(
            f"b{expected_stop + 1}_is_zero",
            f"stop at O_{expected_stop}",
            cls.label,
            coeffs.stop_index == expected_stop,
        )
    else:
        add("chain_classification", "reported", cls.label, True)

    # Hankel determinant identity
    if (coeffs.stop_index is None or coeffs.stop_index >= 1) and table.order >= 2 * HANKEL_N:
        lhs, rhs, _ = hankel_check(table, coeffs, HANKEL_N)
        hok = ctx.close(lhs, rhs)
        add(f"hankel_identity_n{HANKEL_N}", "det == product", "ok" if hok else f"{ctx.fmt(lhs)} != {ctx.fmt(rhs)}", hok)

    # scaling covariance (oracle level)
    lam = ctx.frac(2)
    scaled_pair = replace(oracle_pair, h=oracle_pair.h * lam)
    o_scaled = moments_oracle(scaled_pair, oracle_ip, K=2)
    expect = scale_table(oracle, lam)
    sdev = max(abs(a - b) for a, b in zip(o_scaled.values[:5], expect.values[:5]))
    sok = sdev <= rel_eps * max(abs(v) for v in expect.values[:5]) * 100
    add("scaling_covariance", "mu_2m -> lam^2m mu_2m", ctx.fmt(sdev), sok)

    # closure relation and the diagonal identity; the Heisenberg check
    # below reuses the same closure data (or fails with the same error)
    closure = closure_error = None
    try:
        closure = verify_closure(pair, spec)
    except KrylovExactError as exc:
        closure_error = exc

    def closure_data():
        if closure_error is not None:
            raise closure_error
        return closure

    def _closure():
        cl = closure_data()
        rng = range(spec.N + 1) if spec.is_finite else range(min(pair.dim, 12))
        netn = all(closure_diagonal_identity(cl, spec, n, ctx) for n in rng)
        return ("residual polynomial, diagonal matches", netn)

    guarded("closure_and_diagonal_identity", "holds", _closure)

    # Heisenberg closed form vs exponential oracle (bigreal only)
    if not ctx.is_exact:
        def _heisenberg():
            devs, ok = heisenberg_check(pair, closure_data(), HEISENBERG_TIMES)
            return (ctx.fmt(max(devs)), ok)

        guarded("heisenberg_closed_form_vs_oracle", "within tolerance", _heisenberg)

        def _profile():
            times = [ctx.num(k) / 4 + ctx.frac(1, 10) for k in range(8)]
            prof = krylov_profile(chain, pair, ip, times)
            worst = max(prof.sum_rule_defect(i) for i in range(len(times)))
            return (ctx.fmt(worst), worst <= ctx.num("1e-30"))

        guarded("profile_sum_rule", "sum phi^2 = 1", _profile)

    return checks

"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion report.  Exact-mode checks assert literal equality of
rationals (tolerance zero); numerical checks pin the stated thresholds.
"""

import random

import pytest
from mpmath import mp

from krylov_exact import (
    Context,
    b123_closed_forms,
    default_system,
    detect_noncomplexity,
    energy_pair,
    hankel_check,
    heisenberg_closed_form,
    krylov_profile,
    lanczos_to_moments,
    make_system,
    matrix_exponential_conjugate,
    moments_closed_finite,
    moments_closed_thermal,
    moments_oracle,
    moments_to_lanczos,
    operator_lanczos,
    position_pair,
    trace_inner,
    verify_closure,
    wightman_inner,
)
from krylov_exact.dynamics import closure_diagonal_identity
from krylov_exact.moments import scale_table
from krylov_exact.operators import OperatorPair, max_abs
from krylov_exact.verify import run_system_checks

from helpers import FINITE_KINDS, dual_hahn_mu2_closed, param_samples

EXACT = Context("exact")
BIG = Context("bigreal", 50)


def report(num: int, desc: str, ok: bool):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def finite_sweep():
    """Closed-form and oracle tables for every finite system, N in 2..8,
    three rational parameter samples each, exact mode, K = 6."""
    out = []
    for kind in FINITE_KINDS:
        for N in range(2, 9):
            for params in param_samples(kind, N):
                spec = make_system(kind, N, params, EXACT)
                closed = moments_closed_finite(spec, 6)
                oracle = moments_oracle(position_pair(spec), K=6)
                out.append((kind, N, params, closed, oracle))
    return out


def test_criterion_01_oracle_equivalence(finite_sweep):
    bad = [
        (kind.value, N, params)
        for kind, N, params, closed, oracle in finite_sweep
        if closed.values != oracle.values
    ]
    report(
        1,
        f"closed form == commutator oracle exactly on {len(finite_sweep)} "
        f"finite configurations (2m <= 12)",
        not bad,
    )


def test_criterion_02_odd_moments_vanish(finite_sweep):
    ok = all(
        all(v == 0 for v in closed.values[1::2])
        and all(v == 0 for v in oracle.values[1::2])
        for _, _, _, closed, oracle in finite_sweep
    )
    report(2, "odd moments vanish exactly across the sweep", ok)


def test_criterion_03_krawtchouk_golden_value():
    ok = True
    for p_str in ("1/2", "1/3", "3/4"):
        p = EXACT.num(p_str)
        golden = 2 * p * (1 - p)
        # N = 1 is the single configuration whose trace norm makes the
        # textbook value 2p(1-p) exact; the constancy in m holds for all N
        spec = make_system("krawtchouk", 1, {"p": p_str}, EXACT)
        table = moments_closed_finite(spec, 6)
        ok &= all(table.mu(2 * m) == golden for m in range(1, 7))
        coeffs = moments_to_lanczos(table)
        ok &= coeffs.b_squared == [golden, 1 - golden]
        ok &= coeffs.stop_index == 2 and coeffs.b2(3) == 0
        # the chain shape (mu_2, 1 - mu_2, 0) persists at every N
        spec6 = make_system("krawtchouk", 6, {"p": p_str}, EXACT)
        t6 = moments_closed_finite(spec6, 6)
        mu2 = t6.mu(2)
        ok &= len(set(t6.even()[1:])) == 1
        c6 = moments_to_lanczos(t6)
        ok &= c6.b_squared == [mu2, 1 - mu2] and c6.stop_index == 2
    report(3, "Krawtchouk constant moments 2p(1-p) with chain (b1^2, b2^2, 0)", ok)


def test_criterion_04_dual_hahn_cross_check():
    ok = True
    for N, a, b in [(4, "1", "2"), (6, "1/2", "3"), (8, "2", "2")]:
        spec = make_system("dual-hahn", N, {"a": a, "b": b}, EXACT)
        table = moments_closed_finite(spec, 1)
        closed = dual_hahn_mu2_closed(N, EXACT.num(a), EXACT.num(b), EXACT)
        ok &= table.mu(2) == closed
    report(4, "dual Hahn lattice sum equals the rational closed form exactly", ok)


def test_criterion_05_hermite_powers_of_four():
    spec = make_system("hermite", None, {}, BIG)
    tol = BIG.num("1e-35")
    ok = True
    for beta in ("1/2", "1", "2"):
        table = moments_closed_thermal(spec, 6, beta=beta, tail_tol="1e-38")
        pair = energy_pair(spec, n_max=max(table.truncation.n_max, 2))
        ip = wightman_inner(pair, BIG.num(beta))
        oracle = moments_oracle(pair, ip, K=6)
        for m in range(1, 7):
            want = 4**m
            ok &= abs(table.mu(2 * m) - want) <= tol * want
            ok &= abs(oracle.mu(2 * m) - want) <= tol * want
    report(5, "Hermite mu_2m = 2^2m for beta in {1/2, 1, 2}, closed and oracle", ok)


def test_criterion_06_noncomplexity_signature():
    ok = True
    # exact stop for the two constant-moment finite families
    for kind in ("krawtchouk", "dual-hahn"):
        cls = detect_noncomplexity(default_system(kind, EXACT))
        ok &= cls.label == "StopsAtO2" and cls.stop_index == 2
    # thermal families at the default samples
    tol = BIG.num("1e-35")
    for kind in ("meixner", "charlier", "laguerre"):
        spec = default_system(kind, BIG)
        table = moments_closed_thermal(spec, 6, beta="1", tail_tol="1e-38")
        _, _, b3 = b123_closed_forms(table)
        ok &= abs(b3) < tol
        ok &= detect_noncomplexity(spec, beta="1").label == "StopsAtO2"
    herm = make_system("hermite", None, {}, BIG)
    t = moments_closed_thermal(herm, 6, beta="1", tail_tol="1e-38")
    b2 = t.mu(4) / t.mu(2) - t.mu(2)
    ok &= abs(b2) < tol
    cls = detect_noncomplexity(herm, beta="1")
    ok &= cls.label == "StopsAtO1"
    # measured stop reported as-is: the pure geometric Hermite sequence
    # ends one step before the generic constant/geometric O_2 pattern
    print("  note: Hermite chain measured to stop at O_1 (geometric ratio = mu_2)")
    report(6, "early chain termination for the six linear-spectrum systems", ok)


def test_criterion_07_scaling_covariance():
    ok = True
    for kind in ("krawtchouk", "q-racah"):
        spec = default_system(kind, EXACT)
        pair = position_pair(spec)
        base_mu = moments_oracle(pair, K=6)
        base_b = operator_lanczos(pair, k_max=6)
        for lam_s in ("2", "1/3"):
            lam = EXACT.num(lam_s)
            scaled = OperatorPair(lam * pair.h, pair.eta, EXACT, pair.metric, spec)
            got_mu = moments_oracle(scaled, K=6)
            ok &= got_mu.values == scale_table(base_mu, lam).values
            got_b = operator_lanczos(scaled, k_max=6)
            ok &= got_b.b_squared == [lam * lam * v for v in base_b.b_squared]
    report(7, "H -> lam H scales mu_2m by lam^2m and b_n by lam, exactly", ok)


def test_criterion_08_hankel_identity():
    ok = True
    naive_failures = {}
    for kind in ("krawtchouk", "q-racah"):
        spec = default_system(kind, EXACT)
        table = moments_closed_finite(spec, 6)
        coeffs = moments_to_lanczos(table)
        for n in (2, 3):
            lhs, rhs, naive_fails = hankel_check(table, coeffs, n)
            ok &= lhs == rhs
            naive_failures[(kind, n)] = naive_fails
    # the naive product disagrees wherever the determinant is nonzero;
    # the Krawtchouk chain has already terminated at n = 3, where both
    # sides degenerate to zero
    ok &= naive_failures[("krawtchouk", 2)]
    ok &= not naive_failures[("krawtchouk", 3)]
    ok &= naive_failures[("q-racah", 2)] and naive_failures[("q-racah", 3)]
    report(8, "Hankel determinant equals prod b_k^(2(n+1-k)); naive product refuted", ok)


def test_criterion_09_heisenberg_closed_form():
    tol = BIG.num("1e-35")
    worst_overall = BIG.zero
    ok = True
    for kind in FINITE_KINDS:
        spec = default_system(kind, BIG)
        assert spec.N == 6
        pair = position_pair(spec)
        closure = verify_closure(pair)
        for t_s in ("1/10", "7/10", "157/50", "10"):
            t = BIG.num(t_s)
            closed = heisenberg_closed_form(pair, closure, t)
            oracle = matrix_exponential_conjugate(pair, pair.eta, t)
            dev = max_abs(closed - oracle)
            worst_overall = max(worst_overall, dev)
            ok &= dev < tol
    report(
        9,
        f"closed-form Heisenberg solution vs exponential oracle, worst dev "
        f"{mp.nstr(worst_overall, 3)} < 1e-35",
        ok,
    )


def test_criterion_10_closure_identity():
    ok = True
    for kind in FINITE_KINDS:
        spec = default_system(kind, EXACT)
        for pair in (position_pair(spec), energy_pair(spec)):
            closure = verify_closure(pair)
            ok &= closure.residual == 0
        for n in range(spec.N + 1):
            ok &= closure_diagonal_identity(closure, spec, n, EXACT)
            ok &= spec.eta_diag(n) == -(spec.A(n) + spec.C(n))
    report(10, "double-commutator residual is a degree-<=2 polynomial of H; "
               "R_0 eta_nn + R_-1 = 0 on the recurrence diagonal", ok)


def test_criterion_11_profile_sum_rules():
    times = [BIG.num(k) / BIG.num(4) + BIG.frac(1, 50) for k in range(20)]
    sum_tol = BIG.num("1e-30")
    ok = True

    spec = make_system("krawtchouk", 6, {"p": "1/2"}, BIG)
    pair = position_pair(spec)
    ip = trace_inner(pair)
    chain = operator_lanczos(pair, ip)
    prof = krylov_profile(chain, pair, ip, times)
    worst_k = max(prof.sum_rule_defect(i) for i in range(len(times)))
    ok &= worst_k < sum_tol

    geg = make_system("gegenbauer", None, {"g": "2"}, BIG)
    gpair = energy_pair(geg, n_max=60)
    gip = wightman_inner(gpair, BIG.num(1))
    gchain = operator_lanczos(gpair, gip)
    gprof = krylov_profile(gchain, gpair, gip, times)
    worst_g = max(gprof.sum_rule_defect(i) for i in range(len(times)))
    ok &= worst_g < sum_tol

    herm = make_system("hermite", None, {}, BIG)
    hpair = energy_pair(herm, n_max=45)
    hip = wightman_inner(hpair, BIG.num(1))
    hchain = operator_lanczos(hpair, hip)
    hprof = krylov_profile(hchain, hpair, hip, times)
    with BIG.work():
        worst_h = max(
            abs(k - mp.sin(2 * t) ** 2) for k, t in zip(hprof.complexity, times)
        )
    ok &= worst_h < sum_tol

    report(
        11,
        f"sum rule defects: Krawtchouk {mp.nstr(worst_k, 3)}, Gegenbauer "
        f"{mp.nstr(worst_g, 3)}; Hermite K(t) vs sin^2(2t): {mp.nstr(worst_h, 3)}",
        ok,
    )


def test_bigreal_hahn_a_b_1_passes_verify_at_n8():
    # R_0(E(0)) = 0 for this sample; every row passes, the profile's sum
    # rule included
    rows = run_system_checks(make_system("hahn", 8, {"a": "1", "b": "1"}, BIG))
    assert "profile_sum_rule" in [r.name for r in rows]
    assert [r.name for r in rows if not r.passed] == []


def test_criterion_12_conversion_round_trips():
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        b2 = [EXACT.frac(rng.randint(1, 32), rng.randint(1, 9)) for _ in range(6)]
        table = lanczos_to_moments(b2, K=6, ctx=EXACT)
        rec = moments_to_lanczos(table)
        ok &= rec.b_squared == b2
        ok &= lanczos_to_moments(rec, K=6, ctx=EXACT).values == table.values
    report(12, "moments <-> Lanczos conversions are exact inverses on 100 chains", ok)


@pytest.mark.slow
def test_exact_sweep_n32():
    """Opt-in (``pytest -m slow``): the ten finite systems at N=32, K=6.

    Closed form == commutator oracle, and Hankel-route b^2 == operator
    b^2 on their common prefix, all as exact rationals.
    """
    for kind in FINITE_KINDS:
        spec = make_system(kind, 32, param_samples(kind, 32)[0], EXACT)
        pair = position_pair(spec)
        closed = moments_closed_finite(spec, 6)
        assert closed.values == moments_oracle(pair, K=6).values, kind
        hankel = moments_to_lanczos(closed).b_squared
        ops = operator_lanczos(pair, k_max=6).b_squared
        m = min(len(hankel), len(ops))
        assert m >= 2 and hankel[:m] == ops[:m], kind


@pytest.mark.slow
@pytest.mark.parametrize(
    "kind, params", [("hahn", {"a": "1/2", "b": "2"}), ("krawtchouk", {"p": "1/3"})]
)
def test_exact_position_n128(kind, params):
    """Opt-in (``pytest -m slow``): N=128, K=6 on the exact position pair.

    Closed form == commutator oracle, and Hankel-route b^2 == operator
    b^2 on their common prefix, all as exact rationals.
    """
    spec = make_system(kind, 128, params, EXACT)
    pair = position_pair(spec)
    closed = moments_closed_finite(spec, 6)
    assert closed.values == moments_oracle(pair, K=6).values
    hankel = moments_to_lanczos(closed).b_squared
    ops = operator_lanczos(pair, k_max=6).b_squared
    m = min(len(hankel), len(ops))
    assert m >= 2 and hankel[:m] == ops[:m]


@pytest.mark.slow
@pytest.mark.parametrize(
    "kind, params", [("hahn", {"a": "1/2", "b": "2"}), ("krawtchouk", {"p": "1/3"})]
)
def test_exact_position_n256(kind, params):
    """Opt-in (``pytest -m slow``): N=256, K=6 on the exact position pair,
    whose band (width 6) is a small part of the 257 x 257 matrix.

    Closed form == commutator oracle, and Hankel-route b^2 == operator
    b^2 on their common prefix, all as exact rationals.
    """
    spec = make_system(kind, 256, params, EXACT)
    pair = position_pair(spec)
    closed = moments_closed_finite(spec, 6)
    assert closed.values == moments_oracle(pair, K=6).values
    hankel = moments_to_lanczos(closed).b_squared
    ops = operator_lanczos(pair, k_max=6).b_squared
    m = min(len(hankel), len(ops))
    assert m >= 2 and hankel[:m] == ops[:m]


@pytest.mark.slow
def test_exact_verify_hahn_n256(capsys):
    """Opt-in (``pytest -m slow``): the exact ``verify`` suite on Hahn
    (a=1/2, b=2) at N=256, closure check included, passes every row."""
    from krylov_exact.cli import main

    code = main(["verify", "--system", "hahn", "-N", "256", "--param", "a=1/2", "--param", "b=2"])
    rows = capsys.readouterr().out.splitlines()
    assert code == 0 and rows[-1] == "all checks passed"
    assert any(r.split()[1:3] == ["closure_and_diagonal_identity", "pass"] for r in rows[:-1])
    assert all(r.split()[2] == "pass" for r in rows[:-1])

"""Run one benchmark workload in this interpreter and print one JSON line.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this script once per workload run, in a fresh
process, plus a few ``--setup-only`` copies to time set-up.  The
script imports krylov_exact from ``src/`` of the checkout it sits in.

A run repeats the workload's job list ("pass") while another pass still
fits in ``--seconds``, at least once, and reports the median pass.  Times
are scaled to a fixed machine speed by ``speed.SpeedProbe``.  Every job
checks its own result; a typed ``KrylovExactError`` counts as a failed
operation and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath
import numpy
import speed
from inputs import FINITE_SYSTEMS, THERMAL_PARAMS, exact_position_jobs, time_grid
from spans import TARGETS, Tracer

PROBE = speed.SpeedProbe()
if __name__ == "__main__":
    PROBE.start()

# Set-up is timed from here, in a fresh interpreter, to the first timed
# job.  Interpreter start-up and the imports above, numpy and mpmath
# among them, come before: they are the same for every commit of the
# package.  Timed from the spawn of the process, the median set-up moved
# 13-18% between two sets of runs on a shared machine, even when scaled.
SETUP_BEGIN = time.perf_counter()
SETUP_MARK = PROBE.mark()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import krylov_exact as ke  # noqa: E402
import krylov_exact.cli  # noqa: E402,F401
from krylov_exact.errors import KrylovExactError  # noqa: E402

PRECISION = 50
BETA = "1"
K_THERMAL = 6
#: Digits metrics are capped at the reference precision; an error that
#: is exactly zero (exact rationals) reads as the cap.
DIGITS_CAP = 150
B2_MIN_DIGITS = 45
SUM_RULE_MAX = "1e-30"
STOP_B2 = mpmath.mpf("1e-60")
REFERENCE = HERE / "reference_b2.json"

#: (system, n_max) of the thermal-chain jobs; None means the certified
#: truncation of the closed-form thermal sum.
THERMAL_PLAN = [
    ("gegenbauer", 30),
    ("jacobi", 20),
    ("charlier", None),
    ("meixner", None),
    ("hermite", None),
    ("laguerre", None),
]

#: Systems the verify-cli workload passes to ``verify --system``, in the
#: default modes and with ``--mode bigreal``.  ``--mode bigreal`` is left
#: out for thermal systems, whose default mode is already bigreal, so the
#: run would repeat byte for byte.  Charlier and Meixner are left out:
#: their ~100-level truncations took 12 of the 21 s of one pass, too
#: long to repeat a pass within one run; thermal-chain covers them.
#: Hermite is left out so that the job count is odd: the median job is
#: then one job, not the mean of two jobs on either side of a wide gap
#: in job times, which spread 30% between runs.
VERIFY_SYSTEMS = {
    False: FINITE_SYSTEMS + ["gegenbauer", "jacobi", "laguerre"],
    True: FINITE_SYSTEMS,
}

WORKLOADS = ("exact-position", "thermal-chain", "verify-cli")


# ---------------------------------------------------------------------------
# Gates: each returns True when the result is right
# ---------------------------------------------------------------------------


def to_mpf(x):
    """An mpf for an exact rational, mpf or decimal string."""
    if isinstance(x, str):
        return mpmath.mpf(x)
    if hasattr(x, "denominator") and not isinstance(x, int):
        return mpmath.mpf(int(x.numerator)) / int(x.denominator)
    return mpmath.mpf(x)


def digits(err) -> float:
    """-log10 of a nonnegative error, capped at DIGITS_CAP."""
    if err == 0:
        return float(DIGITS_CAP)
    return min(float(DIGITS_CAP), float(-mpmath.log10(to_mpf(err))))


def max_rel_dev(xs, ys):
    """Largest |x - y| / max(|x|, |y|) over two equally long sequences."""
    worst = 0
    for x, y in zip(xs, ys, strict=True):
        scale = max(abs(x), abs(y))
        if scale:
            worst = max(worst, abs(x - y) / scale)
    return worst


def moments_match(ctx, closed, oracle) -> bool:
    """Closed form == oracle: exactly, or within the tolerance ``verify`` uses."""
    if len(closed.values) != len(oracle.values):
        return False
    if ctx.is_exact:
        return list(closed.values) == list(oracle.values)
    with ctx.work():
        dev = max(abs(a - b) for a, b in zip(closed.values, oracle.values))
        scale = max(abs(v) for v in closed.values)
        return dev <= ctx.default_tolerance().rel_eps * scale * 1000


def b2_prefix_dev(ctx, hankel_b2, chain_b2):
    """Relative b^2 disagreement on the common prefix of two routes; None if empty."""
    m = min(len(hankel_b2), len(chain_b2))
    if m == 0:
        return None
    with ctx.work():
        return max_rel_dev(hankel_b2[:m], chain_b2[:m])


def b2_reference_dev(ctx, chain, ref_b2: list):
    """Relative b^2 error against the reference chain; None if the lengths do not fit.

    A chain computed at the working precision may stop before the
    reference does, but only where the reference b has fallen below
    ``STOP_B2`` (rounding level at 50 digits), and never after it.
    """
    floor = next((k for k, v in enumerate(ref_b2) if v < STOP_B2), len(ref_b2))
    n = len(chain.b_squared)
    if not floor <= n <= len(ref_b2):
        return None
    with ctx.work():
        return max_rel_dev(chain.b_squared, ref_b2[:n])


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    """``prepare`` runs during set-up; ``run`` is timed and returns an Outcome."""

    name: str
    prepare: Callable[[], object]
    run: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    attempted: int = 1
    failed: int = 0
    gate_failures: list | None = None
    b2_err: list | None = None
    sum_rule: list | None = None
    counts: dict | None = None


def _gate(outcome: Outcome, name: str, ok: bool):
    """Record a failed gate; a job with one counts as (at least) one failed operation."""
    if not ok:
        outcome.gate_failures = (outcome.gate_failures or []) + [name]
        outcome.failed = max(outcome.failed, 1)


def exact_job(system: str, N: int, K: int, params: dict) -> Job:
    ctx = ke.Context("exact")

    def run(spec) -> Outcome:
        pair = ke.position_pair(spec)
        closed = ke.moments_closed_finite(spec, K)
        ip = ke.trace_inner(pair)
        oracle = ke.moments_oracle(pair, ip, K=K)
        hankel = ke.moments_to_lanczos(closed)
        chain = ke.operator_lanczos(pair, ip, k_max=K)
        out = Outcome(counts={"lanczos_steps": len(chain.b_squared)})
        _gate(out, "closed_form_equals_oracle", moments_match(ctx, closed, oracle))
        dev = b2_prefix_dev(ctx, hankel.b_squared, chain.b_squared)
        _gate(out, "hankel_b2_equals_operator_b2", dev == 0)
        out.b2_err = [dev if dev is not None else 1]
        return out

    return Job(f"{system}:N={N}:K={K}", lambda: ke.make_system(system, N, params, ctx), run)


def thermal_n_max(closed, fixed):
    """n_max of a thermal chain: the fixed value, or the certified truncation of ``closed``.

    The floor of 8 levels is the one ``verify`` applies.
    """
    return fixed if fixed is not None else max(closed.truncation.n_max, 8)


def thermal_job(system: str, fixed_n_max, times: list, reference: dict) -> Job:
    ctx = ke.Context("bigreal", PRECISION)
    ref = reference["chains"][system]
    with ctx.work():
        ref_b2 = [mpmath.mpf(v) for v in ref["b_squared"]]

    def run(spec) -> Outcome:
        closed = ke.moments_closed_thermal(spec, K_THERMAL, beta=BETA)
        n_max = thermal_n_max(closed, fixed_n_max)
        pair = ke.energy_pair(spec, n_max=n_max)
        ip = ke.wightman_inner(pair, ctx.num(BETA))
        oracle = ke.moments_oracle(pair, ip, K=K_THERMAL)
        chain = ke.operator_lanczos(pair, ip)
        ts = [ctx.num(t) for t in times]
        prof = ke.krylov_profile(chain, pair, ip, ts)
        out = Outcome(
            counts={
                "lanczos_steps": len(chain.b_squared),
                "thermal_terms": closed.truncation.n_max + 1,
            }
        )
        _gate(out, "closed_form_within_verify_tolerance", moments_match(ctx, closed, oracle))
        _gate(out, "truncation_matches_reference", n_max == ref["n_max"])
        dev = b2_reference_dev(ctx, chain, ref_b2)
        _gate(out, "b2_reference_digits", dev is not None and digits(dev) >= B2_MIN_DIGITS)
        out.b2_err = [dev if dev is not None else 1]
        with ctx.work():
            worst = max(prof.sum_rule_defect(i) for i in range(len(ts)))
            _gate(out, "sum_rule_defect", worst <= ctx.num(SUM_RULE_MAX))
            out.sum_rule = [worst]
            if system == "hermite":
                k_dev = max(abs(k - mpmath.sin(2 * t) ** 2) for k, t in zip(prof.complexity, ts))
                _gate(out, "hermite_k_equals_sin2", k_dev <= ctx.num(SUM_RULE_MAX))
        return out

    return Job(f"{system}:n_max={fixed_n_max or 'certified'}", lambda: ke.make_system(system, None, THERMAL_PARAMS[system], ctx), run)


def parse_verify_rows(text: str, system: str) -> list[tuple[str, str, str]]:
    """(check, status, got) for every row the verify command printed for ``system``."""
    rows = []
    for line in text.splitlines():
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[0] == system:
            rows.append((parts[1], parts[2], parts[3].rsplit("got: ", 1)[-1]))
    return rows


def verify_job(system: str, bigreal: bool) -> Job:
    argv = ["verify", "--system", system] + (["--mode", "bigreal"] if bigreal else [])

    def run(_state) -> Outcome:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = ke.cli.main(argv)
        rows = parse_verify_rows(buf.getvalue(), system)
        if not rows:
            return Outcome(failed=1, gate_failures=["no verify rows"])
        out = Outcome(attempted=len(rows), counts={"checks": len(rows)})
        out.failed = sum(status != "pass" for _, status, _ in rows)
        _gate(out, "exit_code_0", rc == 0)
        _gate(out, "every_row_pass", out.failed == 0)
        with mpmath.workdps(PRECISION + 5):
            out.b2_err = [to_mpf(got) for name, _, got in rows if name == "lanczos_recursion_vs_operator_chain"]
            out.sum_rule = [to_mpf(got) for name, status, got in rows if name == "profile_sum_rule" and status == "pass"]
        return out

    # the command builds its own system inside the timed job
    return Job(" ".join(argv[1:]), lambda: None, run)


def build_jobs(workload: str, seed: int) -> list[Job]:
    if workload == "exact-position":
        return [exact_job(*spec) for spec in exact_position_jobs(seed)]
    if workload == "thermal-chain":
        reference = json.loads(REFERENCE.read_text())
        times = time_grid(seed)
        return [thermal_job(s, n, times, reference) for s, n in THERMAL_PLAN]
    if workload == "verify-cli":
        return [verify_job(s, bigreal) for bigreal in (False, True) for s in VERIFY_SYSTEMS[bigreal]]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_job(job: Job, state, tracer: Tracer | None) -> Outcome:
    scope = tracer.job_span(job.name) if tracer else contextlib.nullcontext()
    try:
        with scope:
            return job.run(state)
    except KrylovExactError as exc:
        return Outcome(failed=1, gate_failures=[f"{type(exc).__name__}: {exc}"])


def measure(jobs, states, seconds: float, tracer: Tracer | None = None) -> tuple[list, list, list]:
    """Repeat the job list while another pass fits in ``seconds``, at least once.

    Returns per-pass lists of job wall times, of the same times scaled
    to reference speed, and of outcomes.  A collection before each job
    starts every job with the same garbage-collector state.
    """
    walls, scaled, outcomes = [], [], []
    begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        pass_wall, pass_scaled, pass_out = [], [], []
        for job, state in zip(jobs, states):
            gc.collect()
            mark = PROBE.mark()
            t0 = time.perf_counter()
            out = run_job(job, state, tracer)
            wall = time.perf_counter() - t0
            pass_wall.append(wall)
            pass_scaled.append(PROBE.scale(wall, mark))
            pass_out.append(out)
        walls.append(pass_wall)
        scaled.append(pass_scaled)
        outcomes.append(pass_out)
        now = time.perf_counter()
        if now - begin + (now - t_pass) > seconds:
            return walls, scaled, outcomes


def summarize(jobs, walls, scaled, outcomes) -> dict:
    """Aggregate the passes of one run.

    ``run_s`` is the median pass and ``job_p50_s`` the median over jobs
    of each job's median, both at reference speed (see ``speed``).
    """
    per_job = [statistics.median(p[j] for p in scaled) for j in range(len(jobs))]
    flat = [o for p in outcomes for o in p]
    failures = sorted({f"{jobs[j].name}: {g}" for p in outcomes for j, o in enumerate(p) for g in o.gate_failures or ()})
    b2 = [e for o in flat for e in o.b2_err or ()]
    sums = [e for o in flat for e in o.sum_rule or ()]
    counts = {}
    for o in outcomes[0]:
        for k, v in (o.counts or {}).items():
            counts[k] = counts.get(k, 0) + v
    return {
        "passes": len(scaled),
        "pass_wall_s": [sum(p) for p in walls],
        "pass_s": [sum(p) for p in scaled],
        "job_s": scaled,
        "run_s": statistics.median(sum(p) for p in scaled),
        "job_p50_s": statistics.median(per_job),
        "attempted": sum(o.attempted for o in flat),
        "failed": sum(o.failed for o in flat),
        "gate_failures": failures,
        "b2_digits": min((digits(e) for e in b2), default=float(DIGITS_CAP)),
        "sum_rule_digits": min((digits(e) for e in sums), default=float(DIGITS_CAP)),
        "counts_per_pass": counts,
    }


def per_layer(setup: Tracer, passes: Tracer, n_passes: int, overhead_s: float) -> dict:
    """Per-layer metrics: one set-up plus one pass, the pass part averaged."""
    s_tot, p_tot = setup.totals(), passes.totals()

    def val(kind, name):
        return s_tot[kind][name] + p_tot[kind][name] / n_passes

    def count(name):
        return setup.counts[name] + passes.counts[name] / n_passes

    m = {}
    timed = [
        "moments.moments_oracle", "operators.liouville", "operators.inner",
        "operators.operator_lanczos", "dynamics.krylov_profile", "dynamics.verify_closure",
        "dynamics.heisenberg_closed_form", "operators.matrix_exponential_conjugate",
        "operators.eig_symmetric", "verify.run_system_checks", "catalog.make_system",
        "moments.moments_closed_finite", "moments.moments_closed_thermal",
        "chain.moments_to_lanczos", "chain.lanczos_to_moments", "operators.position_pair",
        "operators.energy_pair", "operators.wightman_inner",
    ]
    for name in timed:
        m[f"{name}.s"] = (val("inclusive", name), "s")
    for name in ["moments.moments_oracle", "operators.liouville", "operators.inner",
                 "operators.operator_lanczos", "dynamics.verify_closure"]:
        m[f"{name}.calls"] = (val("calls", name), "count")
    for name in ["operators.operator_lanczos.steps", "moments.moments_closed_thermal.terms",
                 "dynamics.krylov_profile.amplitudes", "verify.checks", "verify.checks_failed"]:
        m[name] = (count(name), "count")
    for module, names in TARGETS.items():
        m[f"{module}.self_s"] = (sum(val("self", f"{module}.{n}") for n in names), "s")
    m["verify.closure_calls_per_bigreal_system"] = (
        passes.calls_per_bigreal_system("dynamics.verify_closure"), "count")
    m["verify.lanczos_calls_per_bigreal_system"] = (
        passes.calls_per_bigreal_system("operators.operator_lanczos"), "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.spans"] = ((len(setup.spans) + len(passes.spans)) / n_passes, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment(seed: int) -> dict:
    rational = type(ke.numeric.rational(1))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "rational_backend": f"{rational.__module__}.{rational.__qualname__}",
        "precision": PRECISION,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "krylov_exact": ke.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    jobs = build_jobs(args.workload, args.seed)
    states = [job.prepare() for job in jobs]
    setup_wall = time.perf_counter() - SETUP_BEGIN
    result = {"setup_wall_s": setup_wall, "setup_s": PROBE.scale(setup_wall, SETUP_MARK)}
    if not args.setup_only:
        # a traced run splits its time between an untraced and a traced
        # half, so that it takes as long as an untraced run
        seconds = args.seconds / 2 if args.trace else args.seconds
        result.update(summarize(jobs, *measure(jobs, states, seconds)))
        if args.trace:
            setup_tr, pass_tr = Tracer(), Tracer()
            setup_tr.install()
            with setup_tr.job_span("setup"):
                traced_states = [job.prepare() for job in jobs]
            setup_tr.uninstall()
            pass_tr.install()
            traced = summarize(jobs, *measure(jobs, traced_states, seconds, pass_tr))
            pass_tr.uninstall()
            result["per_layer"] = per_layer(setup_tr, pass_tr, traced["passes"], traced["run_s"] - result["run_s"])
            result["traced"] = {k: traced[k] for k in ("passes", "run_s", "attempted", "failed", "gate_failures")}
            out_dir = ROOT / ".bench_build" / "perfbench"
            out_dir.mkdir(parents=True, exist_ok=True)
            pass_tr.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)
